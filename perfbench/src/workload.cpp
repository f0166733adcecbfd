#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "scene/dataset.hpp"
#include "serve/validation.hpp"
#include "text/llm.hpp"
#include "util/rng.hpp"

namespace perfbench {

using aero::serve::InferenceRequest;
using aero::serve::Priority;
using aero::serve::TaskKind;

const std::vector<WorkloadSpec>& workloads() {
    static const std::vector<WorkloadSpec> specs = {
        {"bulk_augment",
         "few prompts, many samples: 4 closed-loop batch clients on 4 "
         "scenes, so conditions are cache hits and the UNet, step batcher, "
         "kernels and pool do the work",
         LoopKind::kClosed, 4, 0.0, 4, false, 1.0, 0.0, 1000.0, false},
        {"interactive_mixed",
         "open loop at 8 req/s, generate/edit/inpaint 1:1:1 on distinct "
         "scenes: condition path, AE encode and cache misses under moderate "
         "queueing",
         LoopKind::kOpen, 0, 8.0, 0, true, 0.0, 0.0, 400.0, false},
        {"overload_burst",
         "open loop at 96 req/s, above capacity, 300 ms deadlines, half "
         "batch priority: admission, CoDel, the degradation ladder and "
         "shedding do the work",
         LoopKind::kOpen, 0, 96.0, 0, true, 0.5, 300.0, 300.0, true},
    };
    return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
    for (const WorkloadSpec& spec : workloads()) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

namespace {

/// A scene rendered the way scene::AerialDataset renders its samples,
/// captioned by the keypoint-aware template (Fig. 3).
InferenceRequest scene_request(aero::util::Rng& rng, int id, int image_size) {
    const aero::text::SimulatedLlm llm =
        aero::text::SimulatedLlm::keypoint_aware();
    const aero::text::PromptTemplate prompt =
        aero::text::PromptTemplate::keypoint_aware();
    aero::serve::ValidationLimits limits;
    limits.image_size = image_size;
    // Redraw the rare scene whose caption the service would reject, so
    // every request of every workload is admissible.
    for (;;) {
        aero::scene::Scene scene = aero::scene::generate_random_scene(rng, id);
        InferenceRequest request;
        request.source_caption = llm.describe(scene, prompt, rng).text;
        request.target_caption = request.source_caption;
        aero::scene::RenderOptions options;
        options.image_size = image_size;
        options.texture_seed += static_cast<std::uint64_t>(id) * 7919;
        request.reference.image = aero::scene::render(scene, options);
        request.reference.gt_boxes =
            aero::scene::ground_truth_boxes(scene, image_size);
        request.reference.scene = std::move(scene);
        InferenceRequest probe = request;
        if (aero::serve::validate_request(probe, limits, nullptr) ==
            aero::serve::InvalidReason::kNone) {
            return request;
        }
    }
}

/// Gives `request` its task, and the task's region or strength.
void assign_task(InferenceRequest& request, TaskKind task,
                 aero::util::Rng& rng, int image_size) {
    request.task = task;
    request.strength = kEditStrength;
    if (task == TaskKind::kInpaint) {
        const int w = rng.uniform_int(image_size / 4, image_size / 2);
        const int h = rng.uniform_int(image_size / 4, image_size / 2);
        request.region.x = static_cast<float>(rng.uniform_int(0, image_size - w));
        request.region.y = static_cast<float>(rng.uniform_int(0, image_size - h));
        request.region.w = static_cast<float>(w);
        request.region.h = static_cast<float>(h);
    }
}

/// Fisher-Yates shuffle driven by the workload's Rng.
template <typename T>
void seeded_shuffle(std::vector<T>& items, aero::util::Rng& rng) {
    for (int i = static_cast<int>(items.size()) - 1; i > 0; --i) {
        std::swap(items[static_cast<std::size_t>(i)],
                  items[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    }
}

/// Distinct-scene requests with the workload's task mix, priorities
/// and deadline; scene ids start at `first_id`.
std::vector<InferenceRequest> distinct_requests(const WorkloadSpec& spec,
                                                int n, int first_id,
                                                aero::util::Rng& rng,
                                                int image_size) {
    // Exact shares in seed-shuffled order: generate/edit/inpaint 1:1:1
    // (or generate only), and round(batch_share * n) batch requests.
    std::vector<TaskKind> tasks(static_cast<std::size_t>(n));
    std::vector<Priority> priorities(static_cast<std::size_t>(n));
    const int batch = static_cast<int>(std::lround(spec.batch_share * n));
    for (int i = 0; i < n; ++i) {
        tasks[static_cast<std::size_t>(i)] =
            spec.mixed_tasks ? static_cast<TaskKind>(i % 3) : TaskKind::kGenerate;
        priorities[static_cast<std::size_t>(i)] =
            i < batch ? Priority::kBatch : Priority::kInteractive;
    }
    seeded_shuffle(tasks, rng);
    seeded_shuffle(priorities, rng);
    std::vector<InferenceRequest> requests;
    requests.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        InferenceRequest request = scene_request(rng, first_id + i, image_size);
        assign_task(request, tasks[static_cast<std::size_t>(i)], rng,
                    image_size);
        request.options.priority = priorities[static_cast<std::size_t>(i)];
        request.deadline_ms = spec.deadline_ms;
        request.seed = rng.next_u64();
        requests.push_back(std::move(request));
    }
    return requests;
}

std::uint64_t mix_seed(std::uint64_t base, long long i) {
    // splitmix64 finaliser over (base, i): distinct, seed-determined
    // request seeds without storing them.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

bool boxes_equal(const std::vector<aero::scene::BoundingBox>& a,
                 const std::vector<aero::scene::BoundingBox>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].x != b[i].x || a[i].y != b[i].y || a[i].w != b[i].w ||
            a[i].h != b[i].h || a[i].cls != b[i].cls) {
            return false;
        }
    }
    return true;
}

bool request_equal(const InferenceRequest& a, const InferenceRequest& b) {
    const std::vector<float>& pa = a.reference.image.data();
    const std::vector<float>& pb = b.reference.image.data();
    return a.task == b.task && a.source_caption == b.source_caption &&
           a.target_caption == b.target_caption && a.seed == b.seed &&
           a.strength == b.strength && a.deadline_ms == b.deadline_ms &&
           a.options.priority == b.options.priority &&
           a.region.x == b.region.x && a.region.y == b.region.y &&
           a.region.w == b.region.w && a.region.h == b.region.h &&
           pa.size() == pb.size() &&
           std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)) == 0 &&
           boxes_equal(a.reference.gt_boxes, b.reference.gt_boxes);
}

bool lists_equal(const std::vector<InferenceRequest>& a,
                 const std::vector<InferenceRequest>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!request_equal(a[i], b[i])) return false;
    }
    return true;
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds, int image_size) {
    aero::util::Rng rng(seed ^ 0xbe4c6a11d5f0e3a7ull);
    Inputs inputs;
    inputs.seed_base = rng.next_u64();
    if (spec.loop == LoopKind::kClosed) {
        for (int i = 0; i < spec.distinct_scenes; ++i) {
            InferenceRequest request = scene_request(rng, i, image_size);
            request.options.priority = spec.batch_share > 0.5
                                           ? Priority::kBatch
                                           : Priority::kInteractive;
            request.deadline_ms = spec.deadline_ms;
            inputs.timed.push_back(std::move(request));
        }
        // Warm-up: every scene twice, so each condition is cached before
        // timing starts (the 4 misses a long augmentation job pays once).
        for (long long i = 0; i < 2LL * spec.distinct_scenes; ++i) {
            InferenceRequest request = closed_loop_request(inputs, i);
            request.seed = mix_seed(~inputs.seed_base, i);
            inputs.warmup.push_back(std::move(request));
        }
        return inputs;
    }
    const int n = std::max(1, static_cast<int>(std::lround(spec.rate_per_s *
                                                           seconds)));
    inputs.timed = distinct_requests(spec, n, 1000, rng, image_size);
    // Exponential gaps conditioned on the count: n + 1 gaps scaled to
    // span `seconds`, so every seed offers exactly the same load with a
    // seed-specific burst pattern.
    std::vector<double> gaps(static_cast<std::size_t>(n) + 1);
    double total = 0.0;
    for (double& gap : gaps) {
        gap = -std::log(1.0 - rng.uniform());
        total += gap;
    }
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        t += gaps[static_cast<std::size_t>(i)] * seconds / total;
        inputs.arrivals_s.push_back(t);
    }
    inputs.warmup = distinct_requests(spec, 12, 100000, rng, image_size);
    for (InferenceRequest& request : inputs.warmup) request.deadline_ms = 0.0;
    return inputs;
}

InferenceRequest closed_loop_request(const Inputs& inputs, long long i) {
    const std::size_t n = inputs.timed.size();
    InferenceRequest request = inputs.timed[static_cast<std::size_t>(i) % n];
    request.seed = mix_seed(inputs.seed_base, i);
    return request;
}

bool inputs_equal(const Inputs& a, const Inputs& b) {
    // Closed-loop requests are a function of seed_base and the scene
    // templates, so comparing those covers every request ever sent.
    return a.seed_base == b.seed_base && a.arrivals_s == b.arrivals_s &&
           lists_equal(a.warmup, b.warmup) && lists_equal(a.timed, b.timed);
}

bool self_test_inputs(int image_size) {
    bool ok = true;
    for (const WorkloadSpec& spec : workloads()) {
        const Inputs a = make_inputs(spec, 11, 2.0, image_size);
        const Inputs b = make_inputs(spec, 11, 2.0, image_size);
        const Inputs c = make_inputs(spec, 12, 2.0, image_size);
        if (!inputs_equal(a, b)) {
            std::printf("self-test FAILED: %s: seed 11 gave two different "
                        "input sets\n",
                        spec.name);
            ok = false;
        }
        if (inputs_equal(a, c)) {
            std::printf("self-test FAILED: %s: seeds 11 and 12 gave the same "
                        "input set\n",
                        spec.name);
            ok = false;
        }
    }
    return ok;
}

}  // namespace perfbench
