// Serve benchmark of the AeroDiffusion reproduction. One process builds
// the model, starts one serve::InferenceService, drives it with one of
// the workloads in workload.cpp for --seconds, checks every output, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) as the last line of stdout, one JSON object. See
// perfbench/README.md.
//
//   aerobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   aerobench --selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "core/substrate.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "mem/arena.hpp"
#include "mem/cache.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using aero::serve::DegradeRung;
using aero::serve::Outcome;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 2;
/// Requests replayed sequentially by the correctness gate.
constexpr std::size_t kReplays = 8;
/// Requests replayed by the traced run (each as all three tasks).
constexpr std::size_t kTraced = 4;
constexpr double kMiB = 1024.0 * 1024.0;

/// The model every workload and seed measures. Inference shapes (image
/// size, schedule, DDIM steps, guidance, UNet width) and the detector
/// (whose box count sets the ROI work per request) are the library
/// defaults; the autoencoder and CLIP train for fewer steps than the
/// default budget so set-up can be repeated within a run.
aero::core::Budget bench_budget() {
    aero::core::Budget budget;
    budget.ae_steps = 60;
    budget.clip_steps = 60;
    return budget;
}

aero::serve::ServiceConfig service_config(const WorkloadSpec& spec,
                                          int image_size) {
    aero::serve::ServiceConfig config;
    config.workers = 4;
    config.limits.image_size = image_size;
    config.rate_limit = aero::util::RateLimitConfig{};
    if (spec.overload) {
        // Fixed targets sized to the 300 ms deadline, not re-derived
        // from a measured capacity.
        config.overload.enabled = true;
        config.overload.latency_target_ms = 250.0;
        config.overload.codel_target_ms = 100.0;
        config.overload.max_limit = config.workers;
    }
    return config;
}

struct Model {
    std::unique_ptr<aero::scene::AerialDataset> dataset;
    aero::core::Substrate substrate;
    std::unique_ptr<aero::core::AeroDiffusionPipeline> pipeline;
    std::unique_ptr<aero::serve::InferenceService> service;
};

struct SetupTimes {
    std::vector<double> dataset_s, substrate_s, pipeline_s, total_s;
};

/// One full set-up, timed: dataset, substrate training, pipeline
/// construction and service start (accepting on return).
std::unique_ptr<Model> build_model(const aero::serve::ServiceConfig& config,
                                   SetupTimes& times) {
    using Clock = std::chrono::steady_clock;
    const auto since = [](Clock::time_point t) {
        return std::chrono::duration<double>(Clock::now() - t).count();
    };
    const aero::core::Budget budget = bench_budget();
    const Clock::time_point start = Clock::now();
    auto model = std::make_unique<Model>();
    aero::scene::DatasetConfig dataset;
    dataset.train_size = budget.train_images;
    dataset.test_size = budget.test_images;
    dataset.image_size = budget.image_size;
    dataset.seed = 2025;
    model->dataset = std::make_unique<aero::scene::AerialDataset>(dataset);
    times.dataset_s.push_back(since(start));

    Clock::time_point t = Clock::now();
    aero::util::Rng rng(2025);
    model->substrate = aero::core::build_substrate(*model->dataset, budget, rng);
    times.substrate_s.push_back(since(t));

    t = Clock::now();
    aero::util::Rng model_rng(7);
    model->pipeline = std::make_unique<aero::core::AeroDiffusionPipeline>(
        aero::core::PipelineConfig::aero_diffusion(), model->substrate,
        model_rng);
    model->service =
        std::make_unique<aero::serve::InferenceService>(*model->pipeline, config);
    times.pipeline_s.push_back(since(t));
    times.total_s.push_back(since(start));
    return model;
}

/// Counters read around the timed phase; deltas are per-layer metrics.
struct Snapshot {
    aero::serve::ServiceStats serve;
    aero::mem::ArenaStats arena;
    aero::mem::CacheStats cache;
    aero::util::PoolStats pool;
    double batch_rows = 0.0;     ///< aero_batch_size histogram sum
    long long batch_count = 0;   ///< aero_batch_size histogram count
    long long batch_steps = 0;   ///< aero_batch_steps_total
};

Snapshot snapshot(const aero::serve::InferenceService& service) {
    Snapshot s;
    s.serve = service.stats();
    s.arena = aero::mem::Arena::instance().stats();
    s.cache = aero::mem::cache_stats();
    s.pool = aero::util::ThreadPool::instance().stats();
    for (const aero::obs::MetricSample& m :
         aero::obs::MetricsRegistry::instance().collect()) {
        if (m.name == "aero_batch_size") {
            s.batch_rows = m.histogram.sum;
            s.batch_count = m.histogram.count;
        } else if (m.name == "aero_batch_steps_total") {
            s.batch_steps = m.counter;
        }
    }
    return s;
}

/// Serve, mem and util metrics of the timed phase, as deltas of public
/// stats read around it, plus the load generator's lag.
std::vector<Metric> phase_layer_metrics(const Snapshot& s0, const Snapshot& s1,
                                        const Phase& timed) {
    const auto delta = [](long long a, long long b) {
        return static_cast<double>(b - a);
    };
    const double terminal = delta(s0.serve.terminal(), s1.serve.terminal());
    const long long terminal_n = static_cast<long long>(terminal);
    const auto share = [&](Outcome o) {
        return ratio(delta(s0.serve.outcome(o), s1.serve.outcome(o)), terminal);
    };
    const int full = static_cast<int>(DegradeRung::kFull);
    std::vector<double> queue_ms;
    long long delivered = 0;
    for (const Record& r : timed.records) {
        if (r.ok()) queue_ms.push_back(r.queue_ms);
        delivered += r.delivered() ? 1 : 0;
    }
    const long long ok = static_cast<long long>(queue_ms.size());
    const double batch_count = delta(s0.batch_count, s1.batch_count);
    const double cache_hits = delta(s0.cache.hits, s1.cache.hits);
    const double cache_lookups =
        cache_hits + delta(s0.cache.misses, s1.cache.misses);
    const double arena_requests = delta(s0.arena.requests, s1.arena.requests);
    const double pool_tasks = delta(s0.pool.tasks, s1.pool.tasks);
    const double pool_chunks = delta(s0.pool.chunks, s1.pool.chunks);
    return {
        {"serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms", ok},
        {"serve.queue_ms_p90", quantile(queue_ms, 0.9), "ms", ok},
        {"serve.batch_occupancy_mean",
         ratio(s1.batch_rows - s0.batch_rows, batch_count), "requests",
         static_cast<long long>(batch_count)},
        {"serve.batch_steps", delta(s0.batch_steps, s1.batch_steps), "count",
         1},
        {"serve.shed_share", share(Outcome::kShed), "ratio", terminal_n},
        {"serve.timeout_share", share(Outcome::kTimeout), "ratio", terminal_n},
        {"serve.degraded_share", share(Outcome::kDegraded), "ratio",
         terminal_n},
        {"serve.rung_full_share",
         ratio(delta(s0.serve.by_rung[full], s1.serve.by_rung[full]), terminal),
         "ratio", terminal_n},
        {"serve.retries", delta(s0.serve.retries, s1.serve.retries), "count",
         terminal_n},
        {"mem.cond_cache_hit_share", ratio(cache_hits, cache_lookups), "ratio",
         static_cast<long long>(cache_lookups)},
        {"mem.arena_hit_share",
         ratio(delta(s0.arena.hits, s1.arena.hits), arena_requests), "ratio",
         static_cast<long long>(arena_requests)},
        {"mem.arena_resident_mb",
         static_cast<double>(s1.arena.resident_bytes) / kMiB, "MB", 1},
        {"util.pool_tasks_per_image",
         ratio(pool_tasks, static_cast<double>(delivered)), "tasks",
         delivered},
        {"util.pool_caller_share",
         ratio(delta(s0.pool.caller_chunks, s1.pool.caller_chunks),
               pool_chunks),
         "ratio", static_cast<long long>(pool_chunks)},
        {"util.pool_queue_wait_ms_per_task",
         ratio(delta(s0.pool.queue_wait_ns, s1.pool.queue_wait_ns) / 1e6,
               pool_tasks),
         "ms", static_cast<long long>(pool_tasks)},
        {"loadgen.lag_ms_max", timed.lag_ms_max, "ms",
         static_cast<long long>(timed.records.size())},
    };
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMiB;
        }
    }
    return 0.0;
}

/// Indices of up to `n` kOk records, evenly spaced over the phase.
std::vector<std::size_t> ok_sample(const std::vector<Record>& records,
                                   std::size_t n) {
    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].ok()) ok.push_back(i);
    }
    std::vector<std::size_t> picked;
    const std::size_t take = std::min(n, ok.size());
    for (std::size_t k = 0; k < take; ++k) {
        picked.push_back(ok[k * ok.size() / take]);
    }
    return picked;
}

/// Sequential replay of a served request with the request seed and the
/// GenerateControl knobs of the rung the service reported.
aero::image::Image replay(const aero::core::AeroDiffusionPipeline& pipeline,
                          const aero::serve::ServiceConfig& config,
                          const aero::serve::InferenceRequest& request,
                          const Record& record) {
    aero::core::GenerateControl control;
    if (record.rung >= DegradeRung::kReducedSteps) {
        control.max_steps = std::max(1, config.overload.reduced_steps);
    }
    control.half_resolution = record.rung >= DegradeRung::kReducedResolution;
    // The service seeds attempt k with seed + 0xd1b54a32d192ed03 * k.
    aero::util::Rng rng(request.seed +
                        0xd1b54a32d192ed03ull *
                            static_cast<std::uint64_t>(record.attempts));
    switch (request.task) {
        case aero::serve::TaskKind::kEdit:
            return pipeline.generate_edit(
                request.reference, request.source_caption,
                request.target_caption, request.strength, rng, -1, &control);
        case aero::serve::TaskKind::kInpaint:
            return pipeline.generate_inpaint(
                request.reference, request.region, request.source_caption,
                request.target_caption, rng, -1, &control);
        case aero::serve::TaskKind::kGenerate: break;
    }
    return pipeline.generate(request.reference, request.source_caption,
                             request.target_caption, rng, -1, &control);
}

void print_phase(const char* name, const std::vector<Record>& records) {
    long long ok = 0;
    for (const Record& r : records) ok += r.ok() ? 1 : 0;
    std::printf("phase %-8s sent %5zu  succeeded %5lld  not ok %5lld\n", name,
                records.size(), ok,
                static_cast<long long>(records.size()) - ok);
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0') return false;
    }
    return args.selftest ||
           (!args.workload.empty() && args.seconds > 0.0 &&
            (args.trace == 0 || args.trace == 1));
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: aerobench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> | --selftest\n");
        return 2;
    }
    const aero::core::Budget budget = bench_budget();
    const int image_size = budget.image_size;
    if (!self_test_inputs(image_size)) return 1;
    if (args.selftest) {
        std::printf("self-test passed: inputs are a function of the seed\n");
        return 0;
    }
    const WorkloadSpec* spec = find_workload(args.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    std::printf("workload %s (seed %llu, %.0f s): %s\n", spec->name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                spec->why);

    // Inputs first, outside every timer.
    const Inputs inputs =
        make_inputs(*spec, args.seed, args.seconds, image_size);
    const aero::serve::ServiceConfig config =
        service_config(*spec, image_size);

    SetupTimes setup;
    std::unique_ptr<Model> model;
    for (int i = 0; i < kSetups; ++i) {
        model.reset();
        model = build_model(config, setup);
        std::printf("setup %d: %.3f s (dataset %.3f, substrate %.3f, "
                    "pipeline+service %.3f)\n",
                    i, setup.total_s.back(), setup.dataset_s.back(),
                    setup.substrate_s.back(), setup.pipeline_s.back());
    }
    aero::serve::InferenceService& service = *model->service;
    const aero::core::AeroDiffusionPipeline& pipeline = *model->pipeline;

    const Phase warmup = run_closed_loop(
        service, 4, static_cast<long long>(inputs.warmup.size()), 0.0,
        [&](long long i) { return inputs.warmup[static_cast<std::size_t>(i)]; },
        image_size);
    print_phase("warmup", warmup.records);

    // The request behind a timed-phase record.
    const RequestSource timed_request = [&](long long i) {
        return spec->loop == LoopKind::kClosed
                   ? closed_loop_request(inputs, i)
                   : inputs.timed[static_cast<std::size_t>(i)];
    };
    const Snapshot before = snapshot(service);
    const Phase timed =
        spec->loop == LoopKind::kClosed
            ? run_closed_loop(service, spec->clients, 0, args.seconds,
                              timed_request, image_size)
            : run_open_loop(service, inputs.timed, inputs.arrivals_s,
                            image_size);
    const Snapshot after = snapshot(service);
    print_phase("timed", timed.records);
    service.stop();

    // ---- correctness gate ------------------------------------------------
    bool correct = true;
    const aero::serve::ServiceStats final_stats = service.stats();
    if (!after.serve.balanced() || !final_stats.balanced()) {
        std::printf("GATE: ServiceStats not balanced (submitted %lld, "
                    "terminal %lld)\n",
                    final_stats.submitted, final_stats.terminal());
        correct = false;
    }
    long long bad_images = 0;
    for (const std::vector<Record>* records :
         {&warmup.records, &timed.records}) {
        for (const Record& r : *records) {
            if (r.delivered() && !r.image_valid) ++bad_images;
        }
    }
    if (bad_images > 0) {
        std::printf("GATE: %lld delivered images are not finite %dx%d RGB\n",
                    bad_images, image_size, image_size);
        correct = false;
    }
    const std::vector<std::size_t> replayed = ok_sample(timed.records, kReplays);
    long long replay_mismatch = 0;
    for (const std::size_t i : replayed) {
        const Record& record = timed.records[i];
        const aero::image::Image again = replay(
            pipeline, config, timed_request(record.index), record);
        if (image_hash(again) != record.image_hash) ++replay_mismatch;
    }
    std::printf("phase replay   sent %5zu  succeeded %5lld  not ok %5lld "
                "(bitwise equal to the served image)\n",
                replayed.size(),
                static_cast<long long>(replayed.size()) - replay_mismatch,
                replay_mismatch);
    if (replayed.empty() || replay_mismatch > 0) {
        std::printf("GATE: sequential replay differs from the served output "
                    "(or nothing to replay)\n");
        correct = false;
    }

    // ---- metrics -----------------------------------------------------------
    const std::vector<Record>& records = timed.records;
    const long long sent = static_cast<long long>(records.size());
    long long ok = 0;
    long long within_limit = 0;
    long long failed = 0;
    std::vector<double> latencies;
    for (const Record& r : records) {
        if (r.outcome == Outcome::kFailed || r.outcome == Outcome::kInvalid) {
            ++failed;
        }
        if (!r.ok()) continue;
        ++ok;
        latencies.push_back(r.latency_ms());
        if (r.latency_ms() <= spec->latency_limit_ms) ++within_limit;
    }

    // Human-readable breakdown by task kind (not a reported metric).
    for (const aero::serve::TaskKind task :
         {aero::serve::TaskKind::kGenerate, aero::serve::TaskKind::kEdit,
          aero::serve::TaskKind::kInpaint}) {
        std::vector<double> task_latencies;
        for (const Record& r : records) {
            if (r.ok() && timed_request(r.index).task == task) {
                task_latencies.push_back(r.latency_ms());
            }
        }
        if (task_latencies.empty()) continue;
        std::printf("latency %-8s ok %5zu  p50 %8.2f ms  p90 %8.2f ms  "
                    "max %8.2f ms\n",
                    aero::serve::task_kind_name(task), task_latencies.size(),
                    quantile(task_latencies, 0.5),
                    quantile(task_latencies, 0.9),
                    quantile(task_latencies, 1.0));
    }

    std::vector<Metric> metrics;
    if (args.trace == 0) {
        metrics = {
            {"setup_s", median(setup.total_s), "s", kSetups},
            {"images_per_s", ratio(static_cast<double>(ok), timed.wall_s),
             "img/s", ok},
            {"latency_p50_ms", quantile(latencies, 0.5), "ms", ok},
            {"latency_p90_ms", quantile(latencies, 0.9), "ms", ok},
            {"slo_attainment",
             ratio(static_cast<double>(within_limit), static_cast<double>(sent)),
             "ratio", sent},
            {"ok_share",
             ratio(static_cast<double>(ok), static_cast<double>(sent)),
             "ratio", sent},
            {"peak_rss_mb", peak_rss_mb(), "MB", 1},
        };
    } else {
        metrics = phase_layer_metrics(before, after, timed);
        metrics.push_back(
            {"scene.dataset_s", median(setup.dataset_s), "s", kSetups});
        metrics.push_back({"core.substrate_build_s", median(setup.substrate_s),
                           "s", kSetups});
        metrics.push_back(
            {"core.pipeline_init_s", median(setup.pipeline_s), "s", kSetups});
        // The traced replay: a fixed sample of the workload's requests,
        // evenly spaced over its input list.
        std::vector<aero::serve::InferenceRequest> sample;
        const std::size_t n = inputs.timed.size();
        for (std::size_t k = 0; k < std::min(kTraced, n); ++k) {
            sample.push_back(
                timed_request(static_cast<long long>(k * n / kTraced)));
        }
        for (Metric& m : traced_layers(model->substrate, pipeline, sample)) {
            metrics.push_back(std::move(m));
        }
    }

    std::printf("%-34s %18s %-8s %s\n", "metric", "value", "unit", "samples");
    for (const Metric& m : metrics) {
        std::printf("%-34s %18.6f %-8s %lld\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(sent);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                json_number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
