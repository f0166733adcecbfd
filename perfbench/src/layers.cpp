#include "layers.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/condition.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using aero::autograd::Var;
using aero::serve::InferenceRequest;
using aero::serve::TaskKind;
using aero::tensor::Tensor;

/// Repetitions behind each UNet and kernel timing (median reported).
constexpr int kForwardReps = 15;
constexpr int kMatmulReps = 40;

const char* task_name(TaskKind task) {
    switch (task) {
        case TaskKind::kGenerate: return "generate";
        case TaskKind::kEdit: return "edit";
        case TaskKind::kInpaint: return "inpaint";
    }
    return "?";
}

bool same_pixels(const aero::image::Image& a, const aero::image::Image& b) {
    return a.data().size() == b.data().size() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/// The pipeline's latent inpaint mask (1 = regenerate) for a pixel
/// region, built as AeroDiffusionPipeline::generate_inpaint builds it.
Tensor inpaint_mask(const aero::scene::BoundingBox& region, int channels,
                    int s, int image_size) {
    const float scale = static_cast<float>(s) / static_cast<float>(image_size);
    Tensor mask({channels, s, s});
    const int x0 = std::clamp(static_cast<int>(region.x * scale), 0, s - 1);
    const int y0 = std::clamp(static_cast<int>(region.y * scale), 0, s - 1);
    const int x1 = std::clamp(
        static_cast<int>(std::ceil((region.x + region.w) * scale)), x0 + 1, s);
    const int y1 = std::clamp(
        static_cast<int>(std::ceil((region.y + region.h) * scale)), y0 + 1, s);
    for (int c = 0; c < channels; ++c) {
        for (int y = y0; y < y1; ++y) {
            for (int x = x0; x < x1; ++x) mask[(c * s + y) * s + x] = 1.0f;
        }
    }
    return mask;
}

/// One request through the pipeline entry point (direct) and again
/// through the public calls it is made of (parts), each call under its
/// own span. Returns whether both paths gave the same pixels.
bool replay_task(Tracer& tracer, const aero::core::Substrate& substrate,
                 const aero::core::AeroDiffusionPipeline& pipeline,
                 const InferenceRequest& request, TaskKind task) {
    const std::string name = task_name(task);
    const aero::scene::AerialSample& ref = request.reference;
    const int image_size = substrate.budget.image_size;
    // Requests that are not inpaints carry no region; give them the
    // centre quarter of the frame.
    aero::scene::BoundingBox region = request.region;
    if (region.w <= 0.0f || region.h <= 0.0f) {
        region.x = region.y = static_cast<float>(image_size) / 4.0f;
        region.w = region.h = static_cast<float>(image_size) / 2.0f;
    }
    const aero::core::PipelineConfig& config = pipeline.config();
    const auto& ae = *substrate.autoencoder;
    const int channels = ae.config().latent_channels;
    const int s = ae.config().latent_size();

    // Direct: the condition cache is bypassed so both paths encode.
    aero::core::GenerateControl control;
    control.bypass_condition_cache = true;
    aero::util::Rng direct_rng(request.seed);
    const aero::image::Image direct = tracer.time("core." + name, [&] {
        switch (task) {
            case TaskKind::kEdit:
                return pipeline.generate_edit(
                    ref, request.source_caption, request.target_caption,
                    request.strength, direct_rng, -1, &control);
            case TaskKind::kInpaint:
                return pipeline.generate_inpaint(
                    ref, region, request.source_caption,
                    request.target_caption, direct_rng, -1, &control);
            case TaskKind::kGenerate: break;
        }
        return pipeline.generate(ref, request.source_caption,
                                 request.target_caption, direct_rng, -1,
                                 &control);
    });

    aero::util::Rng parts_rng(request.seed);
    tracer.begin("parts." + name);
    const aero::core::ConditionFeatures features =
        tracer.time("core.features", [&] {
            return aero::core::compute_condition_features(
                substrate, ref, request.source_caption,
                request.target_caption, config.use_object_detection,
                config.max_rois);
        });
    const Tensor cond = tracer.time("core.encode", [&] {
        return pipeline.condition_encoder().encode(features).value();
    });
    aero::diffusion::SamplerJob job;
    job.condition_tokens = cond;
    job.config.inference_steps = substrate.budget.ddim_steps;
    job.config.guidance_scale = substrate.budget.guidance_scale;
    job.config.parameterization = config.parameterization;
    job.rng = &parts_rng;
    if (task == TaskKind::kGenerate) {
        job.kind = aero::diffusion::SamplerJob::Kind::kSample;
        job.shape = {channels, s, s};
    } else {
        job.source = tracer.time("diffusion.ae_encode", [&] {
            return aero::tensor::scale(ae.encode_image(ref.image),
                                       substrate.latent_scale);
        });
        if (task == TaskKind::kEdit) {
            job.kind = aero::diffusion::SamplerJob::Kind::kEdit;
            job.strength = request.strength;
        } else {
            job.kind = aero::diffusion::SamplerJob::Kind::kInpaint;
            const auto clamped =
                aero::core::AeroDiffusionPipeline::clamp_region(
                    region, image_size, nullptr);
            job.mask = inpaint_mask(clamped.value_or(region), channels, s,
                                    image_size);
        }
    }
    const Tensor latent = tracer.time(name + ".sample", [&] {
        return aero::diffusion::run_sampler_job(
            pipeline.unet(), pipeline.noise_schedule(), std::move(job));
    });
    const aero::image::Image parts = tracer.time("diffusion.ae_decode", [&] {
        return ae.decode_latent(
            aero::tensor::scale(latent, 1.0f / substrate.latent_scale));
    });
    tracer.end();
    return same_pixels(direct, parts);
}

/// Median seconds of `reps` calls to fn.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        times.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    return median(times);
}

struct ConvShape {
    int cin, cout, size, k;
};

/// Every convolution of one UNet forward, derived from its config and
/// the latent edge length (see diffusion/unet.cpp).
std::vector<ConvShape> unet_conv_shapes(const aero::diffusion::UNetConfig& c,
                                        int s) {
    const int b = c.base_channels;
    return {
        {c.in_channels, b, s, 3},                        // conv_in
        {b, b, s, 3},         {b, b, s, 3},              // down_block
        {b, 2 * b, s / 2, 3}, {2 * b, 2 * b, s / 2, 3},  // mid_block_in
        {b, 2 * b, s / 2, 1},                            // its skip
        {2 * b, 2 * b, s / 2, 3}, {2 * b, 2 * b, s / 2, 3},  // mid_block_out
        {3 * b, b, s, 3},     {b, b, s, 3},              // up_block
        {3 * b, b, s, 1},                                // its skip
        {b, c.in_channels, s, 3},                        // conv_out
    };
}

/// GFLOP/s of the UNet's convolutions at batch n. FLOPs and bytes are
/// computed from the shapes (2 per multiply-add; input, weight and
/// output read or written once), not counted by hardware.
double conv_gflops(const std::vector<ConvShape>& shapes, int n) {
    aero::util::Rng rng(0xc0);
    struct Case {
        Tensor input, weight, bias;
        aero::tensor::Conv2dSpec spec;
    };
    std::vector<Case> cases;
    double flops = 0.0;
    double bytes = 0.0;
    for (const ConvShape& c : shapes) {
        cases.push_back({Tensor::randn({n, c.cin, c.size, c.size}, rng),
                         Tensor::randn({c.cout, c.cin, c.k, c.k}, rng),
                         Tensor::randn({c.cout}, rng),
                         {1, c.k / 2}});
        flops += 2.0 * n * c.cout * c.size * c.size * c.cin * c.k * c.k;
        bytes += 4.0 * (n * c.cin * c.size * c.size +
                        c.cout * c.cin * c.k * c.k + n * c.cout * c.size * c.size);
    }
    const double seconds = median_seconds(kForwardReps, [&] {
        for (const Case& c : cases) {
            (void)aero::tensor::conv2d(c.input, c.weight, c.bias, c.spec);
        }
    });
    std::printf("tensor: UNet convs at batch %d: %.3f MFLOP, %.3f MB moved "
                "(computed from shapes), %.4f ms\n",
                n, flops / 1e6, bytes / 1e6, seconds * 1e3);
    return flops / seconds / 1e9;
}

/// GFLOP/s of the matmuls of one cross-attention call (condition
/// projection, q/k/v/o projections, per-head scores and mixing), with
/// `k` condition tokens; FLOPs computed from the shapes.
double attention_matmul_gflops(const aero::diffusion::UNetConfig& c, int s,
                               int k) {
    const int t = (s / 2) * (s / 2);
    const int d = 2 * c.base_channels;
    const int hd = d / c.heads;
    std::vector<std::array<int, 3>> shapes = {
        {k, c.cond_dim, d}, {t, d, d}, {k, d, d}, {k, d, d}, {t, d, d}};
    for (int h = 0; h < c.heads; ++h) {
        shapes.push_back({t, hd, k});
        shapes.push_back({t, k, hd});
    }
    aero::util::Rng rng(0x3a7);
    std::vector<std::pair<Tensor, Tensor>> cases;
    double flops = 0.0;
    for (const auto& [m, inner, n] : shapes) {
        cases.emplace_back(Tensor::randn({m, inner}, rng),
                           Tensor::randn({inner, n}, rng));
        flops += 2.0 * m * inner * n;
    }
    const double seconds = median_seconds(kMatmulReps, [&] {
        for (const auto& [a, b] : cases) (void)aero::tensor::matmul(a, b);
    });
    std::printf("tensor: cross-attention matmuls (%d tokens x %d condition "
                "rows): %.3f MFLOP (computed from shapes), %.4f ms\n",
                t, k, flops / 1e6, seconds * 1e3);
    return flops / seconds / 1e9;
}

/// Per-row milliseconds of one UNet forward over n CFG rows
/// (conditional and unconditional alternating, as the sampler packs
/// them).
double unet_row_ms(const aero::core::AeroDiffusionPipeline& pipeline,
                   const Tensor& cond, int channels, int s, int n) {
    aero::util::Rng rng(0x0e7 + static_cast<std::uint64_t>(n));
    const Tensor z = Tensor::randn({n, channels, s, s}, rng);
    const int total = pipeline.noise_schedule().steps();
    const std::vector<int> t(static_cast<std::size_t>(n), total / 2);
    std::vector<Tensor> conds;
    for (int i = 0; i < n; ++i) conds.push_back(i % 2 == 0 ? cond : Tensor());
    const double seconds = median_seconds(kForwardReps, [&] {
        (void)pipeline.unet().forward(Var::constant(z), t, total, conds);
    });
    return seconds * 1e3 / n;
}

}  // namespace

std::vector<Metric> traced_layers(
    const aero::core::Substrate& substrate,
    const aero::core::AeroDiffusionPipeline& pipeline,
    const std::vector<InferenceRequest>& sample) {
    Tracer tracer;
    long long matched = 0;
    long long replayed = 0;
    for (const InferenceRequest& request : sample) {
        for (const TaskKind task :
             {TaskKind::kGenerate, TaskKind::kEdit, TaskKind::kInpaint}) {
            if (replay_task(tracer, substrate, pipeline, request, task)) {
                ++matched;
            }
            ++replayed;
        }
        const aero::image::Image& image = request.reference.image;
        tracer.time("detect.detect",
                    [&] { return substrate.detector->detect(image); });
        tracer.time("embed.clip_image",
                    [&] { return substrate.clip->embed_image_eval(image); });
        tracer.time("embed.clip_text", [&] {
            return substrate.clip->embed_text_eval(request.source_caption);
        });
    }
    tracer.print_summary();
    std::printf("traced: %lld of %lld decomposed replays equal the pipeline "
                "entry point bitwise\n",
                matched, replayed);

    // Coverage: the decomposed parts against the directly timed calls.
    double parts_ms = 0.0;
    double direct_ms = 0.0;
    const std::vector<Tracer::Span>& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name.rfind("parts.", 0) == 0) {
            parts_ms += tracer.children_ms(static_cast<int>(i));
        } else if (spans[i].name.rfind("core.", 0) == 0 &&
                   spans[i].parent == -1) {
            direct_ms += spans[i].ms();
        }
    }

    // Overhead of one benchmark span (begin + end around nothing).
    Tracer probe;
    const int probes = 20000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < probes; ++i) {
        probe.begin("probe");
        probe.end();
    }
    const double span_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        probes;

    const auto& ae = substrate.autoencoder->config();
    const int s = ae.latent_size();
    const Tensor cond =
        pipeline.condition_encoder()
            .encode(aero::core::compute_condition_features(
                substrate, sample.front().reference,
                sample.front().source_caption, sample.front().target_caption,
                pipeline.config().use_object_detection,
                pipeline.config().max_rois))
            .value();
    const aero::diffusion::UNetConfig& unet = pipeline.unet().config();
    const std::vector<ConvShape> convs = unet_conv_shapes(unet, s);

    const long long n = static_cast<long long>(sample.size());
    const auto med = [&](const std::string& name) {
        return median(tracer.durations(name));
    };
    std::vector<double> ae_encode = tracer.durations("diffusion.ae_encode");
    return {
        {"core.generate_ms", med("core.generate"), "ms", n},
        {"core.edit_ms", med("core.edit"), "ms", n},
        {"core.inpaint_ms", med("core.inpaint"), "ms", n},
        {"core.features_ms", med("core.features"), "ms", 3 * n},
        {"core.encode_ms", med("core.encode"), "ms", 3 * n},
        {"core.coverage_ratio", ratio(parts_ms, direct_ms), "ratio", 3 * n},
        {"detect.detect_ms", med("detect.detect"), "ms", n},
        {"embed.clip_image_ms", med("embed.clip_image"), "ms", n},
        {"embed.clip_text_ms", med("embed.clip_text"), "ms", n},
        {"diffusion.sample_ms", med("generate.sample"), "ms", n},
        {"diffusion.unet_row_ms_b2",
         unet_row_ms(pipeline, cond, ae.latent_channels, s, 2), "ms",
         kForwardReps},
        {"diffusion.unet_row_ms_b8",
         unet_row_ms(pipeline, cond, ae.latent_channels, s, 8), "ms",
         kForwardReps},
        {"diffusion.ae_encode_ms", median(ae_encode), "ms",
         static_cast<long long>(ae_encode.size())},
        {"diffusion.ae_decode_ms", med("diffusion.ae_decode"), "ms", 3 * n},
        {"tensor.conv2d_gflops_b2", conv_gflops(convs, 2), "GFLOP/s",
         kForwardReps},
        {"tensor.conv2d_gflops_b8", conv_gflops(convs, 8), "GFLOP/s",
         kForwardReps},
        {"tensor.matmul_gflops",
         attention_matmul_gflops(unet, s, cond.dim(0)), "GFLOP/s",
         kMatmulReps},
        {"trace.span_overhead_us", span_us, "us", probes},
    };
}

}  // namespace perfbench
