#pragma once
// The traced run: replays a fixed sample of a workload's requests
// sequentially through the program's public calls, one benchmark span
// around each call, and times the UNet and the tensor kernels at the
// UNet's own shapes. Nothing inside src/ is instrumented for this.

#include <vector>

#include "core/pipeline.hpp"
#include "report.hpp"
#include "serve/request.hpp"

namespace perfbench {

/// Per-layer metrics of core, detect, embed, diffusion and tensor, plus
/// core.coverage_ratio and trace.span_overhead_us. `sample` supplies the
/// references, captions, regions and seeds; every request in it is
/// replayed as a generate, an edit and an inpaint.
std::vector<Metric> traced_layers(
    const aero::core::Substrate& substrate,
    const aero::core::AeroDiffusionPipeline& pipeline,
    const std::vector<aero::serve::InferenceRequest>& sample);

}  // namespace perfbench
