#pragma once
// Workload definitions and seeded input generation for the serve
// benchmark. A workload is a traffic mix against one
// serve::InferenceService; its inputs (scenes, keypoint captions,
// request seeds, inpaint regions and the open-loop arrival schedule)
// are a pure function of the workload seed and are built before any
// timing starts.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace perfbench {

enum class LoopKind { kClosed, kOpen };

struct WorkloadSpec {
    const char* name;
    const char* why;
    LoopKind loop;
    /// Closed loop: concurrent clients, each waiting for its reply.
    int clients;
    /// Open loop: fixed offered rate. Never re-derived from a measured
    /// capacity, so a faster program shows lower latency or more
    /// goodput, not more offered load.
    double rate_per_s;
    /// Closed loop: scenes the clients cycle through (few prompts, many
    /// samples). Open loop: 0, every request has its own scene.
    int distinct_scenes;
    /// generate/edit/inpaint in a 1:1:1 mix; otherwise generate only.
    bool mixed_tasks;
    /// Share of requests sent with Priority::kBatch.
    double batch_share;
    /// Per-request deadline handed to the service; 0 = none.
    double deadline_ms;
    /// Latency limit behind slo_attainment.
    double latency_limit_ms;
    /// ServiceConfig::overload.enabled.
    bool overload;
};

const std::vector<WorkloadSpec>& workloads();
/// Null when `name` names no workload.
const WorkloadSpec* find_workload(const std::string& name);

/// Edit strength of every edit request (the "closer viewpoint" edit).
inline constexpr float kEditStrength = 0.6f;

struct Inputs {
    /// Sent once each, closed loop, before timing: fills the condition
    /// cache (closed loop) and warms the arena and thread pool.
    std::vector<aero::serve::InferenceRequest> warmup;
    /// Open loop: one request per arrival. Closed loop: the scene
    /// templates the clients cycle through.
    std::vector<aero::serve::InferenceRequest> timed;
    /// Open loop: send times in seconds from the start of the phase.
    std::vector<double> arrivals_s;
    /// Closed loop: request seed of the i-th request sent.
    std::uint64_t seed_base = 0;
};

/// Builds every input of one run. `seconds` sizes the open-loop
/// schedule: exactly round(rate * seconds) arrivals with exponential
/// gaps, scaled so the schedule spans `seconds`.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds, int image_size);

/// Closed loop: the i-th request, a copy of scene template i mod n with
/// a fresh request seed.
aero::serve::InferenceRequest closed_loop_request(const Inputs& inputs,
                                                  long long i);

/// Field-by-field equality of two input sets (pixels included).
bool inputs_equal(const Inputs& a, const Inputs& b);

/// Self-test of input generation on every workload: one seed always
/// yields the same requests and schedule, two seeds differ. Prints a
/// line per failure; returns true when all hold.
bool self_test_inputs(int image_size);

}  // namespace perfbench
