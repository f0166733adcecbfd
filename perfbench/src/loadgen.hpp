#pragma once
// Load generation against one serve::InferenceService. The benchmark
// timestamps every request itself: an open loop measures from the
// scheduled send time (so a stalled generator charges its lateness to
// the requests it delayed), a closed loop from the submit call.

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/service.hpp"

namespace perfbench {

/// One request as the benchmark saw it. Times are seconds since the
/// start of its phase. The served image is checked on arrival and kept
/// only as a hash, so the benchmark's own memory stays out of the
/// program's peak RSS.
struct Record {
    long long index = 0;  ///< which request of the phase's input list
    double due_s = 0.0;   ///< scheduled send (closed loop: submit)
    double sent_s = 0.0;  ///< submit() returned
    double done_s = 0.0;  ///< terminal outcome observed
    aero::serve::Outcome outcome = aero::serve::Outcome::kFailed;
    aero::serve::DegradeRung rung = aero::serve::DegradeRung::kFull;
    int attempts = 0;
    double queue_ms = 0.0;
    /// kOk / kDegraded only: the image is a finite image_size^2 RGB.
    bool image_valid = false;
    std::uint64_t image_hash = 0;

    double latency_ms() const { return (done_s - due_s) * 1e3; }
    bool ok() const { return outcome == aero::serve::Outcome::kOk; }
    bool delivered() const {
        return ok() || outcome == aero::serve::Outcome::kDegraded;
    }
};

/// fnv1a64 over an image's pixels (bitwise identity check).
std::uint64_t image_hash(const aero::image::Image& image);

struct Phase {
    std::vector<Record> records;
    double wall_s = 0.0;      ///< phase start to the last terminal outcome
    double lag_ms_max = 0.0;  ///< open loop: latest send behind schedule
};

using RequestSource =
    std::function<aero::serve::InferenceRequest(long long index)>;

/// `clients` closed-loop clients, each submitting and waiting for its
/// reply, until `count` requests are sent (count > 0) or `seconds`
/// have passed. The i-th request sent is next_request(i).
Phase run_closed_loop(aero::serve::InferenceService& service, int clients,
                      long long count, double seconds,
                      const RequestSource& next_request, int image_size);

/// Open loop: one submit thread sends requests[i] at arrivals_s[i];
/// one collector thread polls the outstanding futures and timestamps
/// each completion itself.
Phase run_open_loop(aero::serve::InferenceService& service,
                    const std::vector<aero::serve::InferenceRequest>& requests,
                    const std::vector<double>& arrivals_s, int image_size);

}  // namespace perfbench
