#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <thread>

#include "util/hash.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Copies what the benchmark needs out of a result and checks the
/// delivered image, so the result (and its pixels) can be dropped.
void take_result(Record& record, aero::serve::RequestResult result,
                 int image_size) {
    record.outcome = result.outcome;
    record.rung = result.rung;
    record.attempts = result.attempts;
    record.queue_ms = result.queue_ms;
    if (!record.delivered()) return;
    const aero::image::Image& image = result.image;
    bool valid = image.width() == image_size && image.height() == image_size &&
                 image.data().size() ==
                     static_cast<std::size_t>(image_size * image_size * 3);
    for (const float v : image.data()) valid = valid && std::isfinite(v);
    record.image_valid = valid;
    record.image_hash = image_hash(image);
}

void finish_phase(Phase& phase) {
    std::sort(phase.records.begin(), phase.records.end(),
              [](const Record& a, const Record& b) { return a.index < b.index; });
    for (const Record& record : phase.records) {
        phase.wall_s = std::max(phase.wall_s, record.done_s);
    }
}

}  // namespace

std::uint64_t image_hash(const aero::image::Image& image) {
    return aero::util::fnv1a64(image.data().data(),
                               image.data().size() * sizeof(float));
}

Phase run_closed_loop(aero::serve::InferenceService& service, int clients,
                      long long count, double seconds,
                      const RequestSource& next_request, int image_size) {
    const Clock::time_point start = Clock::now();
    std::atomic<long long> next{0};
    std::mutex mutex;
    Phase phase;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            std::vector<Record> mine;
            for (;;) {
                if (count <= 0 && seconds_since(start) >= seconds) break;
                const long long i = next.fetch_add(1);
                if (count > 0 && i >= count) break;
                Record record;
                record.index = i;
                aero::serve::InferenceRequest request = next_request(i);
                record.due_s = seconds_since(start);
                std::future<aero::serve::RequestResult> future =
                    service.submit(std::move(request));
                record.sent_s = seconds_since(start);
                aero::serve::RequestResult result = future.get();
                record.done_s = seconds_since(start);
                take_result(record, std::move(result), image_size);
                mine.push_back(std::move(record));
            }
            const std::lock_guard<std::mutex> lock(mutex);
            for (Record& record : mine) {
                phase.records.push_back(std::move(record));
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    finish_phase(phase);
    return phase;
}

Phase run_open_loop(aero::serve::InferenceService& service,
                    const std::vector<aero::serve::InferenceRequest>& requests,
                    const std::vector<double>& arrivals_s, int image_size) {
    struct Pending {
        std::size_t index;
        std::future<aero::serve::RequestResult> future;
    };
    Phase phase;
    phase.records.resize(requests.size());
    std::mutex mutex;
    std::vector<Pending> handed_over;  // guarded by mutex
    bool sender_done = false;          // guarded by mutex

    const Clock::time_point start = Clock::now();
    std::thread sender([&] {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(
                                             arrivals_s[i]));
            std::this_thread::sleep_until(due);
            Record& record = phase.records[i];
            record.index = static_cast<long long>(i);
            record.due_s = arrivals_s[i];
            std::future<aero::serve::RequestResult> future =
                service.submit(requests[i]);
            record.sent_s = seconds_since(start);
            const std::lock_guard<std::mutex> lock(mutex);
            handed_over.push_back({i, std::move(future)});
        }
        const std::lock_guard<std::mutex> lock(mutex);
        sender_done = true;
    });
    std::thread collector([&] {
        std::vector<Pending> outstanding;
        for (;;) {
            bool done = false;
            {
                const std::lock_guard<std::mutex> lock(mutex);
                for (Pending& pending : handed_over) {
                    outstanding.push_back(std::move(pending));
                }
                handed_over.clear();
                done = sender_done;
            }
            if (done && outstanding.empty()) break;
            const double now = seconds_since(start);
            std::size_t kept = 0;
            for (Pending& pending : outstanding) {
                if (pending.future.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    Record& record = phase.records[pending.index];
                    record.done_s = now;
                    take_result(record, pending.future.get(), image_size);
                } else {
                    outstanding[kept++] = std::move(pending);
                }
            }
            outstanding.resize(kept);
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    });
    sender.join();
    collector.join();
    for (const Record& record : phase.records) {
        phase.lag_ms_max =
            std::max(phase.lag_ms_max, (record.sent_s - record.due_s) * 1e3);
    }
    finish_phase(phase);
    return phase;
}

}  // namespace perfbench
