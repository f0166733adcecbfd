#pragma once
// Metric records, order statistics and the benchmark's own spans.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    long long samples = 0;  ///< observations behind the value
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
inline double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double median(const std::vector<double>& values) {
    return quantile(values, 0.5);
}

inline double ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
}

/// Spans recorded from the benchmark's own files around calls into the
/// program's public API: name, parent, start and end. Kept in memory
/// and summarised when the run ends.
class Tracer {
public:
    struct Span {
        std::string name;
        int parent;  ///< index into spans(), -1 at the root
        double start_ms;
        double end_ms;
        double ms() const { return end_ms - start_ms; }
    };

    /// Opens a span under the innermost open one; returns its index.
    int begin(std::string name) {
        spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                          now_ms(), 0.0});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }
    void end() {
        spans_[static_cast<std::size_t>(open_.back())].end_ms = now_ms();
        open_.pop_back();
    }
    /// Times `fn` as one span and returns its result.
    template <typename Fn>
    auto time(std::string name, Fn&& fn) {
        begin(std::move(name));
        auto result = fn();
        end();
        return result;
    }

    const std::vector<Span>& spans() const { return spans_; }
    /// Durations of every span called `name`.
    std::vector<double> durations(const std::string& name) const {
        std::vector<double> out;
        for (const Span& span : spans_) {
            if (span.name == name) out.push_back(span.ms());
        }
        return out;
    }
    /// Summed duration of the direct children of span `index`.
    double children_ms(int index) const {
        double sum = 0.0;
        for (const Span& span : spans_) {
            if (span.parent == index) sum += span.ms();
        }
        return sum;
    }

    /// Per-name count, median duration and median self time (duration
    /// minus what direct children cover).
    void print_summary() const {
        std::vector<std::string> names;
        for (const Span& span : spans_) {
            if (std::find(names.begin(), names.end(), span.name) ==
                names.end()) {
                names.push_back(span.name);
            }
        }
        std::printf("%-28s %6s %12s %12s\n", "span", "count", "median_ms",
                    "self_ms");
        for (const std::string& name : names) {
            std::vector<double> total;
            std::vector<double> self;
            for (std::size_t i = 0; i < spans_.size(); ++i) {
                if (spans_[i].name != name) continue;
                total.push_back(spans_[i].ms());
                self.push_back(spans_[i].ms() -
                               children_ms(static_cast<int>(i)));
            }
            std::printf("%-28s %6zu %12.4f %12.4f\n", name.c_str(),
                        total.size(), median(total), median(self));
        }
    }

private:
    static double now_ms() {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::vector<Span> spans_;
    std::vector<int> open_;
};

}  // namespace perfbench
