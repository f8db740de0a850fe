// Shared plumbing of the swarmavail benchmark: clocks, process resource
// readings, percentiles, the seeded input generator, the in-memory span
// recorder of the traced run, and the result record every workload fills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock seconds since an arbitrary process-wide origin.
[[nodiscard]] double now_s();
/// CPU seconds consumed by every thread of this process so far.
[[nodiscard]] double process_cpu_s();
/// CPU seconds consumed by the calling thread so far.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set size of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set size of this process (VmRSS), MiB.
[[nodiscard]] double current_rss_mb();

/// The host clock, read from a benchmark-owned probe. The shared VM this
/// benchmark was tuned on moves its core clock between turbo steps (2.5 to
/// 3.0 GHz seen) for tens of seconds at a time, and so moved every CPU-bound
/// timing of one binary by up to a fifth between runs. A CPU-bound time
/// measured while the probe read `step_ns` is scaled by reference_scale()
/// to what it would have been at the reference clock; figures set by timers
/// or by thread wake-ups (serve_warm's fixed-rate latencies) are not scaled.
///
/// Nanoseconds per step of a dependent 64-bit multiply-add chain (4 cycles
/// a step on x86-64), best of ten ~0.1 ms samples on the calling thread.
[[nodiscard]] double clock_step_ns();
/// The reference clock: 3.0 GHz, the top step seen on that VM.
constexpr double kReferenceStepNs = 4.0 / 3.0;
/// Factor that takes a CPU-bound time measured while the probe read
/// `step_ns` to the reference clock.
[[nodiscard]] inline double reference_scale(double step_ns) {
    return kReferenceStepNs / step_ns;
}

/// Brackets a timed section with clock probes: construct it just before
/// the section, call scale() just after it.
class ClockBracket {
 public:
    ClockBracket() : step0_(clock_step_ns()) {}
    /// Factor that takes the section's times to the reference clock.
    [[nodiscard]] double scale() const {
        return reference_scale((step0_ + clock_step_ns()) / 2.0);
    }

 private:
    double step0_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
/// Takes a copy because it sorts.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// The benchmark's own input generator (splitmix64). Kept separate from the
/// library's RNG so a change to the program under test never changes the
/// inputs it is measured on.
class InputRng {
 public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();
    /// Exponential with the given rate.
    double exponential(double rate);
    /// Uniform integer in [0, n).
    std::uint64_t below(std::uint64_t n);

 private:
    std::uint64_t state_;
};

/// Derives an independent stream seed from the workload seed and a label.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::string_view label);

/// In-memory span recorder for the traced run: name, start, end, parent and
/// request id, written as JSONL when the run ends. Disabled, every call is
/// one branch and records nothing.
class Spans {
 public:
    static constexpr std::uint64_t kNone = 0;

    void enable(std::size_t capacity);
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Records a finished span and returns its id (kNone when disabled or
    /// full). `t0`/`t1` are now_s() readings.
    std::uint64_t add(std::string_view name, double t0, double t1,
                      std::uint64_t parent = kNone, std::uint64_t request = 0);

    [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

    /// One JSON object per line. Returns false when the file cannot be written.
    bool write_jsonl(const std::string& path) const;

 private:
    struct Record {
        std::uint32_t name = 0;  ///< index into names_
        double t0 = 0.0;
        double t1 = 0.0;
        std::uint64_t parent = kNone;
        std::uint64_t request = 0;
    };
    std::uint32_t intern(std::string_view name);

    bool enabled_ = false;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<std::string> names_;
    std::vector<Record> records_;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;  ///< JSONL span file of the traced run
};

/// What a workload hands back: output checks plus named metrics.
class Result {
 public:
    /// Counts one attempted operation; a false `ok` counts it as failed and
    /// marks the run incorrect, logging `what` to stderr.
    void check(bool ok, std::string_view what);
    /// Counts `attempted` operations of which `failed` failed.
    void count(std::uint64_t attempted, std::uint64_t failed, std::string_view what);

    void metric(std::string name, double value, std::string unit);
    [[nodiscard]] bool has_metric(std::string_view name) const;
    /// A human-readable line printed before the result (names from the
    /// workload definitions, e.g. "lo_p50_us").
    void note(const std::string& line);

    [[nodiscard]] bool correct() const noexcept { return correct_; }
    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
        return notes_;
    }
    /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
    [[nodiscard]] std::string json() const;

 private:
    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
};

/// Formats a double with all its digits (shortest round-trip form).
[[nodiscard]] std::string format_number(double value);

// Workload entry points (one translation unit each).
void run_serve_warm(const Options& options, Spans& spans, Result& result);
void run_serve_cold(const Options& options, Spans& spans, Result& result);
void run_catalog_mininova(const Options& options, Spans& spans, Result& result);
void run_swarm_fig6(const Options& options, Spans& spans, Result& result);

}  // namespace perfbench
