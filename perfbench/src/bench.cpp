#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>

namespace perfbench {

double now_s() {
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin)
        .count();
}

double process_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double clock_step_ns() {
    constexpr int kSteps = 75000;
    static std::uint64_t carry = 1;
    double best = 0.0;
    for (int sample = 0; sample < 10; ++sample) {
        std::uint64_t x = carry;
        const double t0 = now_s();
        for (int i = 0; i < kSteps; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            asm volatile("" : "+r"(x));  // one dependent step per iteration
        }
        const double seconds = now_s() - t0;
        best = sample == 0 ? seconds : std::min(best, seconds);
        carry ^= x;
    }
    return best * 1e9 / kSteps;
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
        }
    }
    return 0.0;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t InputRng::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31U);
}

double InputRng::uniform() { return static_cast<double>(next() >> 11U) * 0x1.0p-53; }

double InputRng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

std::uint64_t InputRng::below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

std::uint64_t derive_seed(std::uint64_t seed, std::string_view label) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the label
    for (const char c : label) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    InputRng rng(seed ^ h);
    return rng.next();
}

void Spans::enable(std::size_t capacity) {
    enabled_ = true;
    capacity_ = capacity;
    records_.reserve(std::min<std::size_t>(capacity, 1U << 16U));
}

std::uint32_t Spans::intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) {
            return static_cast<std::uint32_t>(i);
        }
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint64_t Spans::add(std::string_view name, double t0, double t1,
                         std::uint64_t parent, std::uint64_t request) {
    if (!enabled_) {
        return kNone;
    }
    if (records_.size() >= capacity_) {
        ++dropped_;
        return kNone;
    }
    records_.push_back(Record{intern(name), t0, t1, parent, request});
    return records_.size();  // ids are 1-based positions
}

bool Spans::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        out << "{\"id\":" << (i + 1) << ",\"name\":\"" << names_[r.name]
            << "\",\"start_s\":" << format_number(r.t0)
            << ",\"end_s\":" << format_number(r.t1) << ",\"parent\":" << r.parent
            << ",\"request\":" << r.request << "}\n";
    }
    return static_cast<bool>(out);
}

void Result::check(bool ok, std::string_view what) {
    count(1, ok ? 0 : 1, what);
}

void Result::count(std::uint64_t attempted, std::uint64_t failed, std::string_view what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
        correct_ = false;
        std::cerr << "check failed: " << what << " (" << failed << " of " << attempted
                  << ")\n";
    }
}

void Result::metric(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not a finite number");
        value = 0.0;
    }
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

bool Result::has_metric(std::string_view name) const {
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [name](const Metric& m) { return m.name == name; });
}

void Result::note(const std::string& line) { notes_.push_back(line); }

std::string format_number(double value) {
    char buffer[64];
    const auto res = std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, res.ptr);
}

std::string Result::json() const {
    std::string out = "{\"correct\":";
    out += correct_ ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted_);
    out += ",\"failed\":" + std::to_string(failed_);
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        out += i == 0 ? "" : ",";
        out += "\"" + m.name + "\":{\"value\":" + format_number(m.value) +
               ",\"unit\":\"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
