#include "util/profile.hpp"

#include <array>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace swarmavail::prof {

namespace detail {
std::atomic<bool> g_profiling_enabled{false};
}  // namespace detail

namespace {

/// One thread's accumulators. Relaxed atomics: the owning thread is the
/// only writer; snapshot() reads concurrently without tearing.
struct PhaseSlots {
    std::array<std::atomic<std::uint64_t>, Profiler::kMaxPhases> calls{};
    std::array<std::atomic<std::uint64_t>, Profiler::kMaxPhases> ns{};
};

struct Registry {
    std::mutex mutex;
    std::vector<std::string> names;              ///< phase index -> name
    std::vector<std::unique_ptr<PhaseSlots>> slots;  ///< one block per thread
};

Registry& registry() {
    static Registry instance;
    return instance;
}

/// This thread's slot block; allocated on first record and owned by the
/// registry (kept alive past thread exit so snapshot() stays valid).
PhaseSlots& thread_slots() {
    thread_local PhaseSlots* slots = [] {
        auto owned = std::make_unique<PhaseSlots>();
        PhaseSlots* raw = owned.get();
        Registry& reg = registry();
        const std::lock_guard<std::mutex> lock(reg.mutex);
        reg.slots.push_back(std::move(owned));
        return raw;
    }();
    return *slots;
}

}  // namespace

std::size_t Profiler::register_phase(std::string_view name) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (std::size_t i = 0; i < reg.names.size(); ++i) {
        if (reg.names[i] == name) {
            return i;
        }
    }
    require(reg.names.size() < kMaxPhases,
            "Profiler::register_phase: too many distinct phases");
    reg.names.emplace_back(name);
    return reg.names.size() - 1;
}

void Profiler::record(std::size_t phase, std::uint64_t ns) noexcept {
    PhaseSlots& slots = thread_slots();
    slots.calls[phase].fetch_add(1, std::memory_order_relaxed);
    slots.ns[phase].fetch_add(ns, std::memory_order_relaxed);
}

std::vector<PhaseTotal> Profiler::snapshot() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<PhaseTotal> out(reg.names.size());
    for (std::size_t i = 0; i < reg.names.size(); ++i) {
        out[i].name = reg.names[i];
    }
    for (const auto& slots : reg.slots) {
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i].calls += slots->calls[i].load(std::memory_order_relaxed);
            out[i].seconds +=
                static_cast<double>(slots->ns[i].load(std::memory_order_relaxed)) * 1e-9;
        }
    }
    return out;
}

void Profiler::reset() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& slots : reg.slots) {
        for (std::size_t i = 0; i < kMaxPhases; ++i) {
            slots->calls[i].store(0, std::memory_order_relaxed);
            slots->ns[i].store(0, std::memory_order_relaxed);
        }
    }
}

void Profiler::write_json(std::ostream& os) {
    const std::vector<PhaseTotal> phases = snapshot();
    os << "{\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        std::string name;
        append_json_string(phases[i].name, name);
        os << (i == 0 ? "" : ",") << "\n  {\"name\":" << name
           << ",\"calls\":" << phases[i].calls
           << ",\"seconds\":" << format_double_exact(phases[i].seconds) << '}';
    }
    os << "\n]}\n";
}

std::uint64_t ProfScope::now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace swarmavail::prof
