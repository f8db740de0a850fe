// Work gates for the swarm engine's event path: exact work counters on the
// measurement ladder. This executable replaces the global operator
// new/delete with counting versions, which is why it is not linked into
// test_swarm. It runs one fixed-seed Figure 6(b) replication at K = 8, and
// one limited-visibility run (tracker handouts and PEX), and bounds the
// heap allocations per dispatched event; the Figure 6(b) run also bounds
// the pump passes and the leecher records the pump reads per dispatched
// event. The counts repeat exactly for a seed, so the gates are
// deterministic where a timing is not.
//
// The Figure 6(b) replication makes about 0.35 allocations per event. A
// function-form require()/ensure() on the event path builds its message
// string on every call, even when it passes; such checks in the bitmap, RNG
// and queue hot paths lift the count to about 113 per event. The
// limited-visibility run makes about 0.78 per event; a node-based set per
// peer's neighbor view (one heap node per edge) lifts it to about 2.8.
//
// The Figure 6(b) replication makes about 1.02 pump passes per event. An
// engine that runs the confirming pass after every pass that started a
// transfer, instead of replaying it, makes about 1.88.
//
// The same run bounds the leecher records the pump reads per event
// (counter swarm.pump_scans). An event-driven pass reads only the leechers
// the events since the last pump touched, about 14.8 per event; a pump
// whose every pass filters all leechers reads about 68.6.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "fig6_config.hpp"
#include "swarm/capacity.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/metrics.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

void* checked(void* p) {
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

// Every replaceable form is replaced, so no allocation pairs a counted new
// with a runtime-supplied delete (sanitizer runtimes bring their own).
void* operator new(std::size_t size) { return checked(counted_alloc(size)); }
void* operator new[](std::size_t size) { return checked(counted_alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
    return checked(counted_aligned_alloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return checked(counted_aligned_alloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace swarmavail::swarm {
namespace {

/// Upper bound on heap allocations per dispatched event. Peer arrivals
/// (the peer record, its neighbor list) and result rows still allocate, so
/// the count is not zero; a per-event allocation anywhere on the dispatch
/// path lifts it past 1.
constexpr double kMaxAllocationsPerEvent = 1.0;

/// Runs `config` once and checks its heap allocations per dispatched event.
void expect_allocations_under_bound(const SwarmSimConfig& config) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const SwarmSimResult result = run_swarm_sim(config);
    const std::uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - before;

    ASSERT_GT(result.fingerprint_events, 1000U);
    const double per_event = static_cast<double>(allocations) /
                             static_cast<double>(result.fingerprint_events);
    ::testing::Test::RecordProperty("allocations", static_cast<int>(allocations));
    ::testing::Test::RecordProperty("events",
                                    static_cast<int>(result.fingerprint_events));
    EXPECT_LT(per_event, kMaxAllocationsPerEvent)
        << allocations << " heap allocations over " << result.fingerprint_events
        << " dispatched events";
}

TEST(SwarmAllocationGate, Fig6K8ReplicationStaysUnderBound) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "the dispatched-event count comes from the fingerprint";
#else
    expect_allocations_under_bound(fig6_k8_config());
#endif
}

/// Upper bound on real pump passes per dispatched event. Nearly every
/// event needs one pass; a second pass per event that started a transfer
/// lifts the count past 1.8.
constexpr double kMaxPumpPassesPerEvent = 1.1;

TEST(SwarmPumpPassGate, Fig6K8ReplicationMakesOnePassPerEvent) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "the dispatched-event count comes from the fingerprint";
#else
    MetricsRegistry metrics;
    SwarmSimConfig config = fig6_k8_config();
    config.metrics = &metrics;
    const SwarmSimResult result = run_swarm_sim(config);
    const Counter* passes = metrics.find_counter("swarm.pump_passes");
    ASSERT_NE(passes, nullptr);
    ASSERT_GT(result.fingerprint_events, 1000U);
    const double per_event = static_cast<double>(passes->value()) /
                             static_cast<double>(result.fingerprint_events);
    ::testing::Test::RecordProperty("pump_passes", static_cast<int>(passes->value()));
    ::testing::Test::RecordProperty("events",
                                    static_cast<int>(result.fingerprint_events));
    EXPECT_LT(per_event, kMaxPumpPassesPerEvent)
        << passes->value() << " pump passes over " << result.fingerprint_events
        << " dispatched events";
#endif
}

/// Upper bound on leecher records read by the pump per dispatched event.
/// The run averages about 85 leechers, so any pass that filters all of them
/// on most events lifts the count far past it.
constexpr double kMaxPumpScansPerEvent = 20.0;

TEST(SwarmPumpScanGate, Fig6K8ReplicationReadsOnlyTouchedLeechers) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "the dispatched-event count comes from the fingerprint";
#else
    MetricsRegistry metrics;
    SwarmSimConfig config = fig6_k8_config();
    config.metrics = &metrics;
    const SwarmSimResult result = run_swarm_sim(config);
    const Counter* scans = metrics.find_counter("swarm.pump_scans");
    ASSERT_NE(scans, nullptr);
    ASSERT_GT(result.fingerprint_events, 1000U);
    const double per_event = static_cast<double>(scans->value()) /
                             static_cast<double>(result.fingerprint_events);
    ::testing::Test::RecordProperty("pump_scans", static_cast<int>(scans->value()));
    ::testing::Test::RecordProperty("events",
                                    static_cast<int>(result.fingerprint_events));
    EXPECT_LT(per_event, kMaxPumpScansPerEvent)
        << scans->value() << " leecher records read over " << result.fingerprint_events
        << " dispatched events";
#endif
}

// The config of FingerprintGolden.SwarmLimitedVisibilityDigestIsPinned:
// every arrival takes a tracker handout, and starved peers pull via PEX.
TEST(SwarmAllocationGate, LimitedVisibilityStaysUnderBound) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "the dispatched-event count comes from the fingerprint";
#else
    SwarmSimConfig config;
    config.bundle_size = 2;
    config.file_size = 4.0e6 * 8.0;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(50.0 * kKBps);
    config.publisher_capacity = 100.0 * kKBps;
    config.horizon = 4000.0;
    config.seed = 24;
    config.max_neighbors = 3;

    expect_allocations_under_bound(config);
#endif
}

}  // namespace
}  // namespace swarmavail::swarm
