// Allocation gate for the swarm engine's event path: an exact work counter
// on the measurement ladder. This executable replaces the global operator
// new/delete with counting versions, which is why it is not linked into
// test_swarm. It runs one fixed-seed Figure 6(b) replication at K = 8 and
// bounds the heap allocations per dispatched event. The count repeats
// exactly for a seed, so the gate is deterministic where a timing is not.
//
// This replication makes about 0.35 allocations per event. A function-form
// require()/ensure() on the event path builds its message string on every
// call, even when it passes; such checks in the bitmap, RNG and queue hot
// paths lift the count to about 113 per event.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "swarm/capacity.hpp"
#include "swarm/swarm_sim.hpp"

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
/// (the peer record, its neighbor set) and result rows still allocate, so
/// the count is not zero; a per-event allocation anywhere on the dispatch
/// path lifts it past 1.
constexpr double kMaxAllocationsPerEvent = 1.0;

TEST(SwarmAllocationGate, Fig6K8ReplicationStaysUnderBound) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "the dispatched-event count comes from the fingerprint";
#else
    SwarmSimConfig config;
    config.bundle_size = 8;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<BitTyrantCapacity>();
    config.publisher_capacity = 100.0 * kKBps;
    config.publisher = PublisherBehavior::kOnOff;
    config.publisher_on_mean = 300.0;
    config.publisher_off_mean = 900.0;
    config.horizon = 1200.0;
    config.drain_after_horizon = true;
    config.drain_deadline_factor = 3.0;
    config.seed = 8009;

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const SwarmSimResult result = run_swarm_sim(config);
    const std::uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - before;

    ASSERT_GT(result.fingerprint_events, 1000U);
    const double per_event = static_cast<double>(allocations) /
                             static_cast<double>(result.fingerprint_events);
    RecordProperty("allocations", static_cast<int>(allocations));
    RecordProperty("events", static_cast<int>(result.fingerprint_events));
    EXPECT_LT(per_event, kMaxAllocationsPerEvent)
        << allocations << " heap allocations over " << result.fingerprint_events
        << " dispatched events";
#endif
}

}  // namespace
}  // namespace swarmavail::swarm
