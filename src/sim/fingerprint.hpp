// Determinism fingerprints: constant-memory digests of a simulation's
// execution order.
//
// A Fingerprint is a seeded streaming 64-bit hash chain folded over the
// sequence of dispatched events — (when, seq, kind) triples — and over
// terminal facts like RNG draw counts. The chain is order-sensitive (each
// fold passes the running state through a SplitMix64-style finalizer, so
// swapping two events changes the digest) and allocation-free: one run's
// fingerprint is two 64-bit words regardless of how many events it folds.
//
// Fingerprints make the repo's determinism contract — bit-identical results
// at any thread count, the sharded catalog engine ≡ its shared-queue test
// oracle, event queue ≡ reference heap dispatch — an O(1)-comparable
// observable instead of an O(report) byte-compare: two runs took the same
// event path iff their digests match (up to 64-bit collision odds).
// Per-swarm digests fold per-process event handling (queue-agnostic, so
// multiplexing swarms on a shared queue folds the same sequence as private
// queues); per-queue digests fold the raw
// dispatch stream (see EventQueue::set_fingerprint); catalog/cell digests
// fold their children strictly in index order, so any thread count merges
// to the same value.
//
// Cost model (mirrors sim/trace.hpp):
//   - compile time: SWARMAVAIL_FINGERPRINT_DISABLED (CMake:
//     -DSWARMAVAIL_ENABLE_FINGERPRINT=OFF, part of the trace-off preset)
//     removes every engine call site; the Fingerprint type itself remains
//     available for direct use.
//   - runtime, no fingerprint attached: the SWARMAVAIL_FPRINT macro is a
//     null-pointer check — one branch per call site.
//
// Fingerprinting never draws randomness or mutates simulator state, so
// enabling it cannot change any simulation result (observer neutrality;
// pinned by tests/sim/test_fingerprint.cpp).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace swarmavail::sim {

/// Streaming order-sensitive 64-bit hash chain. Not cryptographic: it
/// detects divergence between runs that should be identical, it does not
/// resist an adversary constructing collisions.
class Fingerprint {
 public:
    /// Chain seed shared by every fingerprint that must be comparable.
    static constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

    explicit Fingerprint(std::uint64_t seed = kDefaultSeed) noexcept
        : state_(mix(seed + kGamma)) {}

    /// Folds one raw 64-bit word into the chain (seed values, RNG draw
    /// counts, child digests). Does not count as an event.
    void fold(std::uint64_t word) noexcept { state_ = mix(state_ + word); }

    /// Folds a double by bit pattern, so values that differ in any bit
    /// (including -0.0 vs 0.0) produce different chains.
    void fold(double value) noexcept { fold(std::bit_cast<std::uint64_t>(value)); }

    /// Folds one dispatched event as its (when, seq, kind) triple.
    /// Out of line: the engines' only fingerprint dependency is this call,
    /// which keeps the trace-off symbol check honest (no engine object may
    /// reference it when fingerprinting is compiled out).
    void fold_event(double when, std::uint64_t seq, std::uint32_t kind) noexcept;

    /// Event fold for process-level call sites that have no queue sequence
    /// number: the fingerprint's own event ordinal stands in for `seq`, so
    /// the digest is a pure function of the handler sequence — identical
    /// whether the process ran on a private or a shared queue.
    void fold_event(double when, std::uint32_t kind) noexcept {
        fold_event(when, events_, kind);
    }

    /// Folds a child fingerprint (digest plus event count). Call strictly
    /// in index order so every thread count merges to the same parent.
    void fold_child(const Fingerprint& child) noexcept {
        fold(child.digest());
        fold(child.events());
    }

    /// The chain digest. Folds the event count, so a run that stopped
    /// early never aliases a longer run whose state happened to match.
    [[nodiscard]] std::uint64_t digest() const noexcept {
        return mix(state_ + events_);
    }

    /// Events folded via fold_event (not raw fold() words).
    [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
    /// SplitMix64 increment; offsets the seed so Fingerprint{0} has a
    /// non-trivial initial state.
    static constexpr std::uint64_t kGamma = 0xbf58476d1ce4e5b9ULL;

    /// SplitMix64 finalizer: full-avalanche, so the chain is sensitive to
    /// the order of folds (mix(mix(s+a)+b) != mix(mix(s+b)+a)).
    [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
        x ^= x >> 30U;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27U;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31U;
        return x;
    }

    std::uint64_t state_;
    std::uint64_t events_ = 0;
};

/// Canonical display form: 16 lowercase hex digits (zero-padded), the
/// format the report JSON, telemetry viewers, and divergence_hunt share.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t digest);

}  // namespace swarmavail::sim

#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
#define SWARMAVAIL_FPRINT(fingerprint, ...) static_cast<void>(0)
#else
/// Engine-side fingerprint call site: one null-pointer branch when no
/// fingerprint is attached; compiled out entirely under
/// SWARMAVAIL_FINGERPRINT_DISABLED.
#define SWARMAVAIL_FPRINT(fingerprint, ...)         \
    do {                                            \
        if ((fingerprint) != nullptr) {             \
            (fingerprint)->fold_event(__VA_ARGS__); \
        }                                           \
    } while (false)
#endif
