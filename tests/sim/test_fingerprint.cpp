// Determinism-fingerprint tests: the hash chain itself, observer
// neutrality (fingerprint on == off results, bit for bit), and the
// cross-execution invariances the repo's determinism contract promises —
// identical digests at every thread count, and the sharded engine equal to
// the shared-queue test oracle (tests/catalog/shared_queue_oracle.hpp) — plus
// the converse: a seed perturbation that changes the results must change
// the digest. The golden tests pin digests across commits: a change that
// reorders any dispatched event (an event-queue rewrite, a tie-break slip)
// moves them.
#include "sim/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "../catalog/shared_queue_oracle.hpp"
#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "catalog/report.hpp"
#include "sim/availability_sim.hpp"
#include "sim/event_queue.hpp"
#include "swarm/capacity.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace swarmavail::sim {
namespace {

TEST(FingerprintChain, OrderSensitive) {
    Fingerprint forward;
    forward.fold_event(1.0, 1U);
    forward.fold_event(2.0, 2U);
    Fingerprint swapped;
    swapped.fold_event(2.0, 2U);
    swapped.fold_event(1.0, 1U);
    EXPECT_NE(forward.digest(), swapped.digest());
    EXPECT_EQ(forward.events(), 2U);
    EXPECT_EQ(swapped.events(), 2U);
}

TEST(FingerprintChain, SeedSeparatesChains) {
    Fingerprint a{1};
    Fingerprint b{2};
    EXPECT_NE(a.digest(), b.digest());
    a.fold_event(5.0, 3U);
    b.fold_event(5.0, 3U);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FingerprintChain, EventCountSeparatesPrefixes) {
    // A run that stopped early must not alias a longer run: the digest
    // folds the event count, so even a (contrived) state collision cannot
    // make unequal-length chains agree by default.
    Fingerprint a;
    a.fold_event(1.0, 1U);
    Fingerprint b;
    b.fold_event(1.0, 1U);
    b.fold_event(1.0, 1U);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FingerprintChain, DoubleFoldsByBitPattern) {
    Fingerprint pos;
    pos.fold(0.0);
    Fingerprint neg;
    neg.fold(-0.0);
    EXPECT_NE(pos.digest(), neg.digest());
}

TEST(FingerprintChain, ChildMergeIsOrderSensitive) {
    Fingerprint child_a{1};
    child_a.fold_event(1.0, 1U);
    Fingerprint child_b{2};
    child_b.fold_event(2.0, 2U);
    Fingerprint ab;
    ab.fold_child(child_a);
    ab.fold_child(child_b);
    Fingerprint ba;
    ba.fold_child(child_b);
    ba.fold_child(child_a);
    EXPECT_NE(ab.digest(), ba.digest());
}

TEST(FingerprintChain, HexIsSixteenZeroPaddedDigits) {
    EXPECT_EQ(fingerprint_hex(0), "0000000000000000");
    EXPECT_EQ(fingerprint_hex(0x1a2b3c4d5e6fULL), "00001a2b3c4d5e6f");
    EXPECT_EQ(fingerprint_hex(~0ULL), "ffffffffffffffff");
}

// ---- engine integration ---------------------------------------------------

AvailabilitySimConfig availability_config(std::uint64_t seed) {
    AvailabilitySimConfig config;
    config.params.peer_arrival_rate = 1.0 / 90.0;
    config.params.content_size = 80.0;
    config.params.download_rate = 1.0;
    config.params.publisher_arrival_rate = 1.0 / 900.0;
    config.params.publisher_residence = 300.0;
    config.horizon = 5.0e4;
    config.seed = seed;
    return config;
}

void expect_stats_equal(const StreamingStats& a, const StreamingStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

void expect_same_statistics(const AvailabilitySimResult& a,
                            const AvailabilitySimResult& b) {
    expect_stats_equal(a.busy_periods, b.busy_periods);
    expect_stats_equal(a.idle_periods, b.idle_periods);
    expect_stats_equal(a.download_times, b.download_times);
    expect_stats_equal(a.waiting_times, b.waiting_times);
    expect_stats_equal(a.peers_per_busy_period, b.peers_per_busy_period);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.stranded, b.stranded);
    EXPECT_EQ(a.unavailable_time_fraction, b.unavailable_time_fraction);
    EXPECT_EQ(a.arrival_unavailability, b.arrival_unavailability);
    EXPECT_EQ(a.publisher_up_transitions, b.publisher_up_transitions);
    EXPECT_EQ(a.publisher_online_fraction, b.publisher_online_fraction);
}

TEST(FingerprintAvailability, ReproducibleAcrossRuns) {
    const auto first = run_availability_sim(availability_config(11));
    const auto second = run_availability_sim(availability_config(11));
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    EXPECT_EQ(first.fingerprint, 0U);
    EXPECT_EQ(second.fingerprint, 0U);
#else
    EXPECT_NE(first.fingerprint, 0U);
    EXPECT_GT(first.fingerprint_events, 0U);
#endif
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.fingerprint_events, second.fingerprint_events);
}

TEST(FingerprintAvailability, ObserverNeutralityOnEqualsOff) {
    auto config = availability_config(12);
    const auto with = run_availability_sim(config);
    config.fingerprint = false;
    const auto without = run_availability_sim(config);
    EXPECT_EQ(without.fingerprint, 0U);
    EXPECT_EQ(without.fingerprint_events, 0U);
    expect_same_statistics(with, without);
}

TEST(FingerprintAvailability, SeedPerturbationMovesDigestWithResults) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    const auto base = run_availability_sim(availability_config(13));
    const auto perturbed = run_availability_sim(availability_config(14));
    // The perturbed run is a different sample path...
    EXPECT_NE(base.arrivals, perturbed.arrivals);
    // ...and the digest says so without comparing any statistic.
    EXPECT_NE(base.fingerprint, perturbed.fingerprint);
#endif
}

swarm::SwarmSimConfig swarm_config(std::uint64_t seed) {
    swarm::SwarmSimConfig config;
    config.bundle_size = 2;
    config.file_size = 4.0e6 * 8.0;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity =
        std::make_shared<swarm::HomogeneousCapacity>(50.0 * swarm::kKBps);
    config.publisher_capacity = 100.0 * swarm::kKBps;
    config.horizon = 4000.0;
    config.seed = seed;
    return config;
}

TEST(FingerprintSwarm, ReproducibleAndNeutral) {
    auto config = swarm_config(21);
    const auto first = swarm::run_swarm_sim(config);
    const auto second = swarm::run_swarm_sim(config);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.fingerprint_events, second.fingerprint_events);
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    EXPECT_NE(first.fingerprint, 0U);
#endif
    config.fingerprint = false;
    const auto off = swarm::run_swarm_sim(config);
    EXPECT_EQ(off.fingerprint, 0U);
    EXPECT_EQ(off.completion_times, first.completion_times);
    EXPECT_EQ(off.available_fraction, first.available_fraction);
    EXPECT_EQ(off.stuck_at_horizon, first.stuck_at_horizon);
}

TEST(FingerprintSwarm, SeedPerturbationMovesDigest) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    const auto base = swarm::run_swarm_sim(swarm_config(21));
    const auto perturbed = swarm::run_swarm_sim(swarm_config(22));
    EXPECT_NE(base.fingerprint, perturbed.fingerprint);
#endif
}

// ---- catalog-wide invariances ---------------------------------------------

catalog::CatalogConfig catalog_config(std::size_t files) {
    catalog::CatalogConfig config;
    config.num_files = files;
    config.zipf_exponent = 1.0;
    config.aggregate_demand = static_cast<double>(files) / 60.0;
    config.file_size = 80.0;
    config.download_rate = 1.0;
    config.publisher_arrival_rate = 1.0 / 900.0;
    config.publisher_residence = 300.0;
    return config;
}

catalog::CatalogEngineConfig engine_config() {
    catalog::CatalogEngineConfig config;
    config.horizon = 2.0e4;
    config.seed = 20090101;
    return config;
}

TEST(FingerprintCatalog, IdenticalAcrossThreadCounts) {
    const auto cat = catalog::build_catalog(catalog_config(12));
    const catalog::FixedK policy{3};
    std::vector<catalog::CatalogReport> reports;
    for (const std::size_t threads : {1U, 2U, 4U, 8U}) {
        auto config = engine_config();
        config.policy = ParallelPolicy{threads};
        reports.push_back(catalog::run_catalog(cat, policy, config));
    }
    for (std::size_t i = 1; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].fingerprint, reports[0].fingerprint)
            << "catalog fingerprint diverged at thread count " << (1U << i);
        ASSERT_EQ(reports[i].swarms.size(), reports[0].swarms.size());
        for (std::size_t s = 0; s < reports[i].swarms.size(); ++s) {
            EXPECT_EQ(reports[i].swarms[s].result.fingerprint,
                      reports[0].swarms[s].result.fingerprint);
        }
    }
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    EXPECT_NE(reports[0].fingerprint, 0U);
#endif
}

TEST(FingerprintCatalog, SharedQueueEqualsSharded) {
    const auto cat = catalog::build_catalog(catalog_config(9));
    const catalog::FixedK policy{2};
    const auto config = engine_config();
    const auto sharded = catalog::run_catalog(cat, policy, config);
    const auto shared = catalog::shared_queue_oracle(cat, policy.assign(cat), config);
    EXPECT_EQ(shared.fingerprint, sharded.fingerprint);
    ASSERT_EQ(shared.swarms.size(), sharded.swarms.size());
    for (std::size_t s = 0; s < shared.swarms.size(); ++s) {
        EXPECT_EQ(shared.swarms[s].result.fingerprint,
                  sharded.swarms[s].result.fingerprint)
            << "per-swarm digest diverged between executions at swarm " << s;
        EXPECT_EQ(shared.swarms[s].result.fingerprint_events,
                  sharded.swarms[s].result.fingerprint_events);
    }
}

TEST(FingerprintCatalog, RuntimeOffZeroesDigestsOnly) {
    const auto cat = catalog::build_catalog(catalog_config(6));
    const catalog::FixedK policy{2};
    auto config = engine_config();
    const auto with = catalog::run_catalog(cat, policy, config);
    config.fingerprint = false;
    const auto without = catalog::run_catalog(cat, policy, config);
    EXPECT_EQ(without.fingerprint, 0U);
    ASSERT_EQ(without.swarms.size(), with.swarms.size());
    for (std::size_t s = 0; s < with.swarms.size(); ++s) {
        EXPECT_EQ(without.swarms[s].result.fingerprint, 0U);
        expect_same_statistics(with.swarms[s].result, without.swarms[s].result);
    }
    EXPECT_EQ(with.demand_weighted_unavailability,
              without.demand_weighted_unavailability);
}

// ---- golden digests ----------------------------------------------------------
//
// The tests above compare runs within one build. These pin fixed-seed
// digests to recorded values, so a refactor that claims bit-identical
// output must reproduce them exactly. Update a value only together with a
// change that is meant to alter the simulated event stream.

TEST(FingerprintGolden, TieHeavyQueueDigestIsPinned) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    // The simulators draw continuous event times, so their runs below
    // never exercise the tie-break. This schedule lands every event on a
    // grid of eight instants and cancels some, so a queue that dispatched
    // equal-time events out of scheduling order moves the digest.
    EventQueue queue;
    Fingerprint chain{7};
    queue.set_fingerprint(&chain);
    Rng rng{7};
    std::vector<EventId> ids;
    for (int i = 0; i < 4000; ++i) {
        const SimTime when =
            queue.now() + 0.5 * static_cast<double>(rng.uniform_index(8));
        ids.push_back(queue.schedule_at(when, [] {}));
        if (i % 7 == 3) {
            queue.cancel(ids[rng.uniform_index(ids.size())]);
        }
        if (i % 2 == 1) {
            ASSERT_TRUE(queue.run_next());
        }
    }
    while (queue.run_next()) {
    }
    EXPECT_EQ(chain.digest(), 500853365490500479ULL);
    EXPECT_EQ(chain.events(), 3741U);
#endif
}

TEST(FingerprintGolden, SwarmSimDigestIsPinned) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    const auto result = swarm::run_swarm_sim(swarm_config(21));
    EXPECT_EQ(result.fingerprint, 8199231960268606422ULL);
    EXPECT_EQ(result.fingerprint_events, 2461U);
#endif
}

// The digests below were recorded before the swarm engine's rarest-first
// scan moved to an offered-piece bitmap. Each pins one branch of that scan:
// the free-uploader mask (fig6), the publisher's super-seeding test, the
// tracker/PEX path of limited visibility, and capped transfer rates with
// lingering seeds (offers that outlive a peer's download).

swarm::SwarmSimConfig fig6_k8_config() {
    // Figure 6(b) at K = 8: BitTyrant capacities, on/off publisher (300 s
    // on, 900 s off), arrivals for 1200 s, then a drain of up to 3x that.
    swarm::SwarmSimConfig config;
    config.bundle_size = 8;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<swarm::BitTyrantCapacity>();
    config.publisher_capacity = 100.0 * swarm::kKBps;
    config.publisher = swarm::PublisherBehavior::kOnOff;
    config.publisher_on_mean = 300.0;
    config.publisher_off_mean = 900.0;
    config.horizon = 1200.0;
    config.drain_after_horizon = true;
    config.drain_deadline_factor = 3.0;
    config.seed = 8009;
    return config;
}

TEST(FingerprintGolden, SwarmFig6K8DigestIsPinned) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    const auto result = swarm::run_swarm_sim(fig6_k8_config());
    EXPECT_EQ(result.fingerprint, 15193015035422990241ULL);
    EXPECT_EQ(result.fingerprint_events, 10144U);
#endif
}

TEST(FingerprintGolden, SwarmSuperSeedingDigestIsPinned) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    auto config = swarm_config(23);
    config.super_seeding = true;
    const auto result = swarm::run_swarm_sim(config);
    EXPECT_EQ(result.fingerprint, 8544323725054038897ULL);
    EXPECT_EQ(result.fingerprint_events, 1853U);
#endif
}

TEST(FingerprintGolden, SwarmLimitedVisibilityDigestIsPinned) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    auto config = swarm_config(24);
    config.max_neighbors = 3;
    const auto result = swarm::run_swarm_sim(config);
    EXPECT_EQ(result.fingerprint, 189331392591538949ULL);
    EXPECT_EQ(result.fingerprint_events, 2166U);
#endif
}

TEST(FingerprintGolden, SwarmReciprocityLingeringDigestIsPinned) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    auto config = swarm_config(25);
    config.peer_capacity = std::make_shared<swarm::BitTyrantCapacity>();
    config.reciprocity_cap = true;
    config.peers_linger = true;
    config.linger_mean = 300.0;
    config.drain_after_horizon = true;
    const auto result = swarm::run_swarm_sim(config);
    EXPECT_EQ(result.fingerprint, 12666822017295187673ULL);
    EXPECT_EQ(result.fingerprint_events, 2375U);
#endif
}

TEST(FingerprintGolden, CatalogSmokeDigestIsPinned) {
#if defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    // Same run as the CI catalog smoke: `catalog_bundling --files 50
    // --policy none --horizon 1e4 --no-sweep --partitioned`.
    catalog::CatalogConfig config;
    config.num_files = 50;
    config.zipf_exponent = 1.0;
    config.aggregate_demand = 200.0 / 60.0 / 10.0;
    config.file_size = 4.0e6 * 8.0;
    config.download_rate = 50.0e3 * 8.0;
    config.publisher_arrival_rate = 1.0 / 900.0;
    config.publisher_residence = 300.0;
    config.publishers = catalog::PublisherAssignment::kPartitionedBudget;
    const auto cat = catalog::build_catalog(config);
    const catalog::NoBundling policy;
    catalog::CatalogEngineConfig engine;
    engine.horizon = 1.0e4;
    engine.seed = 42;
    engine.policy = ParallelPolicy{2};
    const auto sharded = catalog::run_catalog(cat, policy, engine);
    EXPECT_EQ(sharded.fingerprint, 11803691400669175464ULL);
    const auto shared = catalog::shared_queue_oracle(cat, policy.assign(cat), engine);
    EXPECT_EQ(shared.fingerprint, 11803691400669175464ULL);
#endif
}

}  // namespace
}  // namespace swarmavail::sim
