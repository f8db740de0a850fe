// catalog_mininova and swarm_fig6: the two simulation engines at the
// paper's two scales, each on 2 threads of sim::Parallel.
#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "sim/availability_sim.hpp"
#include "sim/event_queue.hpp"
#include "swarm/capacity.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/metrics.hpp"

namespace perfbench {
namespace {

namespace catalog = swarmavail::catalog;
namespace sim = swarmavail::sim;
namespace swarm = swarmavail::swarm;
using swarmavail::MetricsRegistry;
using swarmavail::StreamingStats;

constexpr std::size_t kThreads = 2;
constexpr int kSetupReps = 9;
constexpr std::size_t kEngineSeeds = 5;  ///< catalog_mininova runs per round

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_stats(const StreamingStats& a, const StreamingStats& b) {
    return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
           same_bits(a.variance(), b.variance()) && same_bits(a.min(), b.min()) &&
           same_bits(a.max(), b.max());
}

bool same_result(const sim::AvailabilitySimResult& a,
                 const sim::AvailabilitySimResult& b) {
    return a.fingerprint == b.fingerprint &&
           a.fingerprint_events == b.fingerprint_events && a.arrivals == b.arrivals &&
           a.served == b.served && a.lost == b.lost &&
           a.stranded == b.stranded &&
           a.publisher_up_transitions == b.publisher_up_transitions &&
           same_bits(a.unavailable_time_fraction, b.unavailable_time_fraction) &&
           same_bits(a.arrival_unavailability, b.arrival_unavailability) &&
           same_bits(a.publisher_online_fraction, b.publisher_online_fraction) &&
           same_stats(a.busy_periods, b.busy_periods) &&
           same_stats(a.idle_periods, b.idle_periods) &&
           same_stats(a.download_times, b.download_times) &&
           same_stats(a.waiting_times, b.waiting_times);
}

bool same_result(const swarm::SwarmSimResult& a, const swarm::SwarmSimResult& b) {
    return a.fingerprint == b.fingerprint &&
           a.fingerprint_events == b.fingerprint_events && a.arrivals == b.arrivals &&
           a.completions == b.completions &&
           a.stuck_at_horizon == b.stuck_at_horizon && a.peers.size() == b.peers.size() &&
           a.available_intervals.size() == b.available_intervals.size() &&
           same_bits(a.available_fraction, b.available_fraction) &&
           same_bits(a.last_completion, b.last_completion) &&
           same_stats(a.download_times, b.download_times) &&
           (a.peers.empty() ||
            std::memcmp(a.peers.data(), b.peers.data(),
                        a.peers.size() * sizeof(swarm::PeerRecord)) == 0);
}

double max_gauge(const MetricsRegistry& registry, const char* name) {
    const swarmavail::Gauge* gauge = registry.find_gauge(name);
    return gauge != nullptr && gauge->stats().count() > 0 ? gauge->stats().max() : 0.0;
}

// ---------------------------------------------------------- catalog_mininova

/// The Mininova snapshot's size: 1,087,933 files, Zipf(1) demand over an
/// aggregate 10 peers/s, dedicated publishers that return every 10^4 s on
/// average and stay an hour.
catalog::CatalogConfig mininova_config() {
    catalog::CatalogConfig config;
    config.num_files = 1087933;
    config.zipf_exponent = 1.0;
    config.aggregate_demand = 10.0;
    config.file_size = 1.0;
    config.download_rate = 1.25;
    config.publisher_arrival_rate = 1e-4;
    config.publisher_residence = 3600.0;
    config.publishers = catalog::PublisherAssignment::kDedicated;
    return config;
}

catalog::CatalogEngineConfig engine_config(std::uint64_t seed) {
    catalog::CatalogEngineConfig config;
    config.horizon = 1.0e5;
    config.seed = seed;
    config.execution = catalog::ExecutionMode::kSharded;
    config.policy.threads = kThreads;
    config.fingerprint = true;
    return config;
}

/// Report-level checks of one catalog run.
void check_report(const catalog::CatalogReport& report, const catalog::SwarmPlan& plan,
                  Result& result) {
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t lost = 0;
    std::uint64_t stranded = 0;
    bool conserved = true;
    for (const catalog::SwarmOutcome& s : report.swarms) {
        arrivals += s.result.arrivals;
        served += s.result.served;
        lost += s.result.lost;
        stranded += s.result.stranded;
        conserved = conserved && s.result.served + s.result.lost <= s.result.arrivals;
    }
    result.check(report.swarms.size() == plan.size() && !report.stopped_early,
                 "catalog report covers every swarm");
    result.check(arrivals == report.arrivals && served == report.served &&
                     lost == report.lost && stranded == report.stranded,
                 "catalog totals equal the sum over swarms");
    result.check(conserved, "no swarm serves or loses more peers than arrived");
}

/// A seeded sample of a run's swarms with their results as reported.
struct SwarmSample {
    std::vector<std::size_t> index;
    std::vector<sim::AvailabilitySimResult> reported;
};

SwarmSample sample_swarms(const catalog::CatalogReport& report, std::size_t count,
                          std::uint64_t seed) {
    SwarmSample sample;
    InputRng pick(seed);
    for (std::size_t n = 0; n < count && !report.swarms.empty(); ++n) {
        const std::size_t i = pick.below(report.swarms.size());
        sample.index.push_back(i);
        sample.reported.push_back(report.swarms[i].result);
    }
    return sample;
}

struct ReplayStats {
    std::vector<double> swarm_us;
    double queue_depth_max = 0.0;
};

/// Replays sampled swarms in isolation with a metrics registry attached.
/// Each must match the report bit for bit and conserve peers: arrivals =
/// served + lost + still in the system at the horizon. (Stranded peers are
/// no separate outcome: a patient peer cut off by the end of a busy period
/// stays, and may be served later.)
ReplayStats replay_swarms(const catalog::Catalog& cat, const catalog::SwarmPlan& plan,
                          const catalog::CatalogEngineConfig& config,
                          const SwarmSample& sample, Spans& spans, Result& result) {
    ReplayStats stats;
    std::size_t mismatched = 0;
    std::size_t unconserved = 0;
    for (std::size_t n = 0; n < sample.index.size(); ++n) {
        const std::size_t i = sample.index[n];
        MetricsRegistry registry;
        sim::AvailabilitySimConfig swarm_config =
            catalog::swarm_sim_config(cat, plan, i, config);
        swarm_config.metrics = &registry;
        const double t0 = now_s();
        const sim::AvailabilitySimResult replay = sim::run_availability_sim(swarm_config);
        const double t1 = now_s();
        spans.add("sim.run_availability_sim", t0, t1, Spans::kNone, i + 1);
        stats.swarm_us.push_back((t1 - t0) * 1e6);
        stats.queue_depth_max =
            std::max(stats.queue_depth_max, max_gauge(registry, "avail.queue_depth"));
        mismatched += same_result(replay, sample.reported[n]) ? 0 : 1;
        const swarmavail::Gauge* in_system = registry.find_gauge("avail.peers_in_system");
        const auto left = in_system != nullptr && in_system->stats().count() > 0
                              ? static_cast<std::uint64_t>(in_system->value())
                              : 0U;
        unconserved += replay.arrivals == replay.served + replay.lost + left ? 0 : 1;
    }
    const std::size_t count = sample.index.size();
    result.count(count, mismatched,
                 "replayed swarms match the catalog report bit for bit");
    result.count(count, unconserved, "replayed swarms conserve peers");
    return stats;
}

/// The catalog's critical path: its most popular swarm (FixedK bundles in
/// popularity order, so swarm 0) simulated alone, best of 3. A sharded run
/// cannot finish before its slowest swarm does. This swarm's cost swings
/// with its seed (long idle periods queue many patient peers), so the probe
/// always uses engine seed 1: the same work in every run.
double head_swarm_seconds(const catalog::Catalog& cat, const catalog::SwarmPlan& plan,
                          bool metrics, Result& result) {
    sim::AvailabilitySimConfig head =
        catalog::swarm_sim_config(cat, plan, 0, engine_config(1));
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        MetricsRegistry registry;
        head.metrics = metrics ? &registry : nullptr;
        const double t0 = now_s();
        result.check(sim::run_availability_sim(head).arrivals > 0, "head swarm ran");
        const double seconds = now_s() - t0;
        best = rep == 0 ? seconds : std::min(best, seconds);
    }
    return best;
}

// ---------------------------------------------------------------- swarm_fig6

constexpr std::size_t kMaxK = 8;
constexpr std::size_t kReplications = 20;

using CapacityPtr = std::shared_ptr<const swarm::CapacityDistribution>;

/// Figure 6(b): BitTyrant upload capacities, on/off publisher (300 s on,
/// 900 s off), arrivals for 1200 s then a bounded drain.
swarm::SwarmSimConfig fig6_config(const CapacityPtr& capacity, std::size_t k,
                                  std::uint64_t seed) {
    swarm::SwarmSimConfig config;
    config.bundle_size = k;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = capacity;
    config.publisher_capacity = 100.0 * swarm::kKBps;
    config.publisher = swarm::PublisherBehavior::kOnOff;
    config.publisher_on_mean = 300.0;
    config.publisher_off_mean = 900.0;
    config.horizon = 1200.0;
    config.drain_after_horizon = true;
    config.drain_deadline_factor = 3.0;
    config.seed = seed;
    return config;
}

struct Sweep {
    std::vector<double> point_s;  ///< wall seconds of each K's replications
    std::uint64_t events = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double scale = 1.0;  ///< to the reference clock (bench.hpp)
    double queue_depth_max = 0.0;
};

/// One K = 1..8 sweep of 20 replications per K on 2 threads. Replications
/// of K start at seed + 1000 K. A seeded replication per K is re-run alone
/// and must match bit for bit.
Sweep run_sweep(const CapacityPtr& capacity, std::uint64_t seed, bool metrics,
                Spans& spans, Result& result) {
    Sweep sweep;
    InputRng pick(derive_seed(seed, "replay"));
    const ClockBracket clock;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    std::vector<std::vector<swarm::SwarmSimResult>> results;
    MetricsRegistry registry;
    for (std::size_t k = 1; k <= kMaxK; ++k) {
        swarm::SwarmSimConfig config = fig6_config(capacity, k, seed + 1000 * k);
        config.metrics = metrics ? &registry : nullptr;
        const double p0 = now_s();
        results.push_back(swarm::run_swarm_replications(config, kReplications,
                                                        sim::ParallelPolicy{kThreads}));
        const double p1 = now_s();
        spans.add("swarm.run_swarm_replications", p0, p1, Spans::kNone, k);
        sweep.point_s.push_back(p1 - p0);
        std::uint64_t events = 0;
        for (const swarm::SwarmSimResult& r : results.back()) {
            events += r.fingerprint_events;
        }
        sweep.events += events;
    }
    sweep.wall_s = now_s() - t0;
    sweep.cpu_s = process_cpu_s() - cpu0;
    sweep.scale = clock.scale();
    sweep.queue_depth_max = max_gauge(registry, "swarm.queue_depth");
    std::size_t mismatched = 0;
    for (std::size_t k = 1; k <= kMaxK; ++k) {
        const std::size_t i = pick.below(kReplications);
        swarm::SwarmSimConfig config = fig6_config(capacity, k, seed + 1000 * k + i);
        const swarm::SwarmSimResult alone = swarm::run_swarm_sim(config);
        mismatched += same_result(alone, results[k - 1][i]) ? 0 : 1;
    }
    result.count(kMaxK, mismatched, "replications match an isolated run bit for bit");
    for (const auto& per_k : results) {
        std::size_t empty = 0;
        for (const swarm::SwarmSimResult& r : per_k) {
            empty += r.fingerprint_events > 0 && r.arrivals > 0 ? 0 : 1;
        }
        result.count(per_k.size(), empty, "every replication ran");
    }
    return sweep;
}

/// sim::EventQueue alone at a workload's live depth, ns per dispatch.
double event_queue_push_pop_ns(std::size_t depth, std::uint64_t seed) {
    // Hold model: `depth` live events; each dispatch schedules one more at
    // an exponential offset, so the depth stays put.
    struct Hold {
        sim::EventQueue queue;
        InputRng rng{0};
        std::uint64_t remaining = 0;
        void fire() {
            if (remaining > 0) {
                --remaining;
                queue.schedule_at(queue.now() + rng.exponential(1.0), [this] { fire(); });
            }
        }
    };
    auto hold = std::make_unique<Hold>();
    hold->rng = InputRng(seed);
    depth = std::max<std::size_t>(depth, 1);
    constexpr std::uint64_t kOps = 400000;
    hold->remaining = kOps;
    for (std::size_t i = 0; i < depth; ++i) {
        Hold* h = hold.get();
        hold->queue.schedule_at(hold->rng.exponential(1.0), [h] { h->fire(); });
    }
    const std::uint64_t before = hold->queue.dispatched();
    const double t0 = now_s();
    while (hold->remaining > 0 && hold->queue.run_next()) {
    }
    const double t1 = now_s();
    const auto ops = static_cast<double>(hold->queue.dispatched() - before);
    return ops > 0 ? (t1 - t0) * 1e9 / ops : 0.0;
}

}  // namespace

void run_catalog_mininova(const Options& options, Spans& spans, Result& result) {
    // Set-up: build the catalog and assign it FixedK(8), repeated so
    // setup_s is a median; the last catalog and plan are kept.
    catalog::Catalog cat;
    catalog::SwarmPlan plan;
    std::vector<double> setup_times;
    std::vector<double> build_times;
    std::vector<double> assign_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        plan.clear();
        cat = catalog::Catalog{};
        const ClockBracket clock;
        const double t0 = now_s();
        cat = catalog::build_catalog(mininova_config());
        const double t1 = now_s();
        plan = catalog::FixedK(8).assign(cat);
        const double t2 = now_s();
        spans.add("catalog.build_catalog", t0, t1);
        spans.add("catalog.assign", t1, t2);
        build_times.push_back(t1 - t0);
        assign_times.push_back(t2 - t1);
        setup_times.push_back((t2 - t0) * clock.scale());
    }
    result.check(cat.files.size() == mininova_config().num_files,
                 "catalog has every file");

    const std::uint64_t seed = derive_seed(options.seed, "catalog") >> 16U;
    struct Run {
        double wall_s = 0.0;
        double cpu_s = 0.0;
        double scale = 1.0;  ///< to the reference clock (bench.hpp)
        std::uint64_t events = 0;
    };
    // What every swarm of a run must reproduce when replayed alone.
    struct Digest {
        std::uint64_t fingerprint = 0;
        std::uint64_t events = 0;
        std::uint64_t arrivals = 0;
        std::uint64_t served = 0;
        bool operator==(const Digest&) const = default;
    };
    auto digest = [](const sim::AvailabilitySimResult& r) {
        return Digest{r.fingerprint, r.fingerprint_events, r.arrivals, r.served};
    };
    std::vector<Digest> digests;
    auto run_once = [&](std::uint64_t run_seed, MetricsRegistry* metrics,
                        SwarmSample* sample, std::size_t sample_size) {
        catalog::CatalogEngineConfig config = engine_config(run_seed);
        config.metrics = metrics;
        const ClockBracket clock;
        const double cpu0 = process_cpu_s();
        const double t0 = now_s();
        catalog::CatalogReport report = catalog::run_catalog_plan(cat, plan, config);
        Run run;
        run.wall_s = now_s() - t0;
        run.cpu_s = process_cpu_s() - cpu0;
        run.scale = clock.scale();
        spans.add("catalog.run_catalog_plan", t0, t0 + run.wall_s);
        for (const catalog::SwarmOutcome& s : report.swarms) {
            run.events += s.result.fingerprint_events;
        }
        check_report(report, plan, result);
        if (sample != nullptr) {
            *sample =
                sample_swarms(report, sample_size, derive_seed(options.seed, "replay"));
            digests.clear();
            for (const catalog::SwarmOutcome& s : report.swarms) {
                digests.push_back(digest(s.result));
            }
        }
        return run;
    };

    if (!options.trace) {
        // Timed: kEngineSeeds engine seeds, each run once per round, rounds
        // until the run's time is up (at least two). Times are taken to the
        // reference clock. Each seed counts with its best round, since host
        // noise only ever slows a run down; the median seed is reported,
        // since the seed moves the cost of the most popular swarms
        // several-fold and a median over five is not moved by one such
        // seed. The critical-path probe runs every round.
        std::vector<std::vector<Run>> per_seed(kEngineSeeds);
        SwarmSample sample;
        double head_s = 0.0;
        const double until = now_s() + options.seconds;
        for (std::size_t round = 0; round < 2 || now_s() < until; ++round) {
            for (std::size_t s = 0; s < kEngineSeeds; ++s) {
                const bool first = round == 0 && s == 0;
                per_seed[s].push_back(run_once(seed + 1000003ULL * s, nullptr,
                                               first ? &sample : nullptr, 2000));
            }
            const ClockBracket clock;
            const double head =
                head_swarm_seconds(cat, plan, false, result) * clock.scale();
            head_s = round == 0 ? head : std::min(head_s, head);
        }
        replay_swarms(cat, plan, engine_config(seed), sample, spans, result);
        // Every swarm of the first seed's run replayed alone must reproduce
        // its digest; its thread CPU time gives the per-swarm tail (printed).
        std::vector<double> swarm_us;
        swarm_us.reserve(plan.size());
        std::size_t mismatched = 0;
        const catalog::CatalogEngineConfig first = engine_config(seed);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const sim::AvailabilitySimConfig config =
                catalog::swarm_sim_config(cat, plan, i, first);
            const double cpu0 = thread_cpu_s();
            const sim::AvailabilitySimResult alone = sim::run_availability_sim(config);
            swarm_us.push_back((thread_cpu_s() - cpu0) * 1e6);
            mismatched += i < digests.size() && digest(alone) == digests[i] ? 0 : 1;
        }
        result.count(plan.size(), mismatched,
                     "every swarm replayed alone reproduces its catalog result");
        const auto files = static_cast<double>(cat.files.size());
        std::vector<double> best_walls;
        std::vector<double> best_cpu_per_file;
        std::vector<double> raw_walls;
        double cpu_s = 0.0;
        for (const std::vector<Run>& runs : per_seed) {
            double wall = runs.front().wall_s * runs.front().scale;
            double cpu = runs.front().cpu_s * runs.front().scale;
            double raw = runs.front().wall_s;
            for (const Run& r : runs) {
                wall = std::min(wall, r.wall_s * r.scale);
                cpu = std::min(cpu, r.cpu_s * r.scale);
                raw = std::min(raw, r.wall_s);
                cpu_s += r.cpu_s;
                result.check(r.events == runs.front().events,
                             "event count repeats with the same seed");
            }
            best_walls.push_back(wall);
            best_cpu_per_file.push_back(cpu * 1e6 / files);
            raw_walls.push_back(raw);
        }
        const double wall = median(best_walls);
        std::string seed_walls;
        for (const double w : best_walls) {
            seed_walls += (seed_walls.empty() ? "" : ", ") + format_number(w);
        }
        result.note("cpu_s = " + format_number(cpu_s) + " s  (all runs)");
        result.note("files_per_s = " + format_number(files / wall) + " 1/s  (median of " +
                    std::to_string(kEngineSeeds) + " engine seeds, each its best of " +
                    std::to_string(per_seed.front().size()) + " runs of " +
                    std::to_string(cat.files.size()) + " files in " +
                    std::to_string(plan.size()) +
                    " swarms; best run per seed at the reference clock: " + seed_walls +
                    " s; as measured, median seed " + format_number(median(raw_walls)) +
                    " s)");
        const double swarm_p99_us = quantile(swarm_us, 0.99);
        result.note("swarm_p99_us = " + format_number(swarm_p99_us) +
                    " us  (thread CPU of " + std::to_string(swarm_us.size()) +
                    " swarms replayed alone)");
        result.metric("setup_s", median(setup_times), "s");
        result.metric("throughput_per_s", files / wall, "1/s");
        result.metric("latency_p50_ms", wall * 1e3, "ms");
        result.metric("latency_tail_ms", head_s * 1e3, "ms");
        result.metric("cpu_us_per_item", median(best_cpu_per_file), "us");
        return;
    }

    // Traced run: the same catalog untraced, then with a metrics registry
    // and spans; per-swarm costs from a seeded sample replayed in isolation.
    const Run plain = run_once(seed, nullptr, nullptr, 0);
    MetricsRegistry registry;
    SwarmSample sample;
    const Run traced = run_once(seed, &registry, &sample, 2000);
    result.check(traced.events == plain.events, "event count repeats with the same seed");
    const ReplayStats replay =
        replay_swarms(cat, plan, engine_config(seed), sample, spans, result);
    const double files = static_cast<double>(cat.files.size());
    result.metric("catalog.build_s", median(build_times), "s");
    result.metric("catalog.assign_s", median(assign_times), "s");
    result.metric("catalog.run_s", traced.wall_s, "s");
    result.metric("catalog.swarms", static_cast<double>(plan.size()), "count");
    result.metric("catalog.swarm_us.p50", quantile(replay.swarm_us, 0.5), "us");
    result.metric("catalog.swarm_us.p99", quantile(replay.swarm_us, 0.99), "us");
    result.metric("sim.events", static_cast<double>(traced.events), "count");
    result.metric("sim.ns_per_event",
                  traced.cpu_s * 1e9 / static_cast<double>(traced.events), "ns");
    result.metric("sim.queue_depth.max", replay.queue_depth_max, "count");
    result.metric("event_queue.push_pop_ns",
                  event_queue_push_pop_ns(
                      static_cast<std::size_t>(replay.queue_depth_max),
                      derive_seed(options.seed, "queue")),
                  "ns");
    result.metric("parallel.utilization",
                  traced.cpu_s / (static_cast<double>(kThreads) * traced.wall_s),
                  "ratio");
    const double head_plain = head_swarm_seconds(cat, plan, false, result);
    const double head_traced = head_swarm_seconds(cat, plan, true, result);
    result.metric("trace.overhead.latency_p50_ms", (traced.wall_s - plain.wall_s) * 1e3,
                  "ms");
    result.metric("catalog.head_swarm_ms", head_plain * 1e3, "ms");
    result.metric("trace.overhead.latency_tail_ms", (head_traced - head_plain) * 1e3,
                  "ms");
    result.metric("trace.overhead.cpu_us_per_item",
                  (traced.cpu_s - plain.cpu_s) * 1e6 / files, "us");
}

void run_swarm_fig6(const Options& options, Spans& spans, Result& result) {
    // Set-up: the capacity mixture plus one replication per K at a seed the
    // sweeps never use, so code and allocator are warm before timing.
    CapacityPtr capacity;
    std::vector<double> setup_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const ClockBracket clock;
        const double t0 = now_s();
        capacity = std::make_shared<swarm::BitTyrantCapacity>();
        for (std::size_t k = 1; k <= kMaxK; ++k) {
            // One seed for every repetition: the seed moves a replication's
            // cost more than two-fold, and the median is over repetitions of
            // one set-up.
            const swarm::SwarmSimResult warm =
                swarm::run_swarm_sim(fig6_config(capacity, k, 0x5eed0000ULL));
            result.check(warm.arrivals > 0, "warm-up replication ran");
        }
        const double t1 = now_s();
        setup_times.push_back((t1 - t0) * clock.scale());
        spans.add("setup.warm_up", t0, t1);
    }

    const std::uint64_t seed = derive_seed(options.seed, "swarm") >> 24U;
    if (!options.trace) {
        // Sweeps until the run's time is up (at least two), each on its own
        // seeds: the seed moves a K point's cost by half, so every figure
        // pools all sweeps. Times are taken to the reference clock.
        std::vector<Sweep> sweeps;
        const double until = now_s() + options.seconds;
        do {
            const std::uint64_t sweep_seed = seed + 100000 * sweeps.size();
            sweeps.push_back(run_sweep(capacity, sweep_seed, false, spans, result));
        } while (sweeps.size() < 2 || now_s() < until);
        std::vector<double> point_ms(kMaxK, 0.0);  ///< mean over sweeps
        double events = 0.0;
        double wall_s = 0.0;
        double cpu_s = 0.0;
        double raw_wall_s = 0.0;
        double raw_cpu_s = 0.0;
        for (const Sweep& sweep : sweeps) {
            for (std::size_t k = 0; k < kMaxK; ++k) {
                point_ms[k] += sweep.point_s[k] * sweep.scale * 1e3 /
                               static_cast<double>(sweeps.size());
            }
            events += static_cast<double>(sweep.events);
            wall_s += sweep.wall_s * sweep.scale;
            cpu_s += sweep.cpu_s * sweep.scale;
            raw_wall_s += sweep.wall_s;
            raw_cpu_s += sweep.cpu_s;
        }
        result.note("cpu_s = " + format_number(raw_cpu_s) + " s  (all sweeps)");
        result.note("sim_events_per_s = " + format_number(events / wall_s) +
                    " 1/s  (reference clock; " + format_number(events / raw_wall_s) +
                    " as measured; " + format_number(events) + " events in " +
                    std::to_string(sweeps.size()) + " sweeps)");
        result.metric("setup_s", median(setup_times), "s");
        result.metric("throughput_per_s", events / wall_s, "1/s");
        result.metric("latency_p50_ms", median(point_ms), "ms");
        result.metric("latency_tail_ms",
                      *std::max_element(point_ms.begin(), point_ms.end()), "ms");
        result.metric("cpu_us_per_item", cpu_s * 1e6 / events, "us");
        return;
    }

    // Traced run: one sweep untraced, one with metrics and spans, then
    // single replications timed alone for per-replication costs.
    const Sweep plain = run_sweep(capacity, seed, false, spans, result);
    const Sweep traced = run_sweep(capacity, seed, true, spans, result);
    result.check(plain.events == traced.events, "event count repeats with the same seed");
    std::vector<double> rep_ms;
    double ns_k1 = 0.0;
    double ns_k8 = 0.0;
    for (std::size_t k = 1; k <= kMaxK; ++k) {
        double cpu = 0.0;
        std::uint64_t events = 0;
        for (std::uint64_t i = 0; i < 4; ++i) {
            const double cpu0 = process_cpu_s();
            const double t0 = now_s();
            const swarm::SwarmSimResult r =
                swarm::run_swarm_sim(fig6_config(capacity, k, seed + 1000 * k + i));
            const double t1 = now_s();
            cpu += process_cpu_s() - cpu0;
            events += r.fingerprint_events;
            rep_ms.push_back((t1 - t0) * 1e3);
            spans.add("swarm.run_swarm_sim", t0, t1, Spans::kNone, k);
        }
        const double ns =
            cpu * 1e9 / static_cast<double>(std::max<std::uint64_t>(events, 1));
        ns_k1 = k == 1 ? ns : ns_k1;
        ns_k8 = k == kMaxK ? ns : ns_k8;
    }
    const auto ev = static_cast<double>(traced.events);
    result.metric("swarm.events", ev, "count");
    result.metric("swarm.replication_ms.p50", quantile(rep_ms, 0.5), "ms");
    result.metric("swarm.replication_ms.max",
                  *std::max_element(rep_ms.begin(), rep_ms.end()), "ms");
    result.metric("swarm.ns_per_event.k1", ns_k1, "ns");
    result.metric("swarm.ns_per_event.k8", ns_k8, "ns");
    result.metric("sim.events", ev, "count");
    result.metric("sim.ns_per_event", traced.cpu_s * 1e9 / ev, "ns");
    result.metric("sim.queue_depth.max", traced.queue_depth_max, "count");
    result.metric("event_queue.push_pop_ns",
                  event_queue_push_pop_ns(
                      static_cast<std::size_t>(traced.queue_depth_max),
                      derive_seed(options.seed, "queue")),
                  "ns");
    result.metric("parallel.utilization",
                  traced.cpu_s / (static_cast<double>(kThreads) * traced.wall_s),
                  "ratio");
    auto p50 = [](const Sweep& s) { return quantile(s.point_s, 0.5) * 1e3; };
    auto p99 = [](const Sweep& s) { return quantile(s.point_s, 0.99) * 1e3; };
    result.metric("trace.overhead.latency_p50_ms", p50(traced) - p50(plain), "ms");
    result.metric("trace.overhead.latency_tail_ms", p99(traced) - p99(plain), "ms");
    result.metric("trace.overhead.cpu_us_per_item",
                  (traced.cpu_s - plain.cpu_s) * 1e6 / ev, "us");
}

}  // namespace perfbench
