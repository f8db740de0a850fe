#include "catalog/catalog_engine.hpp"

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/availability_process.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"

namespace swarmavail::catalog {
namespace {

/// Telemetry name under which the engine tracks per-swarm arrival
/// unavailability (the estimate catalog stop rules target).
constexpr const char* kUnavailabilityTrack = "catalog.swarm_unavailability";

std::vector<sim::AvailabilitySimConfig> swarm_configs(const Catalog& catalog,
                                                      const SwarmPlan& plan,
                                                      const CatalogEngineConfig& config) {
    std::vector<sim::AvailabilitySimConfig> configs;
    configs.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        configs.push_back(swarm_sim_config(catalog, plan, i, config));
    }
    return configs;
}

/// Announces a catalog run to an attached session: total swarm count and
/// the simulated seconds the run intends to execute.
void publish_run_shape(const CatalogEngineConfig& config, std::size_t swarms) {
#if !defined(SWARMAVAIL_TELEMETRY_DISABLED)
    if (config.telemetry != nullptr) {
        telemetry::RunCounters& counters = config.telemetry->counters();
        counters.swarms_total.fetch_add(swarms, std::memory_order_relaxed);
        telemetry::atomic_add(counters.sim_time_target,
                              config.horizon * static_cast<double>(swarms));
    }
#else
    (void)config;
    (void)swarms;
#endif
}

/// A sharded run's output: per-swarm results plus which swarms actually
/// ran (all of them, unless a stop rule fired).
struct ShardedRun {
    std::vector<sim::AvailabilitySimResult> results;
    std::vector<char> completed;
    bool stopped_early = false;
};

/// The sharded engine: per-swarm private queues fanned over the pool;
/// per-index result slots make any thread count bit-identical to serial.
/// The per-swarm simulation inlines run_availability_sim (same statements,
/// same validation and failure routing) so the engine can read the private
/// queue's dispatch count after each swarm finishes.
ShardedRun run_sharded(const std::vector<sim::AvailabilitySimConfig>& configs,
                       const CatalogEngineConfig& config) {
    SWARMAVAIL_PROF_SCOPE("catalog.sharded");
    ShardedRun run;
    run.results.resize(configs.size());
    run.completed.assign(configs.size(), 0);

    const bool stoppable =
        config.stop_rule.has_value() && config.stop_rule->ci95_target > 0.0;
    std::atomic<bool> stop{false};
    std::mutex observed_mutex;
    StreamingStats observed;  // completion-order; drives the stop decision only

    telemetry::RunCounters* counters = nullptr;
#if !defined(SWARMAVAIL_TELEMETRY_DISABLED)
    if (config.telemetry != nullptr) {
        counters = &config.telemetry->counters();
    }
#endif
    sim::Parallel::for_index(
        configs.size(), config.policy,
        [&](std::size_t i) {
            if (stoppable && stop.load(std::memory_order_acquire)) {
                return;
            }
            sim::EventQueue queue;
            queue.set_audit(configs[i].debug_audit);
            sim::AvailabilityProcess process{queue, configs[i]};
            process.start();
            try {
                queue.run_until(configs[i].horizon);
            } catch (const CheckFailure& failure) {
                trace_check_failure(configs[i].tracer, queue.now(), failure);
                throw;
            }
            run.results[i] = process.finish();
            run.completed[i] = 1;
            SWARMAVAIL_TELEMETRY(config.telemetry,
                                 counters().swarms_completed.fetch_add(
                                     1, std::memory_order_relaxed));
            SWARMAVAIL_TELEMETRY(config.telemetry,
                                 counters().events_dispatched.fetch_add(
                                     queue.dispatched(), std::memory_order_relaxed));
#if !defined(SWARMAVAIL_TELEMETRY_DISABLED)
            if (config.telemetry != nullptr) {
                telemetry::atomic_add(config.telemetry->counters().sim_time_advanced,
                                      configs[i].horizon);
            }
#endif
            const double unavailability = run.results[i].arrival_unavailability;
            SWARMAVAIL_TELEMETRY(config.telemetry,
                                 tracker().observe(kUnavailabilityTrack,
                                                   unavailability));
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
            SWARMAVAIL_TELEMETRY(config.telemetry,
                                 counters().fingerprint_xor.fetch_xor(
                                     run.results[i].fingerprint,
                                     std::memory_order_relaxed));
#endif
            if (stoppable) {
                const std::lock_guard<std::mutex> lock(observed_mutex);
                observed.add(unavailability);
                if (config.stop_rule->satisfied(observed)) {
                    stop.store(true, std::memory_order_release);
                }
            }
        },
        counters);
    for (char completed : run.completed) {
        if (completed == 0) {
            run.stopped_early = true;
            break;
        }
    }
    return run;
}

}  // namespace

sim::AvailabilitySimConfig swarm_sim_config(const Catalog& catalog,
                                            const SwarmPlan& plan,
                                            std::size_t swarm_index,
                                            const CatalogEngineConfig& config) {
    SWARMAVAIL_REQUIRE(swarm_index < plan.size(),
                       "swarm_sim_config: swarm index out of range");
    sim::AvailabilitySimConfig swarm_config;
    swarm_config.params = swarm_params(catalog, plan[swarm_index], plan.size());
    swarm_config.coverage_threshold = config.coverage_threshold;
    swarm_config.patient_peers = config.patient_peers;
    swarm_config.linger_time = config.linger_time;
    swarm_config.horizon = config.horizon;
    swarm_config.seed = config.seed + swarm_index;
    swarm_config.debug_audit = config.debug_audit;
    // Per-swarm metrics stay unbound: the engine aggregates through the
    // report instead, so a swarm's output depends on its config alone (on a
    // queue shared with other swarms, "avail.queue_depth" would count their
    // events too).
    swarm_config.metrics = nullptr;
    swarm_config.tracer =
        swarm_index == config.traced_swarm ? config.tracer : nullptr;
    swarm_config.fingerprint = config.fingerprint;
    return swarm_config;
}

CatalogReport run_catalog_plan(const Catalog& catalog, const SwarmPlan& plan,
                               const CatalogEngineConfig& config) {
    catalog.config.validate();
    SWARMAVAIL_REQUIRE(config.horizon > 0.0, "run_catalog: horizon must be > 0");
    SWARMAVAIL_REQUIRE(
        config.traced_swarm == kNoTracedSwarm || config.traced_swarm < plan.size(),
        "run_catalog: traced_swarm out of range");
    validate_swarm_plan(catalog, plan);
    publish_run_shape(config, plan.size());

    const auto configs = swarm_configs(catalog, plan, config);
    std::vector<model::SwarmParams> params;
    params.reserve(configs.size());
    for (const sim::AvailabilitySimConfig& swarm_config : configs) {
        params.push_back(swarm_config.params);
    }

    ShardedRun run = run_sharded(configs, config);
    CatalogReport report =
        run.stopped_early
            ? build_partial_report(catalog, plan, params, std::move(run.results),
                                   run.completed)
            : build_report(catalog, plan, params, std::move(run.results));
    if (config.metrics != nullptr) {
        record_metrics(report, *config.metrics);
    }
    return report;
}

CatalogReport run_catalog(const Catalog& catalog, const BundlingPolicy& policy,
                          const CatalogEngineConfig& config) {
    return run_catalog_plan(catalog, policy.assign(catalog), config);
}

}  // namespace swarmavail::catalog
