// Multi-swarm discrete-event engine: simulates every swarm of a bundled
// catalog in one run.
//
// Given a policy's SwarmPlan, the engine builds one AvailabilityProcess per
// swarm (seeded seed + swarm_index) and runs each swarm on its own private
// EventQueue, fanned across sim::Parallel with per-index result buffering
// and index-order merge — the same determinism contract as
// run_replications, so every thread count (including 1) produces a
// bit-identical CatalogReport.
//
// Swarms in the plan are statistically independent given the policy (they
// share no peers, no publishers, no capacity), which is what makes the
// per-swarm execution exact. Each process draws randomness only in its own
// handlers from its own Rng, so interleaving every swarm on one queue gives
// the same report bit for bit; tests/catalog/shared_queue_oracle.hpp runs
// that interleaving as a test oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "catalog/bundling_policy.hpp"
#include "catalog/report.hpp"
#include "sim/availability_sim.hpp"
#include "sim/parallel.hpp"
#include "util/telemetry.hpp"

namespace swarmavail {
class MetricsRegistry;
}  // namespace swarmavail

namespace swarmavail::sim {
class Tracer;
}  // namespace swarmavail::sim

namespace swarmavail::catalog {

/// How the engine executes the per-swarm processes. There is one mode; the
/// enum and CatalogEngineConfig::execution remain only because the
/// benchmark's workload code (perfbench/src/sim_workloads.cpp) still
/// assigns them. Delete both once it stops doing so.
enum class ExecutionMode {
    kSharded,  ///< private queue per swarm, parallel fan-out
};

/// Sentinel: no swarm is traced.
inline constexpr std::size_t kNoTracedSwarm = std::numeric_limits<std::size_t>::max();

/// Configuration of one catalog run.
struct CatalogEngineConfig {
    double horizon = 1.0e5;              ///< simulated seconds per swarm
    std::uint64_t seed = 1;              ///< swarm i runs with seed + i
    std::size_t coverage_threshold = 1;  ///< m, per swarm
    bool patient_peers = true;           ///< wait for a publisher vs leave
    double linger_time = 0.0;            ///< post-completion seeding (s)
    bool debug_audit = false;            ///< per-event invariant audits
    /// The only mode; kept for the benchmark (see ExecutionMode).
    ExecutionMode execution = ExecutionMode::kSharded;
    /// Thread policy. Results are bit-identical at every thread count.
    sim::ParallelPolicy policy{};
    /// Optional registry receiving the "catalog.*" aggregates (see
    /// report.hpp record_metrics). Must outlive the call.
    MetricsRegistry* metrics = nullptr;
    /// Optional tracer attached to exactly one swarm of the run, so a
    /// single swarm can be replayed out of a catalog (trace_inspect on the
    /// JSONL output). kNoTracedSwarm: no tracing. The traced swarm's
    /// records are identical to tracing it in an isolated run.
    sim::Tracer* tracer = nullptr;
    std::size_t traced_swarm = kNoTracedSwarm;
    /// Optional live-telemetry session. Pure observer: swarm progress,
    /// dispatched-event and sim-time counters, and per-swarm arrival
    /// unavailability (tracked as "catalog.swarm_unavailability") are
    /// published as swarms complete; the report is bit-identical attached
    /// or detached.
    telemetry::TelemetrySession* telemetry = nullptr;
    /// Optional early stop over per-swarm arrival unavailability: once the
    /// rule is satisfied by the swarms completed so far, remaining swarms
    /// are skipped and the report covers only the swarms that ran
    /// (stopped_early = true, demand weights renormalized over the covered
    /// files). Under ParallelPolicy{1} the covered prefix is
    /// deterministic; with more threads the cut point depends on
    /// scheduling, which is why the decision is recorded in the report.
    std::optional<telemetry::StopRule> stop_rule{};
    /// Determinism fingerprints (see sim/fingerprint.hpp): every swarm
    /// folds its own event path process-side — queue-agnostic, so a swarm
    /// digests identically on a private or a shared queue — and the report
    /// combines the per-swarm digests in swarm-index order into one
    /// catalog-wide fingerprint. Pure observer; ignored when the build defines
    /// SWARMAVAIL_FINGERPRINT_DISABLED.
    bool fingerprint = true;
};

/// The simulation config the engine uses for swarm `swarm_index` of `plan`.
/// Exposed so tests and tools can replay one swarm of a catalog run in
/// isolation (bit-exactly) with run_availability_sim.
[[nodiscard]] sim::AvailabilitySimConfig swarm_sim_config(
    const Catalog& catalog, const SwarmPlan& plan, std::size_t swarm_index,
    const CatalogEngineConfig& config);

/// Runs every swarm of `policy.assign(catalog)` and aggregates the report.
/// Validates the plan (every file in exactly one swarm) before running.
[[nodiscard]] CatalogReport run_catalog(const Catalog& catalog,
                                        const BundlingPolicy& policy,
                                        const CatalogEngineConfig& config);

/// Same, for a pre-computed plan.
[[nodiscard]] CatalogReport run_catalog_plan(const Catalog& catalog,
                                             const SwarmPlan& plan,
                                             const CatalogEngineConfig& config);

}  // namespace swarmavail::catalog
