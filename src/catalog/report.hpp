// Catalog-run results: per-swarm and per-file outcomes plus catalog-wide
// aggregates, with deterministic serialization.
//
// A CatalogReport is assembled from per-swarm AvailabilitySimResults in
// swarm-index order, so its content is a pure function of (catalog, plan,
// engine config) — independent of thread count or execution mode. The
// JSON writer uses lossless double formatting, so two reports are
// bit-identical iff their serializations compare equal (the acceptance
// tests rely on this).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "catalog/bundling_policy.hpp"
#include "model/params.hpp"
#include "sim/availability_sim.hpp"

namespace swarmavail {
class MetricsRegistry;
}  // namespace swarmavail

namespace swarmavail::catalog {

/// One simulated swarm's outcome.
struct SwarmOutcome {
    std::size_t swarm = 0;          ///< index in the plan
    SwarmFiles files;               ///< member file ids
    model::SwarmParams params;      ///< aggregated simulation parameters
    sim::AvailabilitySimResult result;
};

/// One file's view of its swarm's outcome (files in a swarm share fate:
/// a request for any member is served iff the swarm is available).
struct FileOutcome {
    std::size_t file = 0;
    double demand_rate = 0.0;
    std::size_t swarm = 0;
    std::size_t bundle_size = 0;
    double arrival_unavailability = 0.0;
    double unavailable_time_fraction = 0.0;
    double mean_download_time = 0.0;  ///< swarm mean over served peers (0 if none)
};

/// Whole-catalog aggregates plus the per-swarm / per-file breakdowns.
struct CatalogReport {
    std::vector<SwarmOutcome> swarms;
    std::vector<FileOutcome> files;

    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t lost = 0;
    std::uint64_t stranded = 0;

    /// Sum over files of lambda_f * U_f / Lambda with U_f the file's
    /// arrival unavailability: the probability a catalog request finds its
    /// content unavailable.
    double demand_weighted_unavailability = 0.0;
    /// Pooled mean download time over every served peer in the catalog (s).
    double mean_download_time = 0.0;
    /// Demand-weighted mean of per-swarm unavailable-time fractions.
    double demand_weighted_unavailable_time = 0.0;
    /// Mean over swarms of the time fraction with >= 1 publisher online.
    double mean_publisher_online_fraction = 0.0;
    /// Total publisher up-transitions across swarms: how many reseedings
    /// the catalog's publishers performed (the publisher-load price).
    std::uint64_t publisher_up_transitions = 0;
    /// Offered publisher load sum_i r_i * u_i: mean publishers online if
    /// never idle-capped; dedicated assignment scales it with swarm count,
    /// a partitioned budget keeps it constant.
    double expected_publisher_load = 0.0;

    /// Catalog-wide determinism fingerprint: every covered swarm's
    /// (index, digest, event count) folded in swarm-index order (see
    /// sim/fingerprint.hpp). A pure function of the per-swarm digests, so
    /// runs at any thread count, and the shared-queue test oracle, must
    /// agree here.
    /// 0 when fingerprinting was off or compiled out.
    std::uint64_t fingerprint = 0;

    /// Swarms in the plan the run was asked to execute (== swarms.size()
    /// unless a StopRule ended the run early).
    std::size_t swarms_planned = 0;
    /// True when a StopRule cut the run short: `swarms` and `files` then
    /// cover only the swarms that completed (original indices preserved)
    /// and the demand-weighted aggregates are normalized over the covered
    /// demand rather than the whole catalog's.
    bool stopped_early = false;
};

/// Builds the report from per-swarm results (index order). `params` and
/// `results` must parallel `plan`.
[[nodiscard]] CatalogReport build_report(const Catalog& catalog, const SwarmPlan& plan,
                                         const std::vector<model::SwarmParams>& params,
                                         std::vector<sim::AvailabilitySimResult> results);

/// Early-stop variant: `completed` parallels `plan` and marks the swarms
/// that actually ran. Only completed swarms (original indices preserved)
/// and their files appear in the report, and the demand-weighted aggregates
/// are normalized over the covered demand. With every swarm marked
/// completed this still uses the partial accumulation path — callers with a
/// full run should use build_report, whose output is byte-stable.
[[nodiscard]] CatalogReport build_partial_report(
    const Catalog& catalog, const SwarmPlan& plan,
    const std::vector<model::SwarmParams>& params,
    std::vector<sim::AvailabilitySimResult> results,
    const std::vector<char>& completed);

/// Records the catalog-wide aggregates and per-swarm distributions into a
/// registry under "catalog.*" names (counters for peer totals, histograms
/// over per-swarm unavailability / download time / publisher uptime,
/// gauges for the weighted aggregates). Deterministic: metrics are folded
/// in swarm-index order.
void record_metrics(const CatalogReport& report, MetricsRegistry& metrics);

/// Writes the full report as one JSON object with lossless doubles;
/// bit-identical runs serialize to byte-identical JSON.
void write_json(const CatalogReport& report, std::ostream& os);

/// Human-readable summary: catalog-wide aggregates plus the head/tail of
/// the per-file table.
void write_summary(const CatalogReport& report, std::ostream& os);

}  // namespace swarmavail::catalog
