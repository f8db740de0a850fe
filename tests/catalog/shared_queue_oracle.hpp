// Test oracle for the catalog engine: every swarm of a plan interleaved on
// ONE EventQueue on the calling thread, like a single-queue network
// simulator that owns one global queue and all of its components.
//
// Each AvailabilityProcess draws randomness only in its own handlers from
// its own Rng and schedules only its own events, so sharing the queue
// cannot perturb any swarm's sample path. The oracle's report must
// therefore equal run_catalog_plan's bit for bit: per-swarm digests, event
// counts, the lossless JSON and the traced swarm's records.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "catalog/report.hpp"
#include "sim/availability_process.hpp"
#include "sim/event_queue.hpp"

namespace swarmavail::catalog {

/// Runs every swarm of `plan` on one shared queue up to the horizon and
/// builds the report from the results in swarm-index order.
[[nodiscard]] inline CatalogReport shared_queue_oracle(
    const Catalog& catalog, const SwarmPlan& plan, const CatalogEngineConfig& config) {
    sim::EventQueue queue;
    queue.set_audit(config.debug_audit);
    std::vector<sim::AvailabilityProcess> swarms;
    std::vector<model::SwarmParams> params;
    swarms.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        swarms.emplace_back(queue, swarm_sim_config(catalog, plan, i, config));
        params.push_back(swarms.back().config().params);
    }
    for (sim::AvailabilityProcess& swarm : swarms) {
        swarm.start();
    }
    queue.run_until(config.horizon);
    std::vector<sim::AvailabilitySimResult> results;
    for (sim::AvailabilityProcess& swarm : swarms) {
        results.push_back(swarm.finish());
    }
    return build_report(catalog, plan, params, std::move(results));
}

}  // namespace swarmavail::catalog
