// The fixed-seed Figure 6(b) replication at K = 8 that several swarm tests
// share: the fingerprint goldens, the allocation, pump-pass and pump-scan
// gates, and the audit-neutrality check.
#pragma once

#include <memory>

#include "swarm/capacity.hpp"
#include "swarm/swarm_sim.hpp"

namespace swarmavail::swarm {

/// Figure 6(b) at K = 8: BitTyrant capacities, on/off publisher (300 s on,
/// 900 s off), arrivals for 1200 s, then a drain of up to 3x that. Seed
/// 8009 dispatches 10,144 events.
inline SwarmSimConfig fig6_k8_config() {
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
    return config;
}

}  // namespace swarmavail::swarm
