// swarmlint-fixture-path: src/swarm/fixture_hot_macro.hpp
#pragma once

#include <cstddef>

#include "util/check.hpp"

namespace swarmavail::swarm {

// A comment naming require(x) is not a call.
inline std::size_t checked_slot(std::size_t slot, std::size_t slots) {
    SWARMAVAIL_REQUIRE(slot < slots, "checked_slot: slot out of range");
    return slot;
}

template <typename Policy>
bool admits(const Policy& policy, long balance) {
    SWARMAVAIL_INVARIANT(balance >= 0, "admits: negative balance");
    return policy.require(balance) && policy->ensure(balance);
}

}  // namespace swarmavail::swarm
// swarmlint-fixture-path: src/swarm/fixture_cold.cpp
#include "util/error.hpp"

namespace swarmavail::swarm {

void validate_pieces(int pieces) { require(pieces > 0, "pieces must be positive"); }

}  // namespace swarmavail::swarm
// swarmlint-fixture-path: src/util/error.hpp
#pragma once

namespace swarmavail {

inline void require(bool condition, const char* message);
inline void ensure(bool invariant, const char* message) { require(invariant, message); }

}  // namespace swarmavail
