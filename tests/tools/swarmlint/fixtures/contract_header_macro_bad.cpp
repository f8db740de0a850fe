// swarmlint-fixture-path: src/swarm/fixture_hot.hpp
// swarmlint-expect: contract-header-macro
// swarmlint-expect: contract-header-macro
#pragma once

#include <cstddef>

#include "util/error.hpp"

namespace swarmavail::swarm {

inline std::size_t checked_slot(std::size_t slot, std::size_t slots) {
    require(slot < slots, "checked_slot: slot out of range");
    return slot;
}

inline void check_balance(long balance) {
    swarmavail::ensure(balance >= 0, "check_balance: negative balance");
}

}  // namespace swarmavail::swarm
