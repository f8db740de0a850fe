#include "swarm/piece_set.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/random.hpp"

namespace swarmavail::swarm {
namespace {

TEST(PieceSet, StartsEmpty) {
    const PieceSet set{8};
    EXPECT_EQ(set.size(), 8u);
    EXPECT_EQ(set.count(), 0u);
    EXPECT_TRUE(set.empty());
    EXPECT_FALSE(set.is_complete());
    EXPECT_DOUBLE_EQ(set.fraction(), 0.0);
}

TEST(PieceSet, AddAndQuery) {
    PieceSet set{4};
    set.add(1);
    set.add(3);
    EXPECT_TRUE(set.has(1));
    EXPECT_TRUE(set.has(3));
    EXPECT_FALSE(set.has(0));
    EXPECT_EQ(set.count(), 2u);
    EXPECT_DOUBLE_EQ(set.fraction(), 0.5);
}

TEST(PieceSet, DoubleAddIsIdempotent) {
    PieceSet set{4};
    set.add(2);
    set.add(2);
    EXPECT_EQ(set.count(), 1u);
}

TEST(PieceSet, CompletionDetection) {
    PieceSet set{3};
    set.add(0);
    set.add(1);
    EXPECT_FALSE(set.is_complete());
    set.add(2);
    EXPECT_TRUE(set.is_complete());
    EXPECT_DOUBLE_EQ(set.fraction(), 1.0);
}

TEST(PieceSet, CompleteFactory) {
    const auto set = PieceSet::complete(5);
    EXPECT_TRUE(set.is_complete());
    EXPECT_EQ(set.count(), 5u);
    for (std::size_t p = 0; p < 5; ++p) {
        EXPECT_TRUE(set.has(p));
    }
}

TEST(PieceSet, BoundsChecking) {
    PieceSet set{2};
    EXPECT_THROW((void)set.has(2), std::invalid_argument);
    EXPECT_THROW(set.add(5), std::invalid_argument);
    EXPECT_THROW(set.remove(2), std::invalid_argument);
    EXPECT_THROW((PieceSet{0}), std::invalid_argument);
}

PieceSet random_set(std::size_t pieces, double density, Rng& rng) {
    PieceSet set{pieces};
    for (std::size_t p = 0; p < pieces; ++p) {
        if (rng.uniform() < density) {
            set.add(p);
        }
    }
    return set;
}

TEST(PieceSet, MaskedEnumerationMatchesPerPieceReference) {
    // 1 and 63 pieces sit in the inline word with a tail mask, 64 fills it
    // exactly, 65 and 130 spill to heap words with a partial last word.
    Rng rng{31};
    for (const std::size_t pieces : {1U, 63U, 64U, 65U, 130U}) {
        for (int trial = 0; trial < 50; ++trial) {
            const PieceSet have = random_set(pieces, rng.uniform(), rng);
            const PieceSet excluded = random_set(pieces, rng.uniform(), rng);
            const PieceSet mask = trial == 0 ? PieceSet::complete(pieces)
                                             : random_set(pieces, rng.uniform(), rng);
            std::vector<std::size_t> expected;
            for (std::size_t p = 0; p < pieces; ++p) {
                if (!have.has(p) && !excluded.has(p) && mask.has(p)) {
                    expected.push_back(p);
                }
            }
            std::vector<std::size_t> visited;
            have.for_each_missing_masked(excluded, mask,
                                         [&](std::size_t p) { visited.push_back(p); });
            EXPECT_EQ(visited, expected) << pieces << " pieces, trial " << trial;
        }
    }
}

TEST(PieceSet, MaskedEnumerationRejectsSizeMismatch) {
    const PieceSet have{65};
    const PieceSet small{64};
    const PieceSet same{65};
    const auto ignore = [](std::size_t) {};
    EXPECT_THROW(have.for_each_missing_masked(small, same, ignore),
                 std::invalid_argument);
    EXPECT_THROW(have.for_each_missing_masked(same, small, ignore),
                 std::invalid_argument);
}

}  // namespace
}  // namespace swarmavail::swarm
