#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/stats.hpp"

namespace swarmavail {
namespace {

TEST(Rng, SameSeedSameStream) {
    Rng a{123};
    Rng b{123};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
    Rng a{1};
    Rng b{2};
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng{7};
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanAndVariance) {
    Rng rng{11};
    StreamingStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(rng.uniform());
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng{13};
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-3.0, 5.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformRangeRejectsEmptyInterval) {
    Rng rng{13};
    EXPECT_THROW((void)rng.uniform(2.0, 2.0), std::invalid_argument);
    EXPECT_THROW((void)rng.uniform(3.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversAllValues) {
    Rng rng{17};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_index(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexRejectsZero) {
    Rng rng{17};
    EXPECT_THROW((void)rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatches) {
    Rng rng{19};
    StreamingStats stats;
    for (int i = 0; i < 200000; ++i) {
        stats.add(rng.exponential_mean(42.0));
    }
    EXPECT_NEAR(stats.mean(), 42.0, 0.5);
    // Exponential: stddev == mean.
    EXPECT_NEAR(stats.stddev(), 42.0, 1.0);
}

TEST(Rng, ExponentialRateIsReciprocalMean) {
    Rng rng{23};
    StreamingStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(rng.exponential_rate(0.25));
    }
    EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositive) {
    Rng rng{23};
    EXPECT_THROW((void)rng.exponential_mean(0.0), std::invalid_argument);
    EXPECT_THROW((void)rng.exponential_rate(0.0), std::invalid_argument);
    EXPECT_THROW((void)rng.exponential_rate(-1.0), std::invalid_argument);
}

TEST(Rng, PoissonSmallMean) {
    Rng rng{29};
    StreamingStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(static_cast<double>(rng.poisson(3.5)));
    }
    EXPECT_NEAR(stats.mean(), 3.5, 0.05);
    EXPECT_NEAR(stats.variance(), 3.5, 0.15);
}

TEST(Rng, PoissonLargeMeanUsesNormalApproximation) {
    Rng rng{31};
    StreamingStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(static_cast<double>(rng.poisson(200.0)));
    }
    EXPECT_NEAR(stats.mean(), 200.0, 1.0);
    EXPECT_NEAR(stats.stddev(), std::sqrt(200.0), 0.5);
}

TEST(Rng, PoissonZeroMeanIsZero) {
    Rng rng{31};
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliFrequency) {
    Rng rng{37};
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        hits += rng.bernoulli(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateCases) {
    Rng rng{37};
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_THROW((void)rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, ParetoSupportAndMedian) {
    Rng rng{41};
    StreamingStats stats;
    std::vector<double> values;
    for (int i = 0; i < 100000; ++i) {
        const double v = rng.pareto(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        values.push_back(v);
    }
    // Median of Pareto(xm, a) is xm * 2^{1/a}.
    std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
    EXPECT_NEAR(values[values.size() / 2], 2.0 * std::pow(2.0, 1.0 / 3.0), 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
    Rng parent{43};
    Rng child = parent.fork();
    // The child stream should not simply replay the parent.
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (parent() == child()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 3);
}

TEST(SampleDiscrete, RespectsWeights) {
    Rng rng{47};
    const std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        ++counts[sample_discrete(rng, weights)];
    }
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(SampleDiscrete, ZeroWeightNeverSampled) {
    Rng rng{53};
    const std::vector<double> weights{0.0, 1.0};
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(sample_discrete(rng, weights), 1u);
    }
}

TEST(SampleDiscrete, RejectsInvalidWeights) {
    Rng rng{53};
    EXPECT_THROW((void)sample_discrete(rng, {}), std::invalid_argument);
    EXPECT_THROW((void)sample_discrete(rng, {0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW((void)sample_discrete(rng, {-1.0, 2.0}), std::invalid_argument);
}

TEST(ZipfDistribution, PmfSumsToOne) {
    const ZipfDistribution zipf{50, 1.2};
    double total = 0.0;
    for (std::size_t k = 1; k <= 50; ++k) {
        total += zipf.pmf(k);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfDistribution, PmfIsDecreasing) {
    const ZipfDistribution zipf{20, 0.8};
    for (std::size_t k = 2; k <= 20; ++k) {
        EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1));
    }
}

TEST(ZipfDistribution, ZeroExponentIsUniform) {
    const ZipfDistribution zipf{10, 0.0};
    for (std::size_t k = 1; k <= 10; ++k) {
        EXPECT_NEAR(zipf.pmf(k), 0.1, 1e-12);
    }
}

TEST(ZipfDistribution, SampleFrequenciesMatchPmf) {
    Rng rng{59};
    const ZipfDistribution zipf{5, 1.0};
    std::vector<int> counts(6, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        ++counts[zipf.sample(rng)];
    }
    for (std::size_t k = 1; k <= 5; ++k) {
        EXPECT_NEAR(counts[k] / static_cast<double>(n), zipf.pmf(k), 0.01);
    }
}

TEST(ZipfDistribution, RejectsInvalidParameters) {
    EXPECT_THROW((ZipfDistribution{0, 1.0}), std::invalid_argument);
    EXPECT_THROW((ZipfDistribution{5, -0.1}), std::invalid_argument);
}

}  // namespace
}  // namespace swarmavail
