// Metrics registry semantics: get-or-create, kind/shape conflicts,
// histogram bucketing, and the index-order merge determinism contract.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace swarmavail {
namespace {

TEST(Counter, AddsAndMerges) {
    Counter a;
    EXPECT_EQ(a.value(), 0u);
    a.add();
    a.add(5);
    EXPECT_EQ(a.value(), 6u);
    Counter b;
    b.add(10);
    a.merge(b);
    EXPECT_EQ(a.value(), 16u);
}

TEST(Gauge, TracksLastValueAndStats) {
    Gauge g;
    g.set(2.0);
    g.set(8.0);
    g.set(5.0);
    EXPECT_EQ(g.value(), 5.0);
    EXPECT_EQ(g.stats().count(), 3u);
    EXPECT_EQ(g.stats().min(), 2.0);
    EXPECT_EQ(g.stats().max(), 8.0);
    EXPECT_DOUBLE_EQ(g.stats().mean(), 5.0);
}

TEST(Gauge, MergeTakesLaterLastValueOnlyIfRecorded) {
    Gauge a;
    a.set(1.0);
    Gauge empty;
    a.merge(empty);
    EXPECT_EQ(a.value(), 1.0);  // empty other side: last value unchanged
    Gauge b;
    b.set(7.0);
    a.merge(b);
    EXPECT_EQ(a.value(), 7.0);  // later replication wins
    EXPECT_EQ(a.stats().count(), 2u);
}

TEST(HistogramMetric, LinearBucketingWithClamping) {
    HistogramMetric h{0.0, 10.0, 5};
    h.add(-3.0);  // below lo: clamps into bin 0
    h.add(0.5);
    h.add(9.9);
    h.add(25.0);  // above hi: clamps into the last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bin_count(0), 2u);
    EXPECT_EQ(h.bin_count(4), 2u);
    EXPECT_EQ(h.stats().count(), 4u);
    EXPECT_EQ(h.stats().max(), 25.0);  // stats see the raw values
    EXPECT_EQ(h.bin_lo(0), 0.0);
    EXPECT_EQ(h.bin_hi(4), 10.0);
}

TEST(HistogramMetric, Log2BucketingCoversDecades) {
    HistogramMetric h{1.0, 1024.0, 10, HistogramScale::kLog2};
    // Each power of two lands in its own bin.
    for (int p = 0; p < 10; ++p) {
        h.add(std::pow(2.0, p) * 1.5);
    }
    for (std::size_t i = 0; i < h.bins(); ++i) {
        EXPECT_EQ(h.bin_count(i), 1u) << "bin " << i;
    }
    EXPECT_EQ(h.lo(), 1.0);
    EXPECT_EQ(h.hi(), 1024.0);
}

TEST(HistogramMetric, Log2EdgePinning) {
    // Pin the bucket edges of the log2 scale with power-of-two lo/hi: one
    // bin per octave, edges exactly at the powers of two. These cases catch
    // the off-by-one that natural-log bucket math exhibits when log(2^k)
    // rounds a hair above or below k*log(2).
    HistogramMetric h{1.0, 1048576.0, 20, HistogramScale::kLog2};

    // The edges themselves must be the exact powers of two.
    for (std::size_t i = 0; i < h.bins(); ++i) {
        EXPECT_EQ(h.bin_lo(i), std::exp2(static_cast<double>(i))) << "bin " << i;
        EXPECT_EQ(h.bin_hi(i), std::exp2(static_cast<double>(i + 1))) << "bin " << i;
    }

    // Zero and anything at or below lo clamp into bin 0.
    h.add(0.0);
    h.add(-5.0);
    h.add(1.0);
    EXPECT_EQ(h.bin_count(0), 3u);

    // An exact power of two 2^k is the lower edge of bin k and must land
    // there, consistent with bin_lo — half-open [bin_lo, bin_hi) buckets.
    for (int p = 1; p < 20; ++p) {
        h.add(std::exp2(p));
    }
    for (std::size_t i = 1; i < h.bins(); ++i) {
        EXPECT_EQ(h.bin_count(i), 1u) << "power-of-two edge 2^" << i;
    }

    // Values at or beyond hi overflow into the last bucket.
    h.add(1048576.0);        // == hi
    h.add(3.0e7);            // way past hi
    EXPECT_EQ(h.bin_count(19), 3u);
    EXPECT_EQ(h.total(), 24u);
}

TEST(HistogramMetric, Log2NonPowerOfTwoRangeStillClamps) {
    // The exactness argument is strongest for power-of-two ranges, but the
    // clamping contract (never drop an observation, never index out of
    // range) holds for any shape.
    HistogramMetric h{0.5, 300.0, 7, HistogramScale::kLog2};
    h.add(0.0);
    h.add(0.5);
    h.add(299.999);
    h.add(300.0);
    h.add(1.0e12);
    EXPECT_EQ(h.bin_count(0), 2u);
    EXPECT_EQ(h.bin_count(6), 3u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bin_lo(0), 0.5);
    EXPECT_EQ(h.bin_hi(6), 300.0);
}

TEST(HistogramMetric, RejectsBadShapes) {
    EXPECT_THROW((HistogramMetric{1.0, 1.0, 4}), std::invalid_argument);
    EXPECT_THROW((HistogramMetric{0.0, 8.0, 4, HistogramScale::kLog2}),
                 std::invalid_argument);
    EXPECT_THROW((HistogramMetric{0.0, 1.0, 0}), std::invalid_argument);
}

TEST(HistogramMetric, MergeRequiresIdenticalShape) {
    HistogramMetric a{0.0, 10.0, 5};
    HistogramMetric b{0.0, 10.0, 5};
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.total(), 1u);
    HistogramMetric wrong{0.0, 10.0, 6};
    EXPECT_THROW(a.merge(wrong), std::invalid_argument);
}

TEST(MetricsRegistry, GetOrCreateReturnsStableReferences) {
    MetricsRegistry reg;
    Counter& c = reg.counter("events");
    c.add(3);
    EXPECT_EQ(&reg.counter("events"), &c);
    EXPECT_EQ(reg.counter("events").value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KindConflictsThrow) {
    MetricsRegistry reg;
    (void)reg.counter("x");
    EXPECT_THROW((void)reg.gauge("x"), std::invalid_argument);
    EXPECT_THROW((void)reg.histogram("x", 0.0, 1.0, 4), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramShapeConflictThrows) {
    MetricsRegistry reg;
    (void)reg.histogram("h", 1.0, 1024.0, 10, HistogramScale::kLog2);
    // Re-registering with the identical shape is fine (also for log scale,
    // where lo/hi must round-trip exactly through the accessors)...
    (void)reg.histogram("h", 1.0, 1024.0, 10, HistogramScale::kLog2);
    // ...but any shape difference throws.
    EXPECT_THROW((void)reg.histogram("h", 1.0, 1024.0, 11, HistogramScale::kLog2),
                 std::invalid_argument);
    EXPECT_THROW((void)reg.histogram("h", 1.0, 1024.0, 10, HistogramScale::kLinear),
                 std::invalid_argument);
}

TEST(MetricsRegistry, NamesPreserveRegistrationOrder) {
    MetricsRegistry reg;
    (void)reg.counter("b");
    (void)reg.gauge("a");
    (void)reg.histogram("c", 0.0, 1.0, 2);
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"b", "a", "c"}));
}

TEST(MetricsRegistry, FindersReturnNullForMissingOrWrongKind) {
    MetricsRegistry reg;
    (void)reg.counter("c");
    EXPECT_NE(reg.find_counter("c"), nullptr);
    EXPECT_EQ(reg.find_counter("missing"), nullptr);
    EXPECT_EQ(reg.find_gauge("c"), nullptr);
    EXPECT_EQ(reg.find_histogram("c"), nullptr);
}

TEST(MetricsRegistry, MergeCreatesMissingEntriesAndCombines) {
    MetricsRegistry a;
    a.counter("events").add(2);
    MetricsRegistry b;
    b.counter("events").add(3);
    b.gauge("depth").set(4.0);
    b.histogram("lat", 0.0, 10.0, 5).add(1.0);
    a.merge(b);
    EXPECT_EQ(a.find_counter("events")->value(), 5u);
    ASSERT_NE(a.find_gauge("depth"), nullptr);
    EXPECT_EQ(a.find_gauge("depth")->value(), 4.0);
    ASSERT_NE(a.find_histogram("lat"), nullptr);
    EXPECT_EQ(a.find_histogram("lat")->total(), 1u);
}

TEST(MetricsRegistry, IndexOrderMergeIsDeterministic) {
    // The determinism contract parallel replications rely on: merging the
    // same per-replication parts strictly in index order yields bitwise
    // identical results no matter when or by which thread the parts were
    // recorded. (Welford-merge is NOT bitwise equal to one sequential
    // stream — only counts, bins, and extrema are exact; the pooled
    // moments are pinned by repeating the merge itself.)
    const std::vector<std::vector<double>> streams{
        {0.1, 0.3, 1.7}, {2.5}, {}, {0.9, 0.4, 3.1, 0.05}};
    auto record_parts = [&streams] {
        std::vector<MetricsRegistry> parts(streams.size());
        for (std::size_t i = 0; i < streams.size(); ++i) {
            HistogramMetric& h =
                parts[i].histogram("h", 0.01, 16.0, 8, HistogramScale::kLog2);
            Gauge& g = parts[i].gauge("g");
            for (double v : streams[i]) {
                h.add(v);
                g.set(v);
            }
        }
        MetricsRegistry merged;
        for (const auto& part : parts) {
            merged.merge(part);
        }
        return merged;
    };
    const MetricsRegistry merged = record_parts();
    const MetricsRegistry again = record_parts();

    const HistogramMetric& mh = *merged.find_histogram("h");
    const HistogramMetric& ah = *again.find_histogram("h");
    EXPECT_EQ(mh.stats().count(), ah.stats().count());
    EXPECT_EQ(mh.stats().mean(), ah.stats().mean());
    EXPECT_EQ(mh.stats().variance(), ah.stats().variance());
    EXPECT_EQ(merged.find_gauge("g")->stats().mean(), again.find_gauge("g")->stats().mean());

    // Against the single sequential stream, the structural aggregates are
    // exact: count, bin occupancy, min/max, last gauge value, and the mean
    // to double precision.
    MetricsRegistry sequential;
    HistogramMetric& seq_h =
        sequential.histogram("h", 0.01, 16.0, 8, HistogramScale::kLog2);
    Gauge& seq_g = sequential.gauge("g");
    for (const auto& stream : streams) {
        for (double v : stream) {
            seq_h.add(v);
            seq_g.set(v);
        }
    }
    EXPECT_EQ(mh.total(), seq_h.total());
    for (std::size_t i = 0; i < mh.bins(); ++i) {
        EXPECT_EQ(mh.bin_count(i), seq_h.bin_count(i));
    }
    EXPECT_EQ(mh.stats().count(), seq_h.stats().count());
    EXPECT_DOUBLE_EQ(mh.stats().mean(), seq_h.stats().mean());
    EXPECT_EQ(mh.stats().min(), seq_h.stats().min());
    EXPECT_EQ(mh.stats().max(), seq_h.stats().max());
    const Gauge& mg = *merged.find_gauge("g");
    EXPECT_EQ(mg.value(), seq_g.value());
    EXPECT_DOUBLE_EQ(mg.stats().mean(), seq_g.stats().mean());
}

TEST(MetricsRegistry, WriteJsonEmitsEveryKind) {
    MetricsRegistry reg;
    reg.counter("events").add(7);
    reg.gauge("depth").set(1.5);
    reg.histogram("lat", 0.0, 4.0, 2).add(3.0);
    reg.counter("quote\"back\\slash\nline").add(1);
    std::ostringstream os;
    reg.write_json(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"name\":\"events\",\"kind\":\"counter\",\"value\":7"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"depth\",\"kind\":\"gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"bins\":[0,1]"), std::string::npos);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(parse_json(json, parsed, &error)) << error << " in " << json;
    ASSERT_EQ(parsed.items().size(), 4U);
    EXPECT_EQ(parsed.items()[3].find("name")->as_string(), "quote\"back\\slash\nline");
}

}  // namespace
}  // namespace swarmavail
