// Request-lifecycle spans (serve/span.hpp): record serialization round
// trips, ring-buffer overwrite and drain order, the slow-query funnel,
// and the RequestSpans scratch the serving path fills.
#include "serve/span.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace serve = swarmavail::serve;
using serve::JsonlSpanSink;
using serve::MemorySpanSink;
using serve::RequestSpans;
using serve::SpanCacheOutcome;
using serve::SpanHub;
using serve::SpanHubConfig;
using serve::SpanRecord;
using serve::SpanStage;

namespace {

SpanRecord make_record(std::uint64_t request, SpanStage stage, double t0,
                       double t1, std::uint64_t bytes = 0) {
    SpanRecord record;
    record.request = request;
    record.connection = request;  // good enough for tests
    record.t_start = t0;
    record.t_end = t1;
    record.bytes = bytes;
    record.stage = static_cast<std::uint16_t>(stage);
    record.verb = 1;
    record.lane = 0;
    record.worker = 1;
    record.cache = static_cast<std::uint32_t>(SpanCacheOutcome::kHit);
    return record;
}

TEST(SpanNames, StageAndCacheOutcomeNamesRoundTrip) {
    for (std::size_t s = 0; s < serve::kSpanStageCount; ++s) {
        const auto stage = static_cast<SpanStage>(s);
        SpanStage parsed = SpanStage::kAccept;
        ASSERT_TRUE(serve::span_stage_from_name(serve::span_stage_name(stage),
                                                parsed));
        EXPECT_EQ(parsed, stage);
    }
    SpanStage stage = SpanStage::kAccept;
    EXPECT_FALSE(serve::span_stage_from_name("not-a-stage", stage));

    for (std::size_t o = 0; o < serve::kSpanCacheOutcomeCount; ++o) {
        const auto outcome = static_cast<SpanCacheOutcome>(o);
        SpanCacheOutcome parsed = SpanCacheOutcome::kNone;
        ASSERT_TRUE(serve::span_cache_outcome_from_name(
            serve::span_cache_outcome_name(outcome), parsed));
        EXPECT_EQ(parsed, outcome);
    }
}

TEST(SpanJsonl, RecordsRoundTripBitForBit) {
    const std::vector<SpanRecord> records = {
        make_record(1, SpanStage::kDecode, 0.25, 0.5, 69),
        make_record(1, SpanStage::kParse, 0.5, 1.0 / 3.0, 69),
        make_record(2, SpanStage::kWrite, 1.0e-7, 12345.678901234567, 434),
    };
    std::ostringstream out;
    JsonlSpanSink sink(out);
    sink.write(records.data(), records.size());
    sink.finish();

    std::istringstream in(out.str());
    const std::vector<SpanRecord> parsed = serve::read_spans_jsonl(in);
    ASSERT_EQ(parsed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(parsed[i], records[i]) << "record " << i;
    }
}

TEST(SpanJsonl, MalformedLinesAreRejectedWithLineNumbers) {
    for (const char* bad : {
             "not json\n",
             "{\"request\":1}\n",  // missing fields
             "{\"request\":1,\"conn\":1,\"stage\":\"nope\",\"verb\":1,"
             "\"lane\":0,\"worker\":1,\"t0\":0,\"t1\":0,\"bytes\":0,"
             "\"cache\":\"hit\"}\n",  // unknown stage name
             "{\"request\":1,\"conn\":1,\"stage\":\"write\",\"verb\":65537,"
             "\"lane\":0,\"worker\":1,\"t0\":0,\"t1\":0,\"bytes\":0,"
             "\"cache\":\"hit\"}\n",  // verb wider than 16 bits
             "{\"request\":1,\"conn\":1,\"stage\":\"write\",\"verb\":1,"
             "\"lane\":-1,\"worker\":1,\"t0\":0,\"t1\":0,\"bytes\":0,"
             "\"cache\":\"hit\"}\n",  // negative lane
             "{\"request\":1,\"conn\":1,\"stage\":\"write\",\"verb\":1,"
             "\"lane\":0,\"worker\":70000,\"t0\":0,\"t1\":0,\"bytes\":0,"
             "\"cache\":\"hit\"}\n",  // worker wider than 16 bits
         }) {
        std::istringstream in(bad);
        try {
            static_cast<void>(serve::read_spans_jsonl(in));
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()).rfind("span line 1: ", 0), 0U) << e.what();
        }
    }
}

TEST(SpanJsonl, LineFormatIsPinned) {
    // The bytes every earlier version of the sink wrote for this record.
    SpanRecord r;
    r.request = 18446744073709551615ULL;
    r.connection = 42;
    r.t_start = 0.25;
    r.t_end = 12345.678901234567;
    r.bytes = 434;
    r.stage = static_cast<std::uint16_t>(SpanStage::kWrite);
    r.verb = 65535;
    r.lane = 1;
    r.worker = 3;
    r.cache = static_cast<std::uint32_t>(SpanCacheOutcome::kHit);
    std::ostringstream out;
    JsonlSpanSink sink(out);
    sink.write(&r, 1);
    EXPECT_EQ(out.str(),
              "{\"request\":18446744073709551615,\"conn\":42,\"stage\":\"write\","
              "\"verb\":65535,\"lane\":1,\"worker\":3,\"t0\":0.25,"
              "\"t1\":12345.678901234567,\"bytes\":434,\"cache\":\"hit\"}\n");
    std::istringstream in(out.str());
    const std::vector<SpanRecord> parsed = serve::read_spans_jsonl(in);
    ASSERT_EQ(parsed.size(), 1U);
    EXPECT_EQ(parsed[0], r);
}

TEST(SpanHubTest, DrainMergesRingsInIndexOrderAndClears) {
    SpanHubConfig config;
    config.rings = 3;
    config.ring_capacity = 8;
    SpanHub hub(config);
    hub.set_enabled(true);

    // Emit out of ring order; the drain must come back 0, 1, 2.
    hub.emit(2, make_record(30, SpanStage::kWrite, 3.0, 3.1));
    hub.emit(0, make_record(10, SpanStage::kAccept, 1.0, 1.0));
    hub.emit(1, make_record(20, SpanStage::kDecode, 2.0, 2.1));
    hub.emit(1, make_record(21, SpanStage::kParse, 2.1, 2.2));

    MemorySpanSink sink;
    hub.drain(sink);
    ASSERT_EQ(sink.records().size(), 4U);
    EXPECT_EQ(sink.records()[0].request, 10U);
    EXPECT_EQ(sink.records()[1].request, 20U);
    EXPECT_EQ(sink.records()[2].request, 21U);
    EXPECT_EQ(sink.records()[3].request, 30U);
    EXPECT_EQ(hub.records_emitted(), 4U);

    // A second drain finds the rings empty.
    MemorySpanSink empty;
    hub.drain(empty);
    EXPECT_TRUE(empty.records().empty());
}

TEST(SpanHubTest, RingOverwritesOldestAndCountsDrops) {
    SpanHubConfig config;
    config.rings = 1;
    config.ring_capacity = 4;
    SpanHub hub(config);
    hub.set_enabled(true);

    for (std::uint64_t i = 1; i <= 6; ++i) {
        hub.emit(0, make_record(i, SpanStage::kCompute,
                                static_cast<double>(i),
                                static_cast<double>(i) + 0.5));
    }
    EXPECT_EQ(hub.records_emitted(), 6U);
    EXPECT_EQ(hub.records_dropped(), 2U);

    MemorySpanSink sink;
    hub.drain(sink);
    ASSERT_EQ(sink.records().size(), 4U);
    // Oldest surviving record first: 3, 4, 5, 6.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(sink.records()[i].request, i + 3) << "position " << i;
    }
}

TEST(SpanHubTest, SlowRequestsReachTheSlowSinkAsOneBlock) {
    MemorySpanSink slow;
    SpanHubConfig config;
    config.rings = 2;
    config.ring_capacity = 16;
    config.slow_threshold_s = 0.5;
    SpanHub hub(config, &slow);
    hub.set_enabled(true);

    const SpanRecord fast[] = {
        make_record(1, SpanStage::kParse, 0.0, 0.1),
        make_record(1, SpanStage::kWrite, 0.1, 0.2),
    };
    hub.finish_request(1, fast, 2, 0.2);  // under the threshold
    EXPECT_TRUE(slow.records().empty());
    EXPECT_EQ(hub.slow_requests(), 0U);

    const SpanRecord offending[] = {
        make_record(2, SpanStage::kParse, 1.0, 1.1),
        make_record(2, SpanStage::kCompute, 1.1, 1.7),
        make_record(2, SpanStage::kWrite, 1.7, 1.8),
    };
    hub.finish_request(1, offending, 3, 0.8);  // at/over the threshold
    ASSERT_EQ(slow.records().size(), 3U);
    EXPECT_EQ(hub.slow_requests(), 1U);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(slow.records()[i], offending[i]);
    }

    // The ring still retains everything for a normal drain.
    MemorySpanSink all;
    hub.drain(all);
    EXPECT_EQ(all.records().size(), 5U);
}

TEST(SpanHubTest, RequestIndicesAreMonotoneFromOne) {
    SpanHub hub(SpanHubConfig{});
    EXPECT_EQ(hub.next_request(), 1U);
    EXPECT_EQ(hub.next_request(), 2U);
    EXPECT_EQ(hub.next_request(), 3U);
}

TEST(RequestSpansTest, TracksStagesBytesAndCacheOutcome) {
    RequestSpans spans;
    spans.set_epoch(std::chrono::steady_clock::now());
    EXPECT_FALSE(spans.has(SpanStage::kParse));

    spans.begin(SpanStage::kParse);
    spans.end(SpanStage::kParse, 42);
    EXPECT_TRUE(spans.has(SpanStage::kParse));
    EXPECT_GE(spans.duration(SpanStage::kParse), 0.0);
    EXPECT_EQ(spans.stage_bytes[static_cast<std::size_t>(SpanStage::kParse)],
              42U);

    spans.note(SpanStage::kQueueWait, 1.0, 1.5);
    EXPECT_TRUE(spans.has(SpanStage::kQueueWait));
    EXPECT_DOUBLE_EQ(spans.duration(SpanStage::kQueueWait), 0.5);
    EXPECT_DOUBLE_EQ(spans.duration(SpanStage::kCompute), 0.0);  // unseen

    spans.set_cache(SpanCacheOutcome::kCoalesced);
    EXPECT_EQ(spans.cache,
              static_cast<std::uint32_t>(SpanCacheOutcome::kCoalesced));
}

TEST(SpanHubTest, ConcurrentEmittersAndDrainDoNotRace) {
    SpanHubConfig config;
    config.rings = 4;
    config.ring_capacity = 64;
    SpanHub hub(config);
    hub.set_enabled(true);

    std::vector<std::thread> emitters;
    emitters.reserve(3);
    for (std::size_t ring = 1; ring <= 3; ++ring) {
        emitters.emplace_back([&hub, ring] {
            for (std::uint64_t i = 0; i < 500; ++i) {
                hub.emit(ring, make_record(hub.next_request(),
                                           SpanStage::kCompute, 0.0, 1.0));
            }
        });
    }
    MemorySpanSink sink;
    for (int i = 0; i < 10; ++i) {
        hub.drain(sink);  // racing the emitters is the point
        std::this_thread::yield();
    }
    for (std::thread& t : emitters) {
        t.join();
    }
    hub.drain(sink);
    EXPECT_EQ(hub.records_emitted(), 1500U);
    EXPECT_EQ(sink.records().size() + hub.records_dropped(), 1500U);
}

}  // namespace
