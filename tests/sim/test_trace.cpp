// Structured event tracer: ring-buffer flushing, runtime gating, the
// JSONL serialization round-trip (bit-exact doubles, non-finite payloads,
// annotation escaping), the pinned line format, and the CheckFailure
// routing helper.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/json.hpp"

namespace swarmavail::sim {
namespace {

std::vector<TraceRecord> gnarly_records() {
    return {
        {0.0, TraceKind::kPeerArrival, 0, 1, 0.0, 0.0},
        {0.1, TraceKind::kPeerCompletion, 0, 2, 1.0 / 3.0, 2.0 / 7.0},
        {1e-308, TraceKind::kPublisherUp, 0, 3, 1e308, -1e-17},
        {123456.789012345, TraceKind::kAvailabilityEnd, 0, 0, 98765.4321098765, 12.0},
        {std::nextafter(1.0, 2.0), TraceKind::kTransferStart, 0,
         std::numeric_limits<std::uint64_t>::max(), -0.0, 6.62607015e-34},
        {42.0, TraceKind::kCustom, 0, 7, std::numeric_limits<double>::epsilon(), 3.0},
        {43.0, TraceKind::kAvailabilityEnd, 0, 8, std::numeric_limits<double>::infinity(),
         -std::numeric_limits<double>::infinity()},
        {std::numeric_limits<double>::infinity(), TraceKind::kCustom, 0, 9, 0.5, 0.25},
    };
}

/// Every line of `text` must be a document the strict parser accepts.
void expect_every_line_parses(const std::string& text) {
    std::istringstream lines{text};
    std::string line;
    while (std::getline(lines, line)) {
        JsonValue value;
        std::string error;
        EXPECT_TRUE(parse_json(line, value, &error)) << error << " in " << line;
    }
}

TEST(TraceKindNames, RoundTripEveryKind) {
    const TraceKind kinds[] = {
        TraceKind::kPeerArrival,   TraceKind::kPeerCompletion,
        TraceKind::kPeerLost,      TraceKind::kPeerStranded,
        TraceKind::kPublisherUp,   TraceKind::kPublisherDown,
        TraceKind::kAvailabilityBegin, TraceKind::kAvailabilityEnd,
        TraceKind::kTransferStart, TraceKind::kTransferComplete,
        TraceKind::kCustom,
    };
    for (TraceKind kind : kinds) {
        const std::string name = trace_kind_name(kind);
        EXPECT_NE(name, "unknown");
        TraceKind parsed = TraceKind::kCustom;
        ASSERT_TRUE(trace_kind_from_name(name, parsed)) << name;
        EXPECT_EQ(parsed, kind);
    }
    TraceKind out = TraceKind::kCustom;
    EXPECT_FALSE(trace_kind_from_name("nonsense", out));
}

TEST(Tracer, DisabledRecordsNothing) {
    MemoryTraceSink sink;
    Tracer tracer{sink};
    EXPECT_FALSE(tracer.enabled());
    tracer.record(TraceKind::kPeerArrival, 1.0, 5);
    tracer.flush();
    EXPECT_TRUE(sink.records().empty());
    EXPECT_EQ(tracer.records_emitted(), 0u);
}

TEST(Tracer, RingBufferFlushesWhenFull) {
    MemoryTraceSink sink;
    Tracer tracer{sink, 4};
    tracer.set_enabled(true);
    for (int i = 0; i < 10; ++i) {
        tracer.record(TraceKind::kCustom, static_cast<double>(i), i);
    }
    // Two full buffers flushed automatically; two records still buffered.
    EXPECT_EQ(sink.records().size(), 8u);
    tracer.flush();
    ASSERT_EQ(sink.records().size(), 10u);
    EXPECT_EQ(tracer.records_emitted(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(sink.records()[static_cast<std::size_t>(i)].entity,
                  static_cast<std::uint64_t>(i));
    }
}

TEST(Tracer, DestructorFlushes) {
    MemoryTraceSink sink;
    {
        Tracer tracer{sink, 100};
        tracer.set_enabled(true);
        tracer.record(TraceKind::kPeerLost, 2.5, 9);
    }
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records()[0], (TraceRecord{2.5, TraceKind::kPeerLost, 0, 9, 0.0, 0.0}));
}

TEST(Tracer, AnnotationsBypassTheGateAndKeepOrder) {
    MemoryTraceSink sink;
    Tracer tracer{sink, 100};
    tracer.set_enabled(true);
    tracer.record(TraceKind::kCustom, 1.0);
    // The annotation must flush the buffered record first so the sink sees
    // emission order, and must work even when tracing is disabled.
    tracer.set_enabled(false);
    tracer.annotate(1.5, "diagnostic");
    EXPECT_EQ(sink.records().size(), 1u);
    ASSERT_EQ(sink.annotations().size(), 1u);
    EXPECT_EQ(sink.annotations()[0].first, 1.5);
    EXPECT_EQ(sink.annotations()[0].second, "diagnostic");
}

TEST(Tracer, RejectsZeroCapacity) {
    MemoryTraceSink sink;
    EXPECT_THROW((Tracer{sink, 0}), std::invalid_argument);
}

TEST(JsonlTraceSink, RoundTripsRecordsBitExactly) {
    const std::string note = "note with \"quotes\", commas,\nnewlines\tand \x01 ctrl";
    const std::string raw_byte = "not UTF-8: \xff";
    std::ostringstream os;
    {
        JsonlTraceSink sink{os};
        Tracer tracer{sink, 2};  // small buffer: exercises multiple writes
        tracer.set_enabled(true);
        for (const TraceRecord& r : gnarly_records()) {
            tracer.record(r.kind, r.time, r.entity, r.a, r.b);
        }
        tracer.annotate(7.25, note);
        tracer.annotate(7.5, raw_byte);
        tracer.record(TraceKind::kCustom, 8.0, 10, std::numeric_limits<double>::quiet_NaN());
    }
    expect_every_line_parses(os.str());
    std::istringstream in{os.str()};
    ParsedTrace parsed = read_trace_jsonl(in);
    ASSERT_EQ(parsed.records.size(), gnarly_records().size() + 1);
    const TraceRecord nan_record = parsed.records.back();
    EXPECT_TRUE(std::isnan(nan_record.a));
    EXPECT_EQ(nan_record.entity, 10U);
    parsed.records.pop_back();
    EXPECT_EQ(parsed.records, gnarly_records());
    ASSERT_EQ(parsed.annotations.size(), 2u);
    EXPECT_EQ(parsed.annotations[0].time, 7.25);
    EXPECT_EQ(parsed.annotations[0].text, note);
    // JSON text is UTF-8, so the writer replaces the stray byte with U+FFFD.
    EXPECT_EQ(parsed.annotations[1].text, "not UTF-8: \xEF\xBF\xBD");
}

TEST(JsonlTraceSink, LineFormatIsPinned) {
    // Finite payloads and text that needs no escaping: the bytes every
    // earlier version of the sink wrote for the same records.
    std::ostringstream os;
    JsonlTraceSink sink{os};
    const TraceRecord record{123456.789012345, TraceKind::kPeerCompletion, 0,
                             std::numeric_limits<std::uint64_t>::max(), 1.0 / 3.0, -0.0};
    sink.write(&record, 1);
    sink.annotate(7.25, "check failure at sim/file.cpp:42: count went negative");
    EXPECT_EQ(os.str(),
              "{\"t\":123456.789012345,\"kind\":\"peer_completion\","
              "\"entity\":18446744073709551615,\"a\":0.3333333333333333,\"b\":-0}\n"
              "{\"t\":7.25,\"kind\":\"annotation\",\"text\":\"check failure at "
              "sim/file.cpp:42: count went negative\"}\n");
}

TEST(TraceParsers, RejectMalformedInput) {
    for (const char* bad : {
             "{\"t\":1.0,\"kind\":\"bogus\",\"entity\":0,\"a\":0,\"b\":0}",
             "{\"t\":1.0",
             "{\"t\":1,\"kind\":\"custom\",\"entity\":18446744073709551616,"
             "\"a\":0,\"b\":0}",
             "{\"t\":1,\"kind\":\"custom\",\"entity\":-1,\"a\":0,\"b\":0}",
             "{\"t\":1,\"kind\":\"custom\",\"entity\":1,\"a\":inf,\"b\":0}",
             "{\"t\":1,\"kind\":\"annotation\"}",
         }) {
        std::istringstream in{std::string("{\"t\":0,\"kind\":\"custom\",\"entity\":0,"
                                          "\"a\":0,\"b\":0}\n") +
                              bad};
        try {
            (void)read_trace_jsonl(in);
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()).rfind("trace line 2: ", 0), 0U) << e.what();
        }
    }
}

TEST(TraceCheckFailure, RoutesDiagnosticsWithSimTimeAndContext) {
    MemoryTraceSink sink;
    Tracer tracer{sink};
    const CheckFailure failure{"formatted", "sim/file.cpp", 42, "count went negative"};
    trace_check_failure(&tracer, 123.5, failure);
    ASSERT_EQ(sink.annotations().size(), 1u);
    EXPECT_EQ(sink.annotations()[0].first, 123.5);
    const std::string& text = sink.annotations()[0].second;
    EXPECT_NE(text.find("sim/file.cpp:42"), std::string::npos) << text;
    EXPECT_NE(text.find("count went negative"), std::string::npos) << text;
    // Null tracer: no-op, so engine call sites stay unconditional.
    trace_check_failure(nullptr, 1.0, failure);
}

}  // namespace
}  // namespace swarmavail::sim
