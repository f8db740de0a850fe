// Telemetry layer semantics: run counters, convergence tracking, stop
// rules, the three exporters, JSONL round-trips, Prometheus validation,
// and the TelemetrySession snapshot lifecycle.
#include "util/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.hpp"

namespace swarmavail::telemetry {
namespace {

TEST(AtomicAdd, AccumulatesDoubles) {
    std::atomic<double> x{1.5};
    atomic_add(x, 2.25);
    atomic_add(x, -0.75);
    EXPECT_DOUBLE_EQ(x.load(), 3.0);
}

TEST(ConvergenceTracker, TracksMetricsInFirstObservationOrder) {
    ConvergenceTracker tracker;
    tracker.observe("b", 2.0);
    tracker.observe("a", 10.0);
    tracker.observe("b", 4.0);
    const std::vector<TrackedStat> stats = tracker.snapshot();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].name, "b");
    EXPECT_EQ(stats[0].count, 2u);
    EXPECT_DOUBLE_EQ(stats[0].mean, 3.0);
    EXPECT_EQ(stats[0].min, 2.0);
    EXPECT_EQ(stats[0].max, 4.0);
    EXPECT_EQ(stats[0].last, 4.0);
    EXPECT_EQ(stats[1].name, "a");
    EXPECT_EQ(stats[1].count, 1u);
    EXPECT_EQ(stats[1].last, 10.0);
}

TEST(StopRule, RequiresTargetMinObservationsAndTightCi) {
    StreamingStats stats;
    StopRule rule{0.5, 4};
    EXPECT_FALSE(rule.satisfied(stats));  // no observations
    for (int i = 0; i < 3; ++i) {
        stats.add(1.0);
    }
    EXPECT_FALSE(rule.satisfied(stats));  // below min_observations
    stats.add(1.0);
    EXPECT_TRUE(rule.satisfied(stats));  // zero variance: half-width 0

    StopRule disabled{0.0, 1};
    EXPECT_FALSE(disabled.satisfied(stats));  // target 0 never fires

    StreamingStats wide;
    wide.add(0.0);
    wide.add(100.0);
    wide.add(0.0);
    wide.add(100.0);
    StopRule tight{0.01, 2};
    EXPECT_FALSE(tight.satisfied(wide));  // half-width far above target
    EXPECT_GT(wide.ci95_halfwidth(), 0.01);
}

TEST(MemoryExporter, RingDropsOldest) {
    MemoryTelemetryExporter ring{3};
    for (std::uint64_t i = 0; i < 5; ++i) {
        TelemetrySnapshot snapshot;
        snapshot.sequence = i;
        ring.export_snapshot(snapshot);
    }
    EXPECT_EQ(ring.dropped(), 2u);
    ASSERT_EQ(ring.snapshots().size(), 3u);
    EXPECT_EQ(ring.snapshots().front().sequence, 2u);
    EXPECT_EQ(ring.snapshots().back().sequence, 4u);
}

TelemetrySnapshot sample_snapshot() {
    TelemetrySnapshot snapshot;
    snapshot.sequence = 7;
    snapshot.wall_time_s = 1.75;
    snapshot.final_snapshot = true;
    snapshot.replications_total = 40;
    snapshot.replications_completed = 13;
    snapshot.swarms_total = 5;
    snapshot.swarms_completed = 2;
    snapshot.events_dispatched = 123456789;
    snapshot.events_per_s = 0.1 + 0.2;  // deliberately non-representable
    snapshot.sim_time_advanced = 1.0e7 / 3.0;
    snapshot.sim_time_target = 4.0e7;
    snapshot.sim_time_rate = 98765.4321;
    snapshot.queue_depth = 17.0;
    snapshot.progress = 0.325;
    snapshot.eta_s = 3.64;
    snapshot.rss_bytes = 52 * 1024 * 1024;
    snapshot.peak_rss_bytes = 64 * 1024 * 1024;
    snapshot.tracked.push_back(
        {"catalog.swarm_unavailability", 13, 0.071234, 0.0123, 0.01, 0.4, 0.05});
    snapshot.tracked.push_back({"swarm.download_time_s", 4, 812.5, 40.25, 700.0,
                                900.0, 820.125});
    return snapshot;
}

TEST(JsonlExporter, RoundTripsBitExactly) {
    const TelemetrySnapshot original = sample_snapshot();
    std::ostringstream os;
    JsonlTelemetryExporter exporter{os};
    exporter.export_snapshot(original);
    TelemetrySnapshot plain;  // all defaults: pins optional-field handling
    plain.sequence = 8;
    plain.tracked.push_back({"a\"b\\c\n", 1, 2.0, 0.0, 2.0, 2.0, 2.0});
    exporter.export_snapshot(plain);

    std::istringstream in{os.str()};
    const std::vector<TelemetrySnapshot> parsed = read_telemetry_jsonl(in);
    ASSERT_EQ(parsed.size(), 2u);
    const TelemetrySnapshot& back = parsed[0];
    EXPECT_EQ(back.sequence, original.sequence);
    EXPECT_EQ(back.wall_time_s, original.wall_time_s);
    EXPECT_EQ(back.final_snapshot, original.final_snapshot);
    EXPECT_EQ(back.replications_total, original.replications_total);
    EXPECT_EQ(back.replications_completed, original.replications_completed);
    EXPECT_EQ(back.swarms_total, original.swarms_total);
    EXPECT_EQ(back.swarms_completed, original.swarms_completed);
    EXPECT_EQ(back.events_dispatched, original.events_dispatched);
    EXPECT_EQ(back.events_per_s, original.events_per_s);  // bit-exact doubles
    EXPECT_EQ(back.sim_time_advanced, original.sim_time_advanced);
    EXPECT_EQ(back.sim_time_target, original.sim_time_target);
    EXPECT_EQ(back.sim_time_rate, original.sim_time_rate);
    EXPECT_EQ(back.queue_depth, original.queue_depth);
    EXPECT_EQ(back.progress, original.progress);
    EXPECT_EQ(back.eta_s, original.eta_s);
    EXPECT_EQ(back.rss_bytes, original.rss_bytes);
    EXPECT_EQ(back.peak_rss_bytes, original.peak_rss_bytes);
    ASSERT_EQ(back.tracked.size(), 2u);
    EXPECT_EQ(back.tracked[0].name, "catalog.swarm_unavailability");
    EXPECT_EQ(back.tracked[0].count, 13u);
    EXPECT_EQ(back.tracked[0].mean, 0.071234);
    EXPECT_EQ(back.tracked[0].ci95_halfwidth, original.tracked[0].ci95_halfwidth);
    EXPECT_EQ(back.tracked[1].last, 820.125);
    EXPECT_EQ(parsed[1].sequence, 8u);
    ASSERT_EQ(parsed[1].tracked.size(), 1u);
    EXPECT_EQ(parsed[1].tracked[0].name, "a\"b\\c\n");
}

TEST(JsonlExporter, LineFormatIsPinned) {
    // Finite values and names that need no escaping: the bytes every
    // earlier version of the exporter wrote for the same snapshot.
    TelemetrySnapshot s;
    s.sequence = 7;
    s.wall_time_s = 1.5;
    s.final_snapshot = true;
    s.replications_total = 40;
    s.replications_completed = 13;
    s.swarms_total = 3;
    s.swarms_completed = 2;
    s.events_dispatched = 123456789;
    s.events_per_s = 1.0 / 3.0;
    s.sim_time_advanced = 1e-308;
    s.sim_time_target = 1e308;
    s.sim_time_rate = 2.5;
    s.queue_depth = 17;
    s.progress = 0.325;
    s.eta_s = 3.64;
    s.rss_bytes = 52 * 1024 * 1024;
    s.peak_rss_bytes = 64 * 1024 * 1024;
    s.fingerprint_xor = std::numeric_limits<std::uint64_t>::max();
    s.tracked.push_back(
        {"catalog.swarm_unavailability", 13, 0.071234, 0.0123, 0.01, 0.4, 0.05});
    s.tracked.push_back({"swarm.download_time_s", 4, 812.5, 40.25, 700.0, 900.0, 820.125});
    std::ostringstream os;
    JsonlTelemetryExporter exporter{os};
    exporter.export_snapshot(s);
    EXPECT_EQ(os.str(),
              "{\"seq\":7,\"wall_s\":1.5,\"final\":true,\"replications_total\":40,"
              "\"replications_completed\":13,\"swarms_total\":3,\"swarms_completed\":2,"
              "\"events_dispatched\":123456789,\"events_per_s\":0.3333333333333333,"
              "\"sim_time_advanced\":1e-308,\"sim_time_target\":1e+308,"
              "\"sim_time_rate\":2.5,\"queue_depth\":17,\"progress\":0.325,"
              "\"eta_s\":3.64,\"rss_bytes\":54525952,\"peak_rss_bytes\":67108864,"
              "\"fingerprint_xor\":18446744073709551615,\"tracked\":["
              "{\"name\":\"catalog.swarm_unavailability\",\"count\":13,"
              "\"mean\":0.071234,\"ci95\":0.0123,\"min\":0.01,\"max\":0.4,"
              "\"last\":0.05},{\"name\":\"swarm.download_time_s\",\"count\":4,"
              "\"mean\":812.5,\"ci95\":40.25,\"min\":700,\"max\":900,"
              "\"last\":820.125}]}\n");
}

TEST(ReadTelemetryJsonl, RejectsMalformedStreams) {
    const std::vector<std::string> bad{
        "not json at all\n",
        "{\"seq\":1\n",                       // truncated object
        "{\"wrong_first_key\":1}\n",          // wrong shape
        "{\"seq\":\"oops\"}\n",               // wrong value type
        "{\"seq\":18446744073709551617}\n",  // beyond 64 bits
        "{\"seq\":1.5}\n",                   // not an integer
    };
    for (const std::string& text : bad) {
        std::istringstream in{text};
        try {
            (void)read_telemetry_jsonl(in);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()).rfind("telemetry line 1: ", 0), 0U)
                << e.what();
        }
    }
    std::istringstream empty{""};
    EXPECT_TRUE(read_telemetry_jsonl(empty).empty());  // empty stream is fine
}

TEST(Prometheus, WriteOutputValidates) {
    std::ostringstream os;
    write_prometheus(sample_snapshot(), os);
    const std::string text = os.str();
    std::string error;
    EXPECT_TRUE(validate_prometheus_text(text, &error)) << error;
    EXPECT_NE(text.find("swarmavail_replications_completed 13"), std::string::npos);
    EXPECT_NE(text.find("# TYPE swarmavail_events_dispatched_total counter"),
              std::string::npos);
    EXPECT_NE(
        text.find("{metric=\"catalog.swarm_unavailability\"}"),
        std::string::npos);
}

TEST(Prometheus, ValidatorRejectsBrokenExpositions) {
    std::string error;
    EXPECT_FALSE(validate_prometheus_text("metric_without_value\n", &error));
    EXPECT_FALSE(validate_prometheus_text("9leading_digit 1\n", &error));
    EXPECT_FALSE(validate_prometheus_text("ok 1", &error));  // no trailing newline
    EXPECT_FALSE(validate_prometheus_text("ok notanumber\n", &error));
    EXPECT_FALSE(
        validate_prometheus_text("ok{label=\"unterminated} 1\n", &error));
    // A sample line alone never validates: at least one TYPE line required.
    EXPECT_FALSE(validate_prometheus_text("ok 1\n", &error));
    EXPECT_TRUE(
        validate_prometheus_text("# TYPE ok gauge\nok 1\n", &error))
        << error;
}

TEST(PrometheusFileExporter, RewritesTheFileAtomically) {
    const std::string path = ::testing::TempDir() + "swarmavail_prom_test.prom";
    PrometheusTextExporter exporter{path};
    TelemetrySnapshot snapshot = sample_snapshot();
    exporter.export_snapshot(snapshot);
    snapshot.sequence = 8;
    snapshot.events_dispatched += 1000;
    exporter.export_snapshot(snapshot);  // second write replaces the first

    std::ifstream in{path};
    ASSERT_TRUE(in.is_open());
    std::ostringstream content;
    content << in.rdbuf();
    std::string error;
    EXPECT_TRUE(validate_prometheus_text(content.str(), &error)) << error;
    EXPECT_NE(content.str().find("swarmavail_events_dispatched_total 123457789"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ReadProcessRss, ReportsResidentMemoryOnLinux) {
    std::uint64_t rss = 0;
    std::uint64_t peak = 0;
    const bool supported = read_process_rss(rss, peak);
#if defined(__linux__)
    EXPECT_TRUE(supported);
    EXPECT_GT(rss, 0u);
    EXPECT_GE(peak, rss);
#else
    (void)supported;
#endif
}

TEST(TelemetrySession, SnapshotNowReflectsCountersAndProgress) {
    MemoryTelemetryExporter ring;
    TelemetryConfig config;
    config.interval_s = 60.0;  // never fires on its own in this test
    config.exporters.push_back(&ring);
    TelemetrySession session{config};

    session.counters().replications_total.store(10);
    session.counters().replications_completed.store(4);
    session.counters().events_dispatched.store(500);
    session.tracker().observe("x", 1.0);
    session.tracker().observe("x", 3.0);

    const TelemetrySnapshot first = session.snapshot_now();
    EXPECT_EQ(first.sequence, 0u);
    EXPECT_EQ(first.replications_completed, 4u);
    EXPECT_EQ(first.events_dispatched, 500u);
    EXPECT_DOUBLE_EQ(first.progress, 0.4);
    EXPECT_GE(first.eta_s, 0.0);  // progress known, so an ETA exists
    ASSERT_EQ(first.tracked.size(), 1u);
    EXPECT_DOUBLE_EQ(first.tracked[0].mean, 2.0);

    session.counters().replications_completed.store(10);
    const TelemetrySnapshot second = session.snapshot_now();
    EXPECT_EQ(second.sequence, 1u);
    EXPECT_DOUBLE_EQ(second.progress, 1.0);
    EXPECT_GE(second.wall_time_s, first.wall_time_s);

    ASSERT_EQ(ring.snapshots().size(), 2u);
    EXPECT_EQ(ring.snapshots()[0].sequence, 0u);
    EXPECT_EQ(ring.snapshots()[1].sequence, 1u);
    EXPECT_EQ(session.snapshots_taken(), 2u);
}

TEST(TelemetrySession, ProgressIsMaxOfCompletionFractions) {
    TelemetrySession session{TelemetryConfig{60.0, {}}};
    session.counters().swarms_total.store(4);
    session.counters().swarms_completed.store(3);
    session.counters().sim_time_target.store(100.0);
    session.counters().sim_time_advanced.store(10.0);
    const TelemetrySnapshot snapshot = session.snapshot_now();
    EXPECT_DOUBLE_EQ(snapshot.progress, 0.75);  // swarm fraction dominates
}

TEST(TelemetrySession, PeriodicSamplerEmitsAndStopEmitsFinal) {
    MemoryTelemetryExporter ring;
    TelemetryConfig config;
    config.interval_s = 0.01;
    config.exporters.push_back(&ring);
    TelemetrySession session{config};
    session.start();
    EXPECT_TRUE(session.running());
    // Wait until the sampler has demonstrably fired a few times.
    for (int i = 0; i < 500 && session.snapshots_taken() < 3; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(session.snapshots_taken(), 3u);
    session.stop();
    EXPECT_FALSE(session.running());

    ASSERT_GE(ring.snapshots().size(), 4u);  // >= 3 periodic + the final one
    EXPECT_TRUE(ring.snapshots().back().final_snapshot);
    for (std::size_t i = 0; i + 1 < ring.snapshots().size(); ++i) {
        EXPECT_FALSE(ring.snapshots()[i].final_snapshot);
        EXPECT_EQ(ring.snapshots()[i].sequence + 1,
                  ring.snapshots()[i + 1].sequence);
        EXPECT_LE(ring.snapshots()[i].wall_time_s,
                  ring.snapshots()[i + 1].wall_time_s);
    }

    const std::size_t count = ring.snapshots().size();
    session.stop();  // idempotent: no extra snapshot
    EXPECT_EQ(ring.snapshots().size(), count);
}

TEST(TelemetrySession, RejectsNonPositiveIntervalAndNullExporters) {
    EXPECT_THROW((TelemetrySession{TelemetryConfig{0.0, {}}}),
                 std::invalid_argument);
    TelemetryConfig with_null;
    with_null.exporters.push_back(nullptr);
    EXPECT_THROW((TelemetrySession{with_null}), std::invalid_argument);
}

TEST(TelemetryMacro, NullSessionIsANoOp) {
    TelemetrySession* session = nullptr;
    // Must compile and do nothing — the detached-engine code path.
    SWARMAVAIL_TELEMETRY(session, counters().events_dispatched.fetch_add(
                                      1, std::memory_order_relaxed));
    TelemetrySession live{TelemetryConfig{60.0, {}}};
    session = &live;
    SWARMAVAIL_TELEMETRY(session, counters().events_dispatched.fetch_add(
                                      7, std::memory_order_relaxed));
#if defined(SWARMAVAIL_TELEMETRY_DISABLED)
    // Trace-off preset: the macro compiles to nothing even with a session.
    EXPECT_EQ(live.counters().events_dispatched.load(), 0u);
#else
    EXPECT_EQ(live.counters().events_dispatched.load(), 7u);
#endif
}

}  // namespace
}  // namespace swarmavail::telemetry
