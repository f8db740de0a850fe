// RequestRouter: the socket-free engine half of the planning server.
// Response schema, error codes, id echo, cache-backed determinism, the
// refinement fingerprint, and the STATS exposition.
#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/telemetry.hpp"

namespace serve = swarmavail::serve;
using swarmavail::JsonValue;
using serve::RequestRouter;
using serve::RouteResult;
using serve::RouterConfig;
using serve::Verb;

namespace {

JsonValue parse_response(const std::string& payload) {
    JsonValue value;
    std::string error;
    EXPECT_TRUE(swarmavail::parse_json(payload, value, &error))
        << error << " in " << payload;
    EXPECT_TRUE(value.is_object());
    return value;
}

// u = 30 keeps the swarm visibly unavailable (P(K=1) ~ 0.2), so the K
// plan below has real work to do.
const std::string kEval =
    "{\"verb\":\"EVAL\",\"id\":1,\"lambda\":2,\"size\":1,\"mu\":1.25,"
    "\"r\":0.05,\"u\":30}";
const std::string kRefine =
    "{\"verb\":\"REFINE\",\"id\":2,\"catalog\":{\"files\":4},\"k\":2,"
    "\"horizon\":2000,\"seed\":3}";

TEST(ServeRouter, PingEchoesIdAndIdentifiesService) {
    RequestRouter router;
    const RouteResult result = router.route("{\"verb\":\"PING\",\"id\":41}");
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.verb, Verb::kPing);

    const JsonValue response = parse_response(result.payload);
    EXPECT_TRUE(response.find("ok")->as_bool());
    EXPECT_DOUBLE_EQ(response.find("id")->as_number(), 41.0);
    EXPECT_EQ(response.find("verb")->as_string(), "PING");
    const JsonValue* body = response.find("result");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->find("service")->as_string(), "swarmavail-planning");
    EXPECT_EQ(router.requests(Verb::kPing), 1U);
}

TEST(ServeRouter, EvalReturnsModelNumbers) {
    RequestRouter router;
    const RouteResult result = router.route(kEval);
    ASSERT_TRUE(result.ok) << result.payload;
    const JsonValue response = parse_response(result.payload);
    const JsonValue* body = response.find("result");
    ASSERT_NE(body, nullptr);
    EXPECT_NEAR(body->find("busy_period")->as_number(), 78.356, 0.01);
    const double p = body->find("unavailability")->as_number();
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    ASSERT_NE(body->find("log_unavailability"), nullptr);
    ASSERT_NE(body->find("idle_period"), nullptr);
}

TEST(ServeRouter, ErrorsAreStructuredAndEchoIds) {
    RequestRouter router;

    RouteResult result = router.route("\xff\xfe");
    EXPECT_FALSE(result.ok);
    JsonValue response = parse_response(result.payload);
    EXPECT_FALSE(response.find("ok")->as_bool());
    EXPECT_EQ(response.find("error")->find("code")->as_string(), "bad-utf8");

    result = router.route("{nope");
    EXPECT_EQ(parse_response(result.payload).find("error")->find("code")->as_string(),
              "bad-json");

    result = router.route("{\"verb\":\"NOPE\",\"id\":6}");
    response = parse_response(result.payload);
    EXPECT_EQ(response.find("error")->find("code")->as_string(), "unknown-verb");
    EXPECT_DOUBLE_EQ(response.find("id")->as_number(), 6.0);  // echoed on errors

    result = router.route(
        "{\"verb\":\"EVAL\",\"id\":7,\"lambda\":-1,\"size\":1,\"mu\":1,"
        "\"r\":1,\"u\":1}");
    response = parse_response(result.payload);
    EXPECT_EQ(response.find("error")->find("code")->as_string(), "out-of-range");
    EXPECT_DOUBLE_EQ(response.find("id")->as_number(), 7.0);
    EXPECT_EQ(router.errors(), 4U);
}

TEST(ServeRouter, RepeatedRequestsAreBitIdenticalAndCached) {
    RequestRouter router;
    const RouteResult first = router.route(kEval);
    const RouteResult second = router.route(kEval);
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(first.payload, second.payload);  // byte-for-byte
    EXPECT_EQ(router.model_cache().hits(), 1U);
    EXPECT_EQ(router.model_cache().misses(), 1U);

    // A different id shares the fragment but reassembles the envelope.
    std::string other = kEval;
    const std::size_t at = other.find("\"id\":1");
    other.replace(at, 6, "\"id\":9");
    const RouteResult third = router.route(other);
    ASSERT_TRUE(third.ok);
    EXPECT_NE(third.payload, first.payload);
    EXPECT_DOUBLE_EQ(parse_response(third.payload).find("id")->as_number(), 9.0);
    EXPECT_EQ(router.model_cache().hits(), 2U);  // fragment hit either way
}

TEST(ServeRouter, TextuallyDifferentEquivalentRequestsShareACacheEntry) {
    // Satellite: canonical keys make byte-different but semantically equal
    // requests hit the same entry (member order, number spelling, explicit
    // defaults).
    RequestRouter router;
    const RouteResult a = router.route(kEval);
    const RouteResult b = router.route(
        "{\"u\":3e1,\"r\":5e-2,\"mu\":1.25,\"size\":1.0,\"lambda\":2.0,"
        "\"k\":1,\"model\":\"impatient\",\"id\":1,\"verb\":\"EVAL\"}");
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.payload, b.payload);
    EXPECT_EQ(router.model_cache().misses(), 1U);
    EXPECT_EQ(router.model_cache().hits(), 1U);
}

TEST(ServeRouter, PlanReturnsFeasiblePlanWithEvaluationCount) {
    RequestRouter router;
    const RouteResult result = router.route(
        "{\"verb\":\"PLAN\",\"id\":3,\"lambda\":2,\"size\":1,\"mu\":1.25,"
        "\"r\":0.05,\"u\":30,\"variable\":\"k\",\"target\":0.001,"
        "\"max_k\":64}");
    ASSERT_TRUE(result.ok) << result.payload;
    const JsonValue response = parse_response(result.payload);
    const JsonValue* body = response.find("result");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->find("variable")->as_string(), "k");
    EXPECT_TRUE(body->find("feasible")->as_bool());
    const double k = body->find("k")->as_number();
    EXPECT_GE(k, 2.0);
    EXPECT_DOUBLE_EQ(body->find("value")->as_number(), k);
    EXPECT_GE(body->find("evaluations")->as_number(), k);
    EXPECT_LE(body->find("unavailability")->as_number(), 0.001);
}

TEST(ServeRouterPlanning, RefineRunsSimulationWithFingerprint) {
    RequestRouter router;
    const RouteResult result = router.route(kRefine);
    ASSERT_TRUE(result.ok) << result.payload;
    const JsonValue response = parse_response(result.payload);
    const JsonValue* body = response.find("result");
    ASSERT_NE(body, nullptr);
    EXPECT_GT(body->find("arrivals")->as_number(), 0.0);
    EXPECT_EQ(body->find("swarms")->as_number(), 2.0);  // 4 files / K=2
    const std::string fingerprint = body->find("fingerprint")->as_string();
    EXPECT_EQ(fingerprint.size(), 16U);
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    EXPECT_NE(fingerprint, "0000000000000000");
    EXPECT_NE(router.refine_fingerprint_xor(), 0U);
#endif

    // The second identical request is a cache hit with identical bytes,
    // and the XOR digest is untouched (hits must not cancel it).
    const std::uint64_t digest = router.refine_fingerprint_xor();
    const RouteResult again = router.route(kRefine);
    EXPECT_EQ(again.payload, result.payload);
    EXPECT_EQ(router.refine_cache().hits(), 1U);
    EXPECT_EQ(router.refine_fingerprint_xor(), digest);
}

TEST(ServeRouterPlanning, ConcurrentMixedRoutingIsBitIdentical) {
    RequestRouter router;
    const std::vector<std::string> stream = {
        "{\"verb\":\"PING\",\"id\":1}",
        kEval,
        kRefine,
        "{\"verb\":\"PLAN\",\"id\":4,\"lambda\":2,\"size\":1,\"mu\":1.25,"
        "\"r\":0.05,\"u\":300,\"variable\":\"k\",\"target\":0.01}",
        kEval,
    };
    const RouteResult expected_refine = router.route(kRefine);  // warm once

    constexpr int kThreads = 4;
    std::vector<std::vector<std::string>> replies(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (const std::string& request : stream) {
                replies[static_cast<std::size_t>(t)].push_back(
                    router.route(request).payload);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(replies[static_cast<std::size_t>(t)],
                  replies[0]);  // same stream, same bytes
    }
    EXPECT_EQ(replies[0][2], expected_refine.payload);
}

TEST(ServeRouter, StatsRendersValidPrometheusText) {
    RequestRouter router;
    router.set_stats_appender([](std::string& out) {
        out += "# TYPE custom_gauge gauge\ncustom_gauge 7\n";
    });
    static_cast<void>(router.route(kEval));
    static_cast<void>(router.route("{\"verb\":\"NOPE\"}"));

    const RouteResult result = router.route("{\"verb\":\"STATS\",\"id\":5}");
    ASSERT_TRUE(result.ok);
    const JsonValue response = parse_response(result.payload);
    const JsonValue* body = response.find("result");
    ASSERT_NE(body, nullptr);
    const std::string text = body->find("prometheus")->as_string();

    std::string why;
    EXPECT_TRUE(swarmavail::telemetry::validate_prometheus_text(text, &why)) << why;
    EXPECT_NE(text.find("swarmavail_server_requests_total{verb=\"eval\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("swarmavail_server_errors_total 1"), std::string::npos);
    EXPECT_NE(text.find("custom_gauge 7"), std::string::npos);

    const std::string direct = router.render_stats();
    EXPECT_TRUE(swarmavail::telemetry::validate_prometheus_text(direct, &why))
        << why;
}

TEST(ServeRouter, ErrorResponseHelperProducesParseableErrors) {
    const std::string payload =
        RequestRouter::error_response(serve::error_code::kOverloaded,
                                      "queue \"model\" is full");
    const JsonValue response = parse_response(payload);
    EXPECT_FALSE(response.find("ok")->as_bool());
    EXPECT_EQ(response.find("error")->find("code")->as_string(), "overloaded");
}

}  // namespace
