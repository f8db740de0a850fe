// Request schema of the planning service: strict member validation, range
// checks, defaults, lane classification, and the canonical cache keys
// (satellite: textually different but semantically equal requests must
// produce byte-equal keys).
#include "serve/request.hpp"

#include <gtest/gtest.h>

#include <string>

namespace serve = swarmavail::serve;
using swarmavail::JsonValue;
using serve::Request;
using serve::RequestPolicy;
using serve::ServeError;
using serve::Verb;

namespace {

JsonValue parse_payload(const std::string& text) {
    JsonValue value;
    std::string error;
    EXPECT_TRUE(swarmavail::parse_json(text, value, &error)) << error;
    return value;
}

Request request_ok(const std::string& text) {
    Request out;
    ServeError error;
    const JsonValue payload = parse_payload(text);
    EXPECT_TRUE(serve::parse_request(payload, RequestPolicy{}, out, error))
        << error.code << ": " << error.message << " in " << text;
    return out;
}

ServeError request_error(const std::string& text) {
    Request out;
    ServeError error;
    const JsonValue payload = parse_payload(text);
    EXPECT_FALSE(serve::parse_request(payload, RequestPolicy{}, out, error))
        << "accepted: " << text;
    EXPECT_FALSE(error.code.empty());
    return error;
}

const std::string kEval =
    "{\"verb\":\"EVAL\",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,\"u\":300}";

TEST(ServeRequest, ParsesPingWithAndWithoutId) {
    Request ping = request_ok("{\"verb\":\"PING\"}");
    EXPECT_EQ(ping.verb, Verb::kPing);
    EXPECT_FALSE(ping.has_id);

    ping = request_ok("{\"verb\":\"PING\",\"id\":42}");
    EXPECT_TRUE(ping.has_id);
    EXPECT_EQ(ping.id, 42U);
}

TEST(ServeRequest, ParsesEvalWithDefaults) {
    const Request req = request_ok(kEval);
    EXPECT_EQ(req.verb, Verb::kEval);
    EXPECT_DOUBLE_EQ(req.eval.params.peer_arrival_rate, 2.0);
    EXPECT_DOUBLE_EQ(req.eval.params.publisher_residence, 300.0);
    EXPECT_EQ(req.eval.bundle, 1U);
    EXPECT_EQ(req.eval.scaling, swarmavail::model::PublisherScaling::kConstant);
    EXPECT_EQ(req.eval.model, serve::AvailabilityModel::kImpatient);
}

TEST(ServeRequest, RejectsUnknownAndMissingMembers) {
    ServeError error = request_error(
        "{\"verb\":\"EVAL\",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,"
        "\"u\":300,\"lambada\":1}");
    EXPECT_EQ(error.code, serve::error_code::kBadRequest);
    EXPECT_NE(error.message.find("unknown member"), std::string::npos);

    error = request_error("{\"verb\":\"EVAL\",\"lambda\":2}");
    EXPECT_EQ(error.code, serve::error_code::kBadRequest);
    EXPECT_NE(error.message.find("missing required"), std::string::npos);

    // PING accepts only verb/id.
    error = request_error("{\"verb\":\"PING\",\"lambda\":2}");
    EXPECT_EQ(error.code, serve::error_code::kBadRequest);
}

TEST(ServeRequest, RejectsUnknownVerbAndOutOfRangeValues) {
    EXPECT_EQ(request_error("{\"verb\":\"NOPE\"}").code,
              serve::error_code::kUnknownVerb);
    EXPECT_EQ(request_error("{}").code, serve::error_code::kBadRequest);

    EXPECT_EQ(request_error("{\"verb\":\"EVAL\",\"lambda\":-1,\"size\":1,"
                            "\"mu\":1,\"r\":1,\"u\":1}")
                  .code,
              serve::error_code::kOutOfRange);
    EXPECT_EQ(request_error("{\"verb\":\"EVAL\",\"lambda\":0,\"size\":1,"
                            "\"mu\":1,\"r\":1,\"u\":1}")
                  .code,
              serve::error_code::kOutOfRange);  // lo is exclusive
    EXPECT_EQ(request_error("{\"verb\":\"EVAL\",\"lambda\":1e13,\"size\":1,"
                            "\"mu\":1,\"r\":1,\"u\":1}")
                  .code,
              serve::error_code::kOutOfRange);  // above policy.max_rate
}

TEST(ServeRequest, IntegerFieldsMustBeExactWholeNumbers) {
    const std::string base =
        "{\"verb\":\"EVAL\",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,"
        "\"u\":300,\"k\":";
    EXPECT_EQ(request_ok(base + "4}").eval.bundle, 4U);
    EXPECT_EQ(request_error(base + "4.5}").code, serve::error_code::kOutOfRange);
    EXPECT_EQ(request_error(base + "0}").code, serve::error_code::kOutOfRange);
    EXPECT_EQ(request_error(base + "1e300}").code, serve::error_code::kOutOfRange);
    // id must sit in the exact-double window too (2^53 + 1 itself would
    // round to 2^53 inside the JSON double and parse clean, so probe with
    // a value far beyond the window).
    EXPECT_EQ(request_error("{\"verb\":\"PING\",\"id\":1e16}").code,
              serve::error_code::kOutOfRange);
}

TEST(ServeRequest, IdIsParsedBeforeVerbBodySoErrorsCanEchoIt) {
    Request out;
    ServeError error;
    const JsonValue payload = parse_payload(
        "{\"verb\":\"EVAL\",\"id\":9,\"lambda\":-1,\"size\":1,\"mu\":1,"
        "\"r\":1,\"u\":1}");
    EXPECT_FALSE(serve::parse_request(payload, RequestPolicy{}, out, error));
    EXPECT_TRUE(out.has_id);
    EXPECT_EQ(out.id, 9U);
}

TEST(ServeRequest, PlanDefaultsAndValidation) {
    const std::string plan_k =
        "{\"verb\":\"PLAN\",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,"
        "\"u\":300,\"variable\":\"k\",\"target\":0.01}";
    Request req = request_ok(plan_k);
    EXPECT_EQ(req.plan.variable, serve::PlanRequest::Variable::kBundleSize);
    EXPECT_DOUBLE_EQ(req.plan.target_unavailability, 0.01);
    EXPECT_EQ(req.plan.max_bundle, 4096U);

    // The u plan's default bracket is deliberately modest (the evaluator
    // costs O((lambda*K*u)^2)); bigger searches must state "hi".
    req = request_ok(
        "{\"verb\":\"PLAN\",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,"
        "\"u\":300,\"variable\":\"u\",\"target\":0.01}");
    EXPECT_DOUBLE_EQ(req.plan.lo, 1.0e-3);
    EXPECT_DOUBLE_EQ(req.plan.hi, 1.0e5);

    EXPECT_EQ(request_error("{\"verb\":\"PLAN\",\"lambda\":2,\"size\":1,"
                            "\"mu\":1.25,\"r\":0.05,\"u\":300}")
                  .code,
              serve::error_code::kBadRequest);  // variable/target required
    EXPECT_EQ(request_error(
                  "{\"verb\":\"PLAN\",\"lambda\":2,\"size\":1,\"mu\":1.25,"
                  "\"r\":0.05,\"u\":300,\"variable\":\"u\",\"target\":0.01,"
                  "\"lo\":10,\"hi\":1}")
                  .code,
              serve::error_code::kOutOfRange);  // lo >= hi
    EXPECT_EQ(request_error(
                  "{\"verb\":\"PLAN\",\"lambda\":2,\"size\":1,\"mu\":1.25,"
                  "\"r\":0.05,\"u\":300,\"variable\":\"u\",\"target\":0.01,"
                  "\"model\":\"peers_publishers\"}")
                  .code,
              serve::error_code::kBadRequest);  // u is meaningless there
    EXPECT_EQ(request_error(
                  "{\"verb\":\"PLAN\",\"lambda\":2,\"size\":1,\"mu\":1.25,"
                  "\"r\":0.05,\"u\":300,\"variable\":\"k\",\"target\":1}")
                  .code,
              serve::error_code::kOutOfRange);  // target must be < 1
}

TEST(ServeRequest, RefineDefaultsComeFromPolicyCatalog) {
    const Request req = request_ok("{\"verb\":\"REFINE\"}");
    EXPECT_EQ(req.refine.catalog.num_files, 64U);
    EXPECT_DOUBLE_EQ(req.refine.catalog.zipf_exponent, 1.0);
    EXPECT_EQ(req.refine.policy, "fixedk");
    EXPECT_EQ(req.refine.bundle, 4U);
    EXPECT_EQ(req.refine.seed, 1U);
    EXPECT_TRUE(req.refine.patient_peers);

    const Request partial =
        request_ok("{\"verb\":\"REFINE\",\"catalog\":{\"files\":8},\"k\":2,"
                   "\"seed\":7}");
    EXPECT_EQ(partial.refine.catalog.num_files, 8U);
    EXPECT_DOUBLE_EQ(partial.refine.catalog.zipf_exponent, 1.0);  // kept default
    EXPECT_EQ(partial.refine.bundle, 2U);
    EXPECT_EQ(partial.refine.seed, 7U);
}

TEST(ServeRequest, RefineRejectsBadShapes) {
    EXPECT_EQ(request_error("{\"verb\":\"REFINE\",\"files\":8}").code,
              serve::error_code::kBadRequest);  // files lives under "catalog"
    EXPECT_EQ(request_error("{\"verb\":\"REFINE\",\"catalog\":3}").code,
              serve::error_code::kBadRequest);
    EXPECT_EQ(request_error("{\"verb\":\"REFINE\",\"policy\":\"magic\"}").code,
              serve::error_code::kBadRequest);
    EXPECT_EQ(
        request_error("{\"verb\":\"REFINE\",\"catalog\":{\"files\":4},\"k\":9}")
            .code,
        serve::error_code::kOutOfRange);  // bundle cannot exceed catalog size
    EXPECT_EQ(request_error("{\"verb\":\"REFINE\",\"stop_ci\":2}").code,
              serve::error_code::kOutOfRange);
    EXPECT_EQ(request_error("{\"verb\":\"REFINE\",\"patient\":1}").code,
              serve::error_code::kBadRequest);  // boolean, not number
}

TEST(ServeRequest, LaneClassification) {
    EXPECT_EQ(serve::lane_of(Verb::kRefine), serve::Lane::kSim);
    EXPECT_EQ(serve::lane_of(Verb::kEval), serve::Lane::kModel);
    EXPECT_EQ(serve::classify_lane("{\"verb\":\"REFINE\",\"k\":2}"),
              serve::Lane::kSim);
    EXPECT_EQ(serve::classify_lane("{ \"verb\" : \"REFINE\" }"), serve::Lane::kSim);
    EXPECT_EQ(serve::classify_lane(kEval), serve::Lane::kModel);
    EXPECT_EQ(serve::classify_lane("not json at all"), serve::Lane::kModel);
}

// Satellite: canonical keys. Two textually different but semantically
// equal requests must map to the same cache key, byte for byte.
TEST(ServeRequest, CanonicalEvalKeyIsTextInvariant) {
    // Different member order, explicit defaults vs omitted, different
    // number spellings, an id on one side only.
    const Request a = request_ok(
        "{\"verb\":\"EVAL\",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,"
        "\"u\":300}");
    const Request b = request_ok(
        "{\"id\":77,\"u\":3e2,\"r\":5e-2,\"mu\":1.25,\"size\":1.0,"
        "\"lambda\":2,\"k\":1,\"scaling\":\"constant\","
        "\"model\":\"impatient\",\"verb\":\"EVAL\"}");
    EXPECT_EQ(serve::canonical_eval_key(a.eval), serve::canonical_eval_key(b.eval));

    const Request c = request_ok(
        "{\"verb\":\"EVAL\",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,"
        "\"u\":300,\"k\":2}");
    EXPECT_NE(serve::canonical_eval_key(a.eval), serve::canonical_eval_key(c.eval));
}

TEST(ServeRequest, CanonicalPlanAndRefineKeysAreTextInvariant) {
    const Request a = request_ok(
        "{\"verb\":\"PLAN\",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,"
        "\"u\":300,\"variable\":\"k\",\"target\":0.01}");
    const Request b = request_ok(
        "{\"target\":1e-2,\"variable\":\"k\",\"max_k\":4096,\"u\":300,"
        "\"r\":0.05,\"mu\":1.25,\"size\":1,\"lambda\":2,\"verb\":\"PLAN\","
        "\"id\":3}");
    EXPECT_EQ(serve::canonical_plan_key(a.plan), serve::canonical_plan_key(b.plan));
    EXPECT_NE(serve::canonical_plan_key(a.plan),
              serve::canonical_eval_key(a.plan.base));  // separate key spaces

    const Request r1 = request_ok("{\"verb\":\"REFINE\",\"catalog\":{}}");
    const Request r2 = request_ok(
        "{\"verb\":\"REFINE\",\"seed\":1,\"k\":4,\"policy\":\"fixedk\","
        "\"catalog\":{\"files\":64,\"alpha\":1.0,\"u\":1000,\"r\":0.05}}");
    EXPECT_EQ(serve::canonical_refine_key(r1.refine),
              serve::canonical_refine_key(r2.refine));

    const Request r3 = request_ok("{\"verb\":\"REFINE\",\"seed\":2}");
    EXPECT_NE(serve::canonical_refine_key(r1.refine),
              serve::canonical_refine_key(r3.refine));
}

TEST(ServeRequest, VerbNamesAndLabelsAreStable) {
    EXPECT_EQ(serve::verb_name(Verb::kRefine), "REFINE");
    EXPECT_EQ(serve::verb_label(Verb::kRefine), "refine");
    EXPECT_EQ(serve::verb_name(Verb::kStats), "STATS");
    EXPECT_EQ(serve::verb_label(Verb::kPing), "ping");
}

}  // namespace
