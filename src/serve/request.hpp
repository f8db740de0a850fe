// Typed requests of the planning service: verbs, parameter schemas, strict
// validation, and canonical cache keys (DESIGN.md §15).
//
// A request payload is one JSON object with a "verb" member and verb-
// specific parameters named after the paper's symbols (lambda, size, mu,
// r, u, k, alpha). Parsing is strict: unknown members are rejected (a typo'd
// field must not silently fall back to a default), every numeric field is
// range-checked against explicit ceilings, and integral fields must be
// exactly-representable whole numbers. Failures produce a ServeError with
// a stable machine-readable code; the router turns it into the structured
// error response.
//
// Canonical keys: canonical_*_key serialize the *semantic* content of a
// request (defaults applied, id excluded) as sorted-key lossless JSON —
// the same shortest-exact double writer report.cpp uses — so two
// textually different but semantically equal requests map to the same
// cache entry, byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "catalog/catalog.hpp"
#include "model/params.hpp"
#include "util/json.hpp"

namespace swarmavail::serve {

/// Wire verbs, in the fixed order used by metrics and counters.
enum class Verb { kPing, kEval, kPlan, kRefine, kStats };
inline constexpr std::size_t kVerbCount = 5;

/// Stable wire name of a verb ("PING", "EVAL", ...).
[[nodiscard]] std::string_view verb_name(Verb verb) noexcept;

/// Lowercase metric-label form ("ping", "eval", ...).
[[nodiscard]] std::string_view verb_label(Verb verb) noexcept;

/// Priority lane of a verb: REFINE runs simulations (kSim); everything
/// else is microsecond model-path work (kModel).
enum class Lane { kModel, kSim };
[[nodiscard]] Lane lane_of(Verb verb) noexcept;

/// Cheap lane classification of a raw payload without a full parse: scans
/// for the "verb" member. Unparseable payloads classify as kModel so the
/// error response is produced fast.
[[nodiscard]] Lane classify_lane(std::string_view payload) noexcept;

/// A structured request failure; `code` is machine-readable and stable.
struct ServeError {
    std::string code;     ///< "bad-json", "unknown-verb", "out-of-range", ...
    std::string message;  ///< human diagnostic
};

/// Error codes used across the service (kept in one place so tests and
/// clients can match on them).
namespace error_code {
inline constexpr std::string_view kBadFrame = "bad-frame";
inline constexpr std::string_view kBadUtf8 = "bad-utf8";
inline constexpr std::string_view kBadJson = "bad-json";
inline constexpr std::string_view kBadRequest = "bad-request";
inline constexpr std::string_view kUnknownVerb = "unknown-verb";
inline constexpr std::string_view kOutOfRange = "out-of-range";
inline constexpr std::string_view kOverloaded = "overloaded";
inline constexpr std::string_view kInternal = "internal";
}  // namespace error_code

/// Which closed-form evaluator an EVAL/PLAN request uses.
enum class AvailabilityModel {
    kImpatient,        ///< availability_impatient (Section 3.3.1, the default)
    kPublishersOnly,   ///< availability_publishers_only (Section 3.2)
    kPeersPublishers,  ///< availability_peers_and_publishers (eqs. 7-8)
};

/// Point evaluation: one swarm/bundle, closed form, microseconds.
struct EvalRequest {
    model::SwarmParams params;  ///< base (single-file) parameters
    std::size_t bundle = 1;     ///< K; params are bundled via make_bundle
    model::PublisherScaling scaling = model::PublisherScaling::kConstant;
    AvailabilityModel model = AvailabilityModel::kImpatient;
};

/// Inverse planning: find the knob value meeting a target unavailability.
struct PlanRequest {
    enum class Variable {
        kBundleSize,       ///< smallest K with P <= target
        kSeedUptime,       ///< smallest publisher residence u
        kPublisherBudget,  ///< smallest publisher arrival rate r
    };

    EvalRequest base;  ///< params/scaling/model; `bundle` fixed for u/r plans
    Variable variable = Variable::kBundleSize;
    double target_unavailability = 0.0;  ///< in (0, 1)
    std::size_t max_bundle = 4096;       ///< K search ceiling
    double lo = 0.0;                     ///< bisection bracket for u/r plans
    double hi = 0.0;
};

/// On-demand simulation refinement of a catalog answer.
struct RefineRequest {
    catalog::CatalogConfig catalog;
    std::string policy = "fixedk";  ///< "none" | "fixedk" | "greedy"
    std::size_t bundle = 4;         ///< K for fixedk/greedy
    double horizon = 2.0e4;         ///< simulated seconds per swarm
    std::uint64_t seed = 1;
    std::size_t coverage_threshold = 1;
    bool patient_peers = true;
    double linger_time = 0.0;
    /// > 0 attaches a telemetry::StopRule over per-swarm unavailability;
    /// the engine then runs serially so the covered prefix is deterministic.
    double stop_ci = 0.0;
    std::size_t stop_min_observations = 8;
};

/// One parsed request. Exactly the member named by `verb` is meaningful.
struct Request {
    Verb verb = Verb::kPing;
    bool has_id = false;
    std::uint64_t id = 0;
    EvalRequest eval;
    PlanRequest plan;
    RefineRequest refine;
};

/// Ceilings and defaults the parser enforces; the server's --catalog flags
/// feed `default_catalog` (REFINE requests may omit catalog fields).
struct RequestPolicy {
    std::size_t max_bundle = 65536;     ///< K ceiling for EVAL/PLAN
    std::size_t max_files = 100000;     ///< catalog N ceiling for REFINE
    double max_horizon = 1.0e7;         ///< per-swarm simulated seconds
    double max_rate = 1.0e12;           ///< ceiling on rates/sizes/durations
    catalog::CatalogConfig default_catalog;

    RequestPolicy();
};

/// Parses one decoded JSON payload into a typed Request. Returns false and
/// fills `error` on any violation; never throws on bad input.
[[nodiscard]] bool parse_request(const JsonValue& payload, const RequestPolicy& policy,
                                 Request& out, ServeError& error);

/// Canonical cache keys: sorted-key lossless JSON of the request semantics
/// (defaults applied, id excluded). Byte-equal key <=> semantically equal
/// request.
[[nodiscard]] std::string canonical_eval_key(const EvalRequest& request);
[[nodiscard]] std::string canonical_plan_key(const PlanRequest& request);
[[nodiscard]] std::string canonical_refine_key(const RefineRequest& request);

}  // namespace swarmavail::serve
