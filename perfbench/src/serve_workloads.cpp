// serve_warm and serve_cold: an in-process PlanningServer driven over TCP
// loopback by the load generator (loadgen.hpp).
//
// Thread budget per workload: the server's io thread and 2 workers plus the
// calling thread, which runs the generator.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "loadgen.hpp"
#include "serve/json.hpp"
#include "serve/planning.hpp"
#include "serve/request.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/span.hpp"
#include "sim/fingerprint.hpp"

namespace perfbench {
namespace {

namespace serve = swarmavail::serve;
namespace catalog = swarmavail::catalog;

// serve_warm offered load (requests/s), recorded in BENCHMARK.json. Both
// sit far below the sustainable rate on purpose: the daemon's replies wait
// on Nagle's algorithm for the client's next packet, and every few seconds
// at 10^4 requests/s and above a reply waits 40 ms for a delayed ACK
// instead. At 5000/s such a stall queues at most ~200 requests, under the
// 256-request lane bound, so it shows as latency and never as a refusal.
constexpr double kRateLo = 2000.0;
constexpr double kRateHi = 5000.0;
constexpr double kLatencyLimit = 1e-3;  ///< p99 limit of the sustainable rate
constexpr std::size_t kWarmKeys = 1024;
constexpr std::size_t kColdWindows = 10;
constexpr int kSetupReps = 3;

/// One EVAL or PLAN question of the closed-form model, K in 1..4. The
/// parameters follow the planning-service bench (lambda 2, mu 1.25,
/// r 0.05); u varies so every key is distinct.
struct ModelKey {
    bool plan = false;
    int k = 1;
    double u = 30.0;
};

std::string model_payload(const ModelKey& key, std::uint64_t id) {
    std::string out = key.plan ? "{\"verb\":\"PLAN\"" : "{\"verb\":\"EVAL\"";
    out += ",\"id\":" + std::to_string(id);
    out += ",\"lambda\":2,\"size\":1,\"mu\":1.25,\"r\":0.05,\"u\":";
    out += format_number(key.u);
    out += ",\"k\":" + std::to_string(key.k);
    if (key.plan) {
        out += ",\"variable\":\"k\",\"target\":0.001,\"max_k\":" + std::to_string(key.k);
    }
    out += "}";
    return out;
}

/// Fresh keys: each u is drawn once, so no key repeats within a run. The
/// verb and K cycle through all eight pairs, so every window asks the same
/// mix (a K=4 key costs ten times a K=1 key).
class ModelKeySource {
 public:
    explicit ModelKeySource(std::uint64_t seed) : rng_(seed) {}
    ModelKey next() {
        ModelKey key;
        key.plan = drawn_ % 2 == 1;
        key.k = 1 + static_cast<int>((drawn_ / 2) % 4);
        ++drawn_;
        do {
            key.u = 25.0 + 10.0 * rng_.uniform();
        } while (!seen_.insert(key.u).second);
        return key;
    }

 private:
    InputRng rng_;
    std::uint64_t drawn_ = 0;
    std::unordered_set<double> seen_;
};

/// REFINE of a 10^4-file Zipf(1) catalog bundled FixedK(8), fresh seed.
std::string refine_payload(std::uint64_t id, std::uint64_t sim_seed) {
    return "{\"verb\":\"REFINE\",\"id\":" + std::to_string(id) +
           ",\"catalog\":{\"files\":10000,\"alpha\":1,\"demand\":10,\"size\":1,"
           "\"mu\":1.25,\"r\":0.0001,\"u\":3600},\"policy\":\"fixedk\",\"k\":8,"
           "\"horizon\":20000,\"seed\":" +
           std::to_string(sim_seed) + "}";
}

bool parse_payload(const std::string& payload, serve::Request& request) {
    serve::JsonValue value;
    serve::ServeError error;
    return serve::parse_json(payload, value, nullptr) &&
           serve::parse_request(value, serve::RequestPolicy{}, request, error);
}

/// The engine call a REFINE runs, made in-process on the request's config.
catalog::CatalogReport refine_in_process(const serve::RefineRequest& refine) {
    const catalog::Catalog cat = catalog::build_catalog(refine.catalog);
    const auto policy = catalog::make_policy(refine.policy, refine.bundle);
    catalog::CatalogEngineConfig config;
    config.horizon = refine.horizon;
    config.seed = refine.seed;
    config.coverage_threshold = refine.coverage_threshold;
    config.patient_peers = refine.patient_peers;
    config.linger_time = refine.linger_time;
    config.policy.threads = 1;
    config.fingerprint = true;
    return catalog::run_catalog(cat, *policy, config);
}

/// Replies whose bytes differ from a fresh in-process router's answer.
std::size_t reference_mismatches(const std::vector<std::string>& payloads,
                                 const std::vector<std::string>& replies) {
    serve::RequestRouter reference;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        bad += reference.route(payloads[i]).payload == replies[i] ? 0 : 1;
    }
    return bad;
}

/// Sends `payloads` (ids base_id..) with at most `window` unanswered;
/// returns the requests not answered ok.
std::size_t pipelined(ClientConn& conn, const std::vector<std::string>& payloads,
                      std::uint64_t base_id, std::size_t window) {
    OpenLoopConfig config;
    config.window = window;
    config.base_id = base_id;
    config.drain_timeout_s = 30.0;
    const OpenLoopRun run =
        run_open_loop(conn, payloads, std::vector<double>(payloads.size(), 0.0), config);
    return payloads.size() - run.ok;
}

/// A running server plus the connection(s) the generator uses.
struct Rig {
    serve::MemorySpanSink span_sink;  ///< outlives the server (declared first)
    std::unique_ptr<serve::PlanningServer> server;
    std::vector<std::unique_ptr<ClientConn>> conns;
    std::uint64_t next_id = 1;
};

void set_spans(Rig& rig, bool on) {
#if !defined(SWARMAVAIL_SPANS_DISABLED)
    if (serve::SpanHub* hub = rig.server->span_hub(); hub != nullptr) {
        hub->set_enabled(on);
    }
#else
    static_cast<void>(rig);
    static_cast<void>(on);
#endif
}

std::unique_ptr<Rig> start_rig(std::size_t connections, bool spans) {
    auto rig = std::make_unique<Rig>();
    serve::ServerConfig config;
    config.threads = 2;
    if (spans) {
        // Every finished request hands its whole stage breakdown to the
        // sink (a slow-query threshold nothing can stay under).
        config.spans = true;
        config.slow_query_seconds = 1e-12;
        config.slow_query_sink = &rig->span_sink;
    }
    rig->server = std::make_unique<serve::PlanningServer>(config);
    rig->server->start();
    set_spans(*rig, false);
    for (std::size_t c = 0; c < connections; ++c) {
        rig->conns.push_back(std::make_unique<ClientConn>(rig->server->port()));
    }
    return rig;
}

/// Seconds to add to a span-hub timestamp to put it on the now_s() axis.
double hub_offset(Rig& rig) {
#if !defined(SWARMAVAIL_SPANS_DISABLED)
    if (serve::SpanHub* hub = rig.server->span_hub(); hub != nullptr) {
        return now_s() - hub->now();
    }
#else
    static_cast<void>(rig);
#endif
    return 0.0;
}

/// Per-request server stages, indexed by the hub's request number.
struct ServerStages {
    double t0[serve::kSpanStageCount] = {};
    double t1[serve::kSpanStageCount] = {};
    std::uint64_t decode_bytes = 0;
    std::uint16_t lane = 0;
    std::uint32_t seen = 0;
    [[nodiscard]] bool has(serve::SpanStage s) const {
        return (seen & (1U << static_cast<unsigned>(s))) != 0;
    }
    [[nodiscard]] double duration(serve::SpanStage s) const {
        const auto i = static_cast<std::size_t>(s);
        return has(s) ? t1[i] - t0[i] : 0.0;
    }
};

std::vector<ServerStages> collect_stages(const serve::MemorySpanSink& sink) {
    std::vector<ServerStages> out;
    for (const serve::SpanRecord& r : sink.records()) {
        if (r.request == 0 || r.stage >= serve::kSpanStageCount) {
            continue;
        }
        if (out.size() < r.request) {
            out.resize(r.request);
        }
        ServerStages& s = out[r.request - 1];
        s.t0[r.stage] = r.t_start;
        s.t1[r.stage] = r.t_end;
        s.seen |= 1U << r.stage;
        s.lane = r.lane;
        if (r.stage == static_cast<std::uint16_t>(serve::SpanStage::kDecode)) {
            s.decode_bytes = r.bytes;
        }
    }
    return out;
}

void stage_metrics(const std::vector<ServerStages>& stages, Result& result) {
    std::vector<double> decode;
    std::vector<double> wait;
    std::vector<double> write;
    for (const ServerStages& s : stages) {
        if (s.seen == 0) {
            continue;
        }
        decode.push_back(s.duration(serve::SpanStage::kDecode) * 1e6);
        write.push_back(s.duration(serve::SpanStage::kWrite) * 1e6);
        if (s.lane == static_cast<std::uint16_t>(serve::Lane::kModel)) {
            wait.push_back(s.duration(serve::SpanStage::kQueueWait) * 1e6);
        }
    }
    result.metric("serve.decode_us.p50", median(decode), "us");
    result.metric("serve.queue_wait_us.p50", quantile(wait, 0.5), "us");
    result.metric("serve.queue_wait_us.p99", quantile(wait, 0.99), "us");
    result.metric("serve.write_us.p50", median(write), "us");
}

/// Model-layer timings on a workload's own keys: evaluate_model per K on
/// EVAL keys, run_plan on PLAN keys, and the exact evaluation count.
void model_metrics(const std::vector<ModelKey>& keys, Spans& spans, Result& result) {
    std::vector<double> eval_us[4];
    std::vector<double> plan_us;
    std::uint64_t evaluations = 0;
    for (const ModelKey& key : keys) {
        serve::Request request;
        if (!parse_payload(model_payload(key, 0), request)) {
            result.check(false, "model key does not parse");
            continue;
        }
        const double t0 = now_s();
        if (key.plan) {
            const serve::PlanOutcome outcome = serve::run_plan(request.plan);
            const double t1 = now_s();
            spans.add("model.run_plan", t0, t1);
            plan_us.push_back((t1 - t0) * 1e6);
            evaluations += outcome.evaluations;
        } else {
            const auto value = serve::evaluate_model(request.eval);
            const double t1 = now_s();
            spans.add("model.evaluate_model", t0, t1);
            eval_us[key.k - 1].push_back((t1 - t0) * 1e6);
            result.check(std::isfinite(value.unavailability), "model value is finite");
        }
    }
    for (int k = 1; k <= 4; ++k) {
        result.metric("model.eval_us.k" + std::to_string(k), median(eval_us[k - 1]),
                      "us");
    }
    result.metric("model.plan_us.p50", median(plan_us), "us");
    result.metric("model.plan_evaluations", static_cast<double>(evaluations), "count");
}

/// The first `per_kind` EVAL keys of every K and PLAN keys of every K.
std::vector<ModelKey> model_sample(const std::vector<ModelKey>& keys,
                                   std::size_t per_kind) {
    std::vector<ModelKey> out;
    std::size_t taken[2][4] = {};
    for (const ModelKey& key : keys) {
        std::size_t& n = taken[key.plan ? 1 : 0][key.k - 1];
        if (n < per_kind) {
            ++n;
            out.push_back(key);
        }
    }
    return out;
}

void cache_metrics(serve::RequestRouter& router, std::uint64_t hits0,
                   std::uint64_t misses0, Result& result) {
    const double hits = static_cast<double>(router.model_cache().hits() - hits0);
    const double misses = static_cast<double>(router.model_cache().misses() - misses0);
    result.metric("cache.model_hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    result.metric("cache.model_evictions",
                  static_cast<double>(router.model_cache().evictions()), "count");
    const double rh = static_cast<double>(router.refine_cache().hits());
    const double rm = static_cast<double>(router.refine_cache().misses());
    result.metric("cache.refine_hit_ratio", rh + rm > 0 ? rh / (rh + rm) : 0.0, "ratio");
}

// ---------------------------------------------------------------- serve_warm

struct WarmStream {
    std::vector<std::string> payloads;
    std::vector<double> due;
    std::vector<std::size_t> keep;  ///< indices checked byte for byte
};

/// `rate` req/s for `duration` s over uniformly drawn warm keys (rate 0:
/// `count` requests, all due at once); ids are taken from rig.next_id.
WarmStream warm_stream(const std::vector<ModelKey>& keys, double rate, double duration,
                       std::uint64_t seed, Rig& rig, std::size_t count = 0) {
    WarmStream stream;
    stream.due = rate > 0.0 ? poisson_schedule(rate, duration, derive_seed(seed, "due"))
                            : std::vector<double>(count, 0.0);
    InputRng pick(derive_seed(seed, "keys"));
    stream.payloads.reserve(stream.due.size());
    for (std::size_t i = 0; i < stream.due.size(); ++i) {
        stream.payloads.push_back(
            model_payload(keys[pick.below(keys.size())], rig.next_id + i));
        if (pick.below(256) == 0) {
            stream.keep.push_back(i);
        }
    }
    return stream;
}

/// How a phase sends.
enum class Mode {
    kFixedRate,  ///< on schedule whatever the backlog: stalls show as latency
    kProbe,      ///< on schedule, stopping once the backlog passes its bound
    kWindow,     ///< as fast as replies allow, kCapacityWindow unanswered
};
constexpr std::size_t kCapacityWindow = 128;

/// Runs one phase and checks every reply.
OpenLoopRun warm_phase(Rig& rig, const WarmStream& stream, Mode mode, Result& result,
                       const std::string& label) {
    OpenLoopConfig config;
    config.base_id = rig.next_id;
    config.keep_replies = stream.keep;
    if (mode == Mode::kFixedRate) {
        // A server past its queue bound answers "overloaded", which fails
        // the check below.
        config.max_outstanding = SIZE_MAX;
    } else if (mode == Mode::kWindow) {
        config.window = kCapacityWindow;
    }
    OpenLoopRun run = run_open_loop(*rig.conns[0], stream.payloads, stream.due, config);
    rig.next_id += stream.payloads.size();
    // A probe may stop sending on purpose; what was sent must still be
    // answered ok, and every other phase must be served in full.
    const std::size_t expected = mode == Mode::kProbe ? run.sent : stream.payloads.size();
    result.count(expected, expected - run.ok, label + ": requests answered ok");
    result.check(run.unmatched == 0, label + ": every reply echoes its id");
    std::vector<std::string> kept_payloads;
    std::vector<std::string> kept_replies;
    for (std::size_t k = 0; k < stream.keep.size(); ++k) {
        if (run.records[stream.keep[k]].replied) {
            kept_payloads.push_back(stream.payloads[stream.keep[k]]);
            kept_replies.push_back(run.kept[k]);
        }
    }
    result.count(kept_payloads.size(), reference_mismatches(kept_payloads, kept_replies),
                 label + ": replies byte-identical to an in-process router");
    return run;
}

bool step_passes(const OpenLoopRun& run) {
    return !run.aborted && run.replied == run.records.size() && run.ok == run.replied &&
           quantile(run.latencies(), 0.99) <= kLatencyLimit;
}

/// Highest offered rate meeting the latency limit with no refusal and no
/// backlog: geometric steps from kSearchStart, up while steps pass, then
/// bisection. A failing step is retried once, so one scheduler hiccup does
/// not end the search. Returns the reply rate measured at the best passing
/// step (0 when none passed).
double sustainable_rate(Rig& rig, const std::vector<ModelKey>& keys, double budget_s,
                        std::uint64_t seed, Result& result) {
    constexpr double kStep = 0.3;
    constexpr double kSearchStart = 50000.0;
    const double until = now_s() + budget_s;
    double pass = 0.0;
    double pass_rate = 0.0;
    double fail = 0.0;
    double rate = kSearchStart;
    int step = 0;
    auto try_rate = [&](double r) {
        const WarmStream stream = warm_stream(
            keys, r, kStep, derive_seed(seed, "step" + std::to_string(step++)), rig);
        const OpenLoopRun run =
            warm_phase(rig, stream, Mode::kProbe, result, "search step");
        if (step_passes(run)) {
            pass_rate = std::max(pass_rate, run.reply_rate());
            return true;
        }
        return false;
    };
    while (now_s() + kStep < until) {
        const bool ok = try_rate(rate) || (now_s() + kStep < until && try_rate(rate));
        (ok ? pass : fail) = rate;
        if (fail == 0.0) {
            rate *= 1.2;
        } else if (pass == 0.0) {
            rate /= 1.2;
        } else if (fail / pass < 1.03) {
            break;
        } else {
            rate = std::sqrt(pass * fail);
        }
    }
    return pass_rate;
}

/// Length of the union of `intervals`, clipped to [lo, hi].
double covered_seconds(std::vector<std::pair<double, double>> intervals, double lo,
                       double hi) {
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (const auto& [a, b] : intervals) {
        const double start = std::max(a, reach);
        const double end = std::min(b, hi);
        if (end > start) {
            covered += end - start;
            reach = end;
        }
    }
    return covered;
}

/// Latency quantile (microseconds) of each window.
std::vector<double> per_window(const std::vector<OpenLoopRun>& windows, double q) {
    std::vector<double> out;
    for (const OpenLoopRun& window : windows) {
        out.push_back(quantile(window.latencies(), q) * 1e6);
    }
    return out;
}

/// The lowest window: host noise only ever adds latency, so the best
/// window is what repeats from run to run of one binary.
double best_of(const std::vector<OpenLoopRun>& windows, double q) {
    const std::vector<double> values = per_window(windows, q);
    return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double median_of(const std::vector<OpenLoopRun>& windows, double q) {
    return median(per_window(windows, q));
}

std::vector<double> all_lags_us(const std::vector<OpenLoopRun>& runs) {
    std::vector<double> lags;
    for (const OpenLoopRun& run : runs) {
        for (const double lag : run.lags()) {
            lags.push_back(lag * 1e6);
        }
    }
    return lags;
}

}  // namespace

void run_serve_warm(const Options& options, Spans& spans, Result& result) {
    const std::string self_test =
        loadgen_self_test(derive_seed(options.seed, "selftest"));
    result.check(self_test.empty(), "load generator self-test: " + self_test);

    std::vector<ModelKey> keys;
    {
        InputRng rng(derive_seed(options.seed, "warm-keys"));
        std::unordered_set<double> seen;
        for (std::size_t i = 0; i < kWarmKeys; ++i) {
            ModelKey key;
            key.plan = i % 2 == 1;
            key.k = 1 + static_cast<int>((i / 2) % 4);
            do {
                key.u = 25.0 + 10.0 * rng.uniform();
            } while (!seen.insert(key.u).second);
            keys.push_back(key);
        }
    }

    // Set-up: start a server, connect, and warm its model cache with every
    // key over the wire. Repeated so setup_s is a median.
    std::unique_ptr<Rig> rig;
    std::vector<double> setup_times;
    const int reps = options.trace ? 1 : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
        rig.reset();
        const ClockBracket clock;
        const double t0 = now_s();
        rig = start_rig(1, options.trace);
        std::vector<std::string> warm;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            warm.push_back(model_payload(keys[i], rig->next_id + i));
        }
        const std::size_t failed = pipelined(*rig->conns[0], warm, rig->next_id, 64);
        rig->next_id += warm.size();
        const double t1 = now_s();
        setup_times.push_back((t1 - t0) * clock.scale());
        spans.add("setup.warm_cache", t0, t1);
        result.count(warm.size(), failed, "cache warm-up requests answered ok");
    }
    serve::RequestRouter& router = rig->server->router();
    const std::uint64_t hits0 = router.model_cache().hits();
    const std::uint64_t misses0 = router.model_cache().misses();
    const double offset = hub_offset(*rig);

    // Fixed rates in short windows that alternate lo, hi (and, traced,
    // untraced/traced), so a burst of host noise lands on both sides alike.
    // CPU per reply and the capacity probe are CPU-bound and are taken to
    // the reference clock (bench.hpp). The fixed-rate latencies are set by
    // the arrival process, Nagle's algorithm and thread wake-ups, not by the
    // clock: they stay as measured and are printed, not reported as
    // metrics. A host phase of slow wake-ups doubled them for a minute at a
    // time, past any bound. The latency metrics are the capacity probe's.
    const double t_timed = now_s();
    const double window_s = options.seconds * 0.015;
    const int windows = options.trace ? 6 : 20;
    std::vector<OpenLoopRun> lo;
    std::vector<OpenLoopRun> hi;
    std::vector<OpenLoopRun> traced_lo;
    std::vector<OpenLoopRun> traced_hi;
    struct TracedWindow {
        WarmStream stream;
        std::size_t run = 0;  ///< index into traced_lo, or SIZE_MAX for hi
    };
    std::vector<TracedWindow> traced_order;  // traced windows in send order
    // Capacity: after each window pair, a fixed batch sent as fast as a
    // window of unanswered requests allows; the median batch counts (the
    // best batch of a throughput is an extreme value and swung more).
    const std::size_t batch = static_cast<std::size_t>(500.0 * options.seconds);
    std::vector<double> capacities;
    std::vector<double> loaded_p50_ms;  // per capacity batch
    std::vector<double> loaded_p99_ms;
    for (int w = 0; w < windows; ++w) {
        for (const double rate : {kRateLo, kRateHi}) {
            for (const bool traced : {false, true}) {
                if (traced && !options.trace) {
                    continue;
                }
                const std::string label = std::string(rate == kRateLo ? "lo" : "hi") +
                                          (traced ? "-traced-" : "-") + std::to_string(w);
                WarmStream stream = warm_stream(keys, rate, window_s,
                                                derive_seed(options.seed, label), *rig);
                set_spans(*rig, traced);
                const ClockBracket clock;
                OpenLoopRun run =
                    warm_phase(*rig, stream, Mode::kFixedRate, result, label);
                run.cpu_s *= clock.scale();  // latencies are left as measured
                set_spans(*rig, false);
                const bool is_lo = rate == kRateLo;
                std::vector<OpenLoopRun>& into =
                    is_lo ? (traced ? traced_lo : lo) : (traced ? traced_hi : hi);
                if (traced) {
                    const std::size_t slot = is_lo ? traced_lo.size() : SIZE_MAX;
                    traced_order.push_back(TracedWindow{std::move(stream), slot});
                }
                into.push_back(std::move(run));
            }
        }
        if (!options.trace) {
            const WarmStream stream = warm_stream(
                keys, 0.0, 0.0, derive_seed(options.seed, "capacity" + std::to_string(w)),
                *rig, batch);
            const ClockBracket clock;
            const OpenLoopRun run =
                warm_phase(*rig, stream, Mode::kWindow, result, "capacity");
            const double scale = clock.scale();
            capacities.push_back(run.throughput() / scale);
            // Each request from its own send: with the window full, a
            // request waits for one in flight to finish before it is sent.
            std::vector<double> loaded_ms;
            for (const OpenLoopRecord& rec : run.records) {
                if (rec.replied) {
                    loaded_ms.push_back((rec.done - rec.send_t0) * 1e3 * scale);
                }
            }
            loaded_p50_ms.push_back(quantile(loaded_ms, 0.5));
            loaded_p99_ms.push_back(quantile(loaded_ms, 0.99));
        }
    }
    const double lo_p50 = best_of(lo, 0.5);
    const double hi_p90 = best_of(hi, 0.9);
    std::vector<OpenLoopRun> fixed = lo;
    fixed.insert(fixed.end(), hi.begin(), hi.end());
    // CPU per reply of the best window at the hi rate.
    auto best_cpu_us = [](const std::vector<OpenLoopRun>& windows) {
        double low = 0.0;
        for (const OpenLoopRun& w : windows) {
            if (w.replied > 0) {
                const double us = w.cpu_s * 1e6 / static_cast<double>(w.replied);
                low = low == 0.0 ? us : std::min(low, us);
            }
        }
        return low;
    };
    const double cpu_us = best_cpu_us(hi);

    if (!options.trace) {
        // The sustainable-rate search gets the rest of the run.
        const double rss_mb = current_rss_mb();
        const double capacity = median(capacities);
        const double sustainable =
            sustainable_rate(*rig, keys, t_timed + options.seconds - now_s(),
                             derive_seed(options.seed, "search"), result);
        result.note("lo_p50_us = " + format_number(lo_p50) + " us  (best of " +
                    std::to_string(windows) + " windows of " + format_number(window_s) +
                    " s at " + format_number(kRateLo) + "/s; median window " +
                    format_number(median_of(lo, 0.5)) + " us), lo_p99_us = " +
                    format_number(median_of(lo, 0.99)) + " us (median window)");
        result.note("hi_p90_us = " + format_number(hi_p90) + " us  (best window at " +
                    format_number(kRateHi) + "/s; median window " +
                    format_number(median_of(hi, 0.9)) + " us), hi_p50_us = " +
                    format_number(median_of(hi, 0.5)) + " us, hi_p99_us = " +
                    format_number(median_of(hi, 0.99)) + " us (median windows)");
        result.note("capacity_qps = " + format_number(capacity) + " 1/s  (median of " +
                    std::to_string(windows) + " x " + std::to_string(batch) +
                    " requests, " + std::to_string(kCapacityWindow) + " in flight)");
        result.note("loaded_p50_ms = " + format_number(median(loaded_p50_ms)) +
                    " ms, loaded_p99_ms = " + format_number(median(loaded_p99_ms)) +
                    " ms  (" + std::to_string(kCapacityWindow) +
                    " in flight, from each request's send; median batch)");
        result.note("sustainable_qps = " + format_number(sustainable) +
                    " 1/s  (highest rate with p99 <= 1 ms and no backlog; 0 = none)");
        double cpu_s = 0.0;
        for (const OpenLoopRun& run : fixed) {
            cpu_s += run.cpu_s;
        }
        result.note("cpu_s = " + format_number(cpu_s) + " s  (fixed-rate windows)");
        result.note("gen_lag_p99_us = " +
                    format_number(quantile(all_lags_us(fixed), 0.99)) + " us");
        result.metric("setup_s", median(setup_times), "s");
        result.metric("throughput_per_s", capacity, "1/s");
        result.metric("latency_p50_ms", median(loaded_p50_ms), "ms");
        result.metric("latency_tail_ms", median(loaded_p99_ms), "ms");
        result.metric("cpu_us_per_item", cpu_us, "us");
        result.metric("rss_mb", rss_mb, "MB");
        result.check(rig->server->overloaded() == 0, "no overloaded replies");
        return;
    }

    cache_metrics(router, hits0, misses0, result);
    result.metric("serve.overloaded", static_cast<double>(rig->server->overloaded()),
                  "count");
    rig->server->stop();  // quiesce the workers before reading their spans
    const std::vector<ServerStages> stages = collect_stages(rig->span_sink);
    stage_metrics(stages, result);

    // Ladder of the traced lo windows. The hub numbers the requests it saw
    // (traced windows only) in decode order, which on one connection is
    // send order.
    std::vector<double> unattributed;
    std::vector<double> explained;
    std::vector<double> client_send;
    std::vector<double> client_recv;
    std::size_t traced_requests = 0;
    std::size_t joined = 0;
    std::size_t hub_index = 0;
    for (const TracedWindow& window : traced_order) {
        const std::size_t n = window.stream.payloads.size();
        if (window.run == SIZE_MAX) {
            hub_index += n;
            continue;
        }
        const OpenLoopRun& run = traced_lo[window.run];
        traced_requests += n;
        for (std::size_t i = 0; i < n; ++i, ++hub_index) {
            const OpenLoopRecord& rec = run.records[i];
            if (!rec.replied || hub_index >= stages.size() ||
                stages[hub_index].decode_bytes != window.stream.payloads[i].size()) {
                continue;
            }
            ++joined;
            const ServerStages& s = stages[hub_index];
            using serve::SpanStage;
            // The stages on one time axis: generator lag, client send,
            // every server stage, client receive. Time they cover in
            // [due, done] is explained; the rest is unattributed. (The
            // client's send call can still be returning while the server
            // decodes, so durations are not simply summed.)
            std::vector<std::pair<double, double>> covered = {{rec.due, rec.send_t0},
                                                              {rec.send_t0, rec.send_t1},
                                                              {rec.recv_t0, rec.done}};
            for (std::size_t st = 1; st < serve::kSpanStageCount; ++st) {
                if (s.has(static_cast<SpanStage>(st))) {
                    covered.emplace_back(s.t0[st] + offset, s.t1[st] + offset);
                }
            }
            const double explained_s = covered_seconds(covered, rec.due, rec.done);
            client_send.push_back((rec.send_t1 - rec.send_t0) * 1e6);
            client_recv.push_back((rec.done - rec.recv_t0) * 1e6);
            unattributed.push_back((rec.latency() - explained_s) * 1e6);
            explained.push_back(explained_s / rec.latency());
            const std::uint64_t id = hub_index + 1;
            const std::uint64_t root = spans.add("client.request", rec.due, rec.done,
                                                 Spans::kNone, id);
            spans.add("client.send", rec.send_t0, rec.send_t1, root, id);
            for (std::size_t st = 1; st < serve::kSpanStageCount; ++st) {
                const auto stage = static_cast<SpanStage>(st);
                if (s.has(stage)) {
                    spans.add(std::string("server.") + serve::span_stage_name(stage),
                              s.t0[st] + offset, s.t1[st] + offset, root, id);
                }
            }
            spans.add("client.recv", rec.recv_t0, rec.done, root, id);
        }
    }
    result.count(traced_requests, traced_requests - joined,
                 "traced requests joined to their server spans");
    result.metric("serve.client_send_us.p50", median(client_send), "us");
    result.metric("serve.client_recv_us.p50", median(client_recv), "us");
    result.metric("serve.unattributed_us.p50", median(unattributed), "us");
    result.metric("serve.ladder_explained_ratio", median(explained), "ratio");
    result.note("ladder: the stages explain " + format_number(median(explained) * 100.0) +
                "% of the median traced lo request; unattributed p50 " +
                format_number(median(unattributed)) + " us");

    // Router layer: the traced lo streams replayed in-process.
    std::vector<double> route_us;
    std::vector<double> parse_us;
    std::vector<double> serialize_us;
    const auto epoch = std::chrono::steady_clock::now();
    std::size_t replay_failed = 0;
    std::size_t replayed = 0;
    for (const TracedWindow& window : traced_order) {
        if (window.run == SIZE_MAX) {
            continue;
        }
        for (const std::string& payload : window.stream.payloads) {
            serve::RequestSpans rs;
            rs.set_epoch(epoch);
            const double t0 = now_s();
            const serve::RouteResult routed = router.route(payload, &rs);
            const double t1 = now_s();
            replay_failed += routed.ok ? 0 : 1;
            ++replayed;
            route_us.push_back((t1 - t0) * 1e6);
            parse_us.push_back(rs.duration(serve::SpanStage::kParse) * 1e6);
            serialize_us.push_back(rs.duration(serve::SpanStage::kSerialize) * 1e6);
            spans.add("router.route", t0, t1, Spans::kNone, replayed);
        }
    }
    result.count(replayed, replay_failed, "in-process replay answers ok");
    result.metric("router.route_us.p50", median(route_us), "us");
    result.metric("router.parse_us.p50", median(parse_us), "us");
    result.metric("router.serialize_us.p50", median(serialize_us), "us");

    model_metrics(model_sample(keys, 8), spans, result);

    std::vector<OpenLoopRun> traced_fixed = traced_lo;
    traced_fixed.insert(traced_fixed.end(), traced_hi.begin(), traced_hi.end());
    std::vector<double> lags = all_lags_us(fixed);
    const std::vector<double> traced_lags = all_lags_us(traced_fixed);
    lags.insert(lags.end(), traced_lags.begin(), traced_lags.end());
    result.metric("gen.lag_us.p99", quantile(lags, 0.99), "us");
    result.metric("trace.overhead.latency_p50_ms",
                  (best_of(traced_lo, 0.5) - lo_p50) * 1e-3, "ms");
    result.metric("trace.overhead.latency_tail_ms",
                  (best_of(traced_hi, 0.9) - hi_p90) * 1e-3, "ms");
    result.metric("trace.overhead.cpu_us_per_item", best_cpu_us(traced_hi) - cpu_us,
                  "us");
}

// ---------------------------------------------------------------- serve_cold

void run_serve_cold(const Options& options, Spans& spans, Result& result) {
    // Set-up: start a server, open three connections, and push one EVAL or
    // PLAN of each K through (warm-up keys the stream never draws); then,
    // untimed, one REFINE. The first REFINE of a fresh server took either
    // ~35 or ~60 ms, which made a median over set-ups that include it flip
    // between the two from run to run.
    std::unique_ptr<Rig> rig;
    std::vector<double> setup_times;
    const int reps = options.trace ? 1 : 21;  // set-up takes ~5 ms here
    for (int rep = 0; rep < reps; ++rep) {
        rig.reset();
        const ClockBracket clock;
        const double t0 = now_s();
        rig = start_rig(3, options.trace);
        std::vector<std::string> warm;
        for (int k = 1; k <= 4; ++k) {
            const ModelKey key{k % 2 == 0, k, 20.0 + k};
            warm.push_back(model_payload(key, rig->next_id + warm.size()));
        }
        const std::size_t failed = pipelined(*rig->conns[0], warm, rig->next_id, 4);
        rig->next_id += warm.size();
        const double t1 = now_s();
        setup_times.push_back((t1 - t0) * clock.scale());
        spans.add("setup.server", t0, t1);
        result.count(warm.size(), failed, "warm-up requests answered ok");
    }
    result.count(1,
                 pipelined(*rig->conns[2], {refine_payload(rig->next_id, 0)},
                           rig->next_id, 1),
                 "warm-up REFINE answered ok");
    ++rig->next_id;
    serve::RequestRouter& router = rig->server->router();
    const std::uint64_t hits0 = router.model_cache().hits();
    const std::uint64_t misses0 = router.model_cache().misses();

    // Two connections send cold EVAL/PLAN keys back to back; the third sends
    // REFINEs with fresh seeds. About one model request in 16 and every
    // REFINE keep their payload and reply for the checks.
    ModelKeySource fresh(derive_seed(options.seed, "cold-keys"));
    std::vector<ModelKey> drawn;
    InputRng keep_rng(derive_seed(options.seed, "keep"));
    const std::uint64_t refine_seed0 = derive_seed(options.seed, "refine") >> 16U;
    auto model_source = [&](std::uint64_t first_id) {
        ClosedLoopSource source;
        source.first_id = first_id;
        source.next = [&fresh, &drawn, &keep_rng](std::uint64_t id, bool& keep) {
            drawn.push_back(fresh.next());
            keep = keep_rng.below(16) == 0;
            return model_payload(drawn.back(), id);
        };
        return source;
    };
    auto refine_source = [refine_seed0](std::uint64_t first_id) {
        ClosedLoopSource source;
        source.first_id = first_id;
        source.next = [refine_seed0](std::uint64_t id, bool& keep) {
            keep = true;
            return refine_payload(id, refine_seed0 + id);
        };
        return source;
    };

    // A phase runs as kColdWindows consecutive windows. The work is
    // CPU-bound, so each window's times are taken to the reference clock
    // with its own probe readings (bench.hpp). Throughput and CPU per reply
    // pool the whole phase, and the p50 is the median window's: the best of
    // ten windows, as in serve_warm, spread 15% over ten seeds against ~6%
    // pooled (every REFINE has a fresh seed, and its cost moves with it).
    struct Window {
        std::vector<double> model_ms;
        double seconds = 0.0;  ///< from the window's start to its last reply
        double cpu_s = 0.0;
    };
    struct Phase {
        ClosedLoopSource model_a;
        ClosedLoopSource model_b;
        ClosedLoopSource refine;
        std::vector<Window> windows;
        std::vector<double> model_ms;  ///< whole phase
        std::vector<double> refine_ms;
        double rss_mb = 0.0;  ///< resident set when the phase ended

        /// Cold EVAL/PLAN replies per second over the whole phase.
        [[nodiscard]] double qps() const {
            double seconds = 0.0;
            for (const Window& w : windows) {
                seconds += w.seconds;
            }
            return seconds > 0.0 ? static_cast<double>(model_ms.size()) / seconds : 0.0;
        }
        /// Cold EVAL/PLAN latency: the median window's median, and the best
        /// window's p99 (a window's p99 rests on ~12 replies, and one slow
        /// spell of the host lifts it).
        [[nodiscard]] double p50_ms() const { return median(window_ms(0.5)); }
        [[nodiscard]] double p99_ms() const {
            const std::vector<double> p99 = window_ms(0.99);
            return p99.empty() ? 0.0 : *std::min_element(p99.begin(), p99.end());
        }
        [[nodiscard]] std::vector<double> window_ms(double q) const {
            std::vector<double> per_window;
            for (const Window& w : windows) {
                if (!w.model_ms.empty()) {
                    per_window.push_back(quantile(w.model_ms, q));
                }
            }
            return per_window;
        }
        /// Process CPU per reply over the whole phase, in microseconds.
        [[nodiscard]] double cpu_us() const {
            double cpu_s = 0.0;
            for (const Window& w : windows) {
                cpu_s += w.cpu_s;
            }
            const auto replies = static_cast<double>(model_ms.size() + refine_ms.size());
            return replies > 0.0 ? cpu_s * 1e6 / replies : 0.0;
        }
    };
    auto run_phase = [&](double seconds, bool traced, std::uint64_t base) {
        Phase phase;
        phase.model_a = model_source(base);
        phase.model_b = model_source(base + 1000000);
        phase.refine = refine_source(base + 2000000);
        ClosedLoopSource* sources[] = {&phase.model_a, &phase.model_b, &phase.refine};
        set_spans(*rig, traced);
        std::size_t unmatched = 0;
        for (std::size_t w = 0; w < kColdWindows; ++w) {
            std::size_t from[3] = {};
            for (std::size_t c = 0; c < 3; ++c) {
                from[c] = sources[c]->records.size();
            }
            Window window;
            const ClockBracket clock;
            const double cpu0 = process_cpu_s();
            const double t0 = now_s();
            unmatched += run_closed_loop(
                {rig->conns[0].get(), rig->conns[1].get(), rig->conns[2].get()},
                {sources[0], sources[1], sources[2]}, seconds / kColdWindows, 60.0);
            const double scale = clock.scale();
            window.cpu_s = (process_cpu_s() - cpu0) * scale;
            for (std::size_t c = 0; c < 3; ++c) {
                const bool is_refine = c == 2;
                const auto& records = sources[c]->records;
                for (std::size_t r = from[c]; r < records.size(); ++r) {
                    const ClosedLoopRecord& rec = records[r];
                    if (!rec.replied) {
                        continue;
                    }
                    const double ms = (rec.done - rec.sent) * 1e3 * scale;
                    (is_refine ? phase.refine_ms : phase.model_ms).push_back(ms);
                    if (!is_refine) {
                        window.model_ms.push_back(ms);
                    }
                    window.seconds = std::max(window.seconds, rec.done - t0);
                    if (traced) {
                        spans.add(is_refine ? "client.refine" : "client.cold_query",
                                  rec.sent, rec.done, Spans::kNone, rec.id);
                    }
                }
            }
            window.seconds *= scale;
            phase.windows.push_back(std::move(window));
        }
        phase.rss_mb = current_rss_mb();
        set_spans(*rig, false);
        result.check(unmatched == 0, "every reply echoes its request id");
        for (const ClosedLoopSource* source : sources) {
            std::size_t bad = 0;
            for (const ClosedLoopRecord& rec : source->records) {
                bad += rec.replied && rec.ok ? 0 : 1;
            }
            result.count(source->records.size(), bad, "cold requests answered ok");
        }
        return phase;
    };

    std::vector<Phase> phases;
    const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
    phases.push_back(run_phase(untraced_s, false, 1000000000));
    if (options.trace) {
        phases.push_back(run_phase(options.seconds / 2, true, 2000000000));
    }

    // Checks: kept model replies byte for byte against a fresh router; two
    // REFINEs per phase against the engine run in-process on their config.
    std::vector<double> refine_ms_inproc;
    std::uint64_t sim_events = 0;
    double sim_cpu_s = 0.0;
    for (const Phase& phase : phases) {
        std::vector<std::string> payloads;
        std::vector<std::string> replies;
        for (const ClosedLoopSource* source : {&phase.model_a, &phase.model_b}) {
            for (const ClosedLoopRecord& rec : source->records) {
                if (rec.keep && rec.replied) {
                    payloads.push_back(rec.payload);
                    replies.push_back(rec.reply);
                }
            }
        }
        result.count(payloads.size(), reference_mismatches(payloads, replies),
                     "cold replies byte-identical to an in-process router");
        std::vector<const ClosedLoopRecord*> refines;
        for (const ClosedLoopRecord& rec : phase.refine.records) {
            if (rec.replied && rec.ok) {
                refines.push_back(&rec);
            }
        }
        result.check(!refines.empty(), "REFINE requests completed");
        // The first two REFINEs: their seeds, and so the exact event counts,
        // depend only on the workload seed.
        for (std::size_t n = 0; n < 2 && n < refines.size(); ++n) {
            const ClosedLoopRecord& rec = *refines[n];
            serve::Request request;
            const bool parsed = parse_payload(rec.payload, request);
            const double cpu0 = process_cpu_s();
            const double t0 = now_s();
            const catalog::CatalogReport report = refine_in_process(request.refine);
            const double t1 = now_s();
            sim_cpu_s += process_cpu_s() - cpu0;
            spans.add("catalog.run_catalog", t0, t1, Spans::kNone, rec.id);
            refine_ms_inproc.push_back((t1 - t0) * 1e3);
            for (const catalog::SwarmOutcome& swarm : report.swarms) {
                sim_events += swarm.result.fingerprint_events;
            }
            serve::JsonValue reply;
            const serve::JsonValue* res = nullptr;
            if (parsed && serve::parse_json(rec.reply, reply, nullptr)) {
                res = reply.find("result");
            }
            const serve::JsonValue* fp = res ? res->find("fingerprint") : nullptr;
            const serve::JsonValue* arrivals = res ? res->find("arrivals") : nullptr;
            result.check(fp != nullptr && fp->is_string() && arrivals != nullptr &&
                             fp->as_string() ==
                                 swarmavail::sim::fingerprint_hex(report.fingerprint) &&
                             arrivals->as_number() ==
                                 static_cast<double>(report.arrivals),
                         "REFINE fingerprint equals the in-process run_catalog's");
        }
    }

    const Phase& base = phases.front();
    const double cold_qps = base.qps();
    const double cpu_us = base.cpu_us();
    if (!options.trace) {
        double cpu_s = 0.0;
        for (const auto& w : base.windows) {
            cpu_s += w.cpu_s;
        }
        result.note("cpu_s = " + format_number(cpu_s) + " s");
        result.note("cold_qps = " + format_number(cold_qps) + " 1/s  (" +
                    std::to_string(base.model_ms.size()) + " cold EVAL/PLAN, " +
                    std::to_string(base.refine_ms.size()) + " REFINE)");
        result.note("cold_p50_ms = " + format_number(base.p50_ms()) +
                    " ms, cold_p99_ms = " + format_number(base.p99_ms()) +
                    " ms  (median and best of " + std::to_string(kColdWindows) +
                    " windows; whole phase: p50 " + format_number(median(base.model_ms)) +
                    " ms, p99 " + format_number(quantile(base.model_ms, 0.99)) +
                    " ms), refine_p50_ms = " + format_number(median(base.refine_ms)) +
                    " ms");
        result.metric("setup_s", median(setup_times), "s");
        result.metric("throughput_per_s", cold_qps, "1/s");
        result.metric("latency_p50_ms", base.p50_ms(), "ms");
        result.metric("latency_tail_ms", base.p99_ms(), "ms");
        result.metric("cpu_us_per_item", cpu_us, "us");
        result.metric("rss_mb", base.rss_mb, "MB");
        result.check(rig->server->overloaded() == 0, "no overloaded replies");
        return;
    }

    const Phase& traced = phases.back();
    cache_metrics(router, hits0, misses0, result);
    result.metric("serve.overloaded", static_cast<double>(rig->server->overloaded()),
                  "count");
    rig->server->stop();  // quiesce the workers before reading their spans
    stage_metrics(collect_stages(rig->span_sink), result);
    std::vector<ModelKey> sample(drawn.begin(),
                                 drawn.begin() + static_cast<long>(std::min<std::size_t>(
                                                     drawn.size(), 256)));
    model_metrics(model_sample(sample, 6), spans, result);
    result.metric("refine.catalog_ms.p50", median(refine_ms_inproc), "ms");
    result.metric("sim.events", static_cast<double>(sim_events), "count");
    const auto events = static_cast<double>(sim_events);
    result.metric("sim.ns_per_event", events > 0 ? sim_cpu_s * 1e9 / events : 0.0, "ns");
    result.metric("trace.overhead.latency_p50_ms",
                  traced.p50_ms() - base.p50_ms(), "ms");
    result.metric("trace.overhead.latency_tail_ms",
                  traced.p99_ms() - base.p99_ms(), "ms");
    result.metric("trace.overhead.cpu_us_per_item", traced.cpu_us() - cpu_us, "us");
}

}  // namespace perfbench
