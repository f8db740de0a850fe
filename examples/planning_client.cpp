// Client for the planning daemon: one-shot queries, scripted sessions,
// a loopback benchmark mode, and an offline parser harness.
//
// Usage:
//   planning_client (--port P | --port-file FILE) --request JSON
//   planning_client (--port P | --port-file FILE) --stats
//   planning_client (--port P | --port-file FILE) --stats-raw
//   planning_client (--port P | --port-file FILE) --bench N --request JSON
//   planning_client (--port P | --port-file FILE)            # stdin session
//   planning_client --parse-only FILE
//   planning_client --check-spans FILE
//
// One-shot: sends the JSON request as one frame, prints the response
// payload, exits 0 on an ok:true answer and 1 on a structured error.
// --stats sends STATS and renders the exposition as readable tables:
// per-verb traffic and latency quantiles, per-stage latency quantiles
// (decode/parse/cache/queue-wait/compute/serialize/write, fed by request
// spans), cache hit/miss/evict/coalesce counters, and span bookkeeping.
// Quantiles come from the cumulative histogram buckets, so p50/p99 are
// upper bin edges, not exact order statistics. --stats-raw prints the raw
// Prometheus text instead (what scripts and scrapers want). --bench sends
// the request N times in lockstep over one connection and reports wall
// time and queries/s (end-to-end loopback numbers; the in-process router
// throughput lives in bench_planning_qps). With no mode flag, each stdin
// line is sent as one request and each response printed on its own line —
// the scripted-session mode CI smoke tests use.
//
// --parse-only runs the server's exact decode pipeline (frame decoder,
// UTF-8 check, strict JSON, request validation) over raw bytes from FILE
// without a server, printing each diagnostic; nonzero exit on any
// malformed input. The protocol-hardening fixtures drive this mode, also
// under AddressSanitizer in CI.
//
// --check-spans parses a span JSONL file (a --span-out drain or --slow-ms
// slow-query log) with the library's own reader and summarizes it:
// record/request counts, per-stage totals, and the slowest request's full
// stage breakdown. Nonzero exit when the file is empty or malformed — the
// CI smoke uses it to prove the slow-query log round-trips.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/span.hpp"
#include "stats_scrape.hpp"
#include "util/json.hpp"

namespace {

using namespace stats_scrape;

struct Options {
    int port = -1;
    std::string port_file;
    std::string request;
    std::string parse_only;
    std::string check_spans;
    bool stats = false;
    bool stats_raw = false;
    long bench = 0;
};

[[noreturn]] void usage_error(std::string_view message) {
    std::cerr << "planning_client: " << message << "\n"
              << "usage: planning_client (--port P | --port-file FILE) "
                 "[--request JSON | --stats | --stats-raw | --bench N "
                 "--request JSON]\n"
              << "       planning_client --parse-only FILE\n"
              << "       planning_client --check-spans FILE\n";
    std::exit(2);
}

const char* next_value(int argc, char** argv, int& i, std::string_view flag) {
    if (i + 1 >= argc) {
        usage_error(std::string{flag} + " needs a value");
    }
    return argv[++i];
}

Options parse_options(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--port") {
            opt.port = std::stoi(next_value(argc, argv, i, arg));
        } else if (arg == "--port-file") {
            opt.port_file = next_value(argc, argv, i, arg);
        } else if (arg == "--request") {
            opt.request = next_value(argc, argv, i, arg);
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg == "--stats-raw") {
            opt.stats_raw = true;
        } else if (arg == "--check-spans") {
            opt.check_spans = next_value(argc, argv, i, arg);
        } else if (arg == "--bench") {
            opt.bench = std::stol(next_value(argc, argv, i, arg));
            if (opt.bench < 1) {
                usage_error("--bench must be >= 1");
            }
        } else if (arg == "--parse-only") {
            opt.parse_only = next_value(argc, argv, i, arg);
        } else if (arg == "--help" || arg == "-h") {
            usage_error("usage");
        } else {
            usage_error("unknown flag " + std::string{arg});
        }
    }
    return opt;
}

/// The server's decode pipeline, offline: frames, UTF-8, JSON, request
/// schema. Returns the number of malformed inputs found.
int parse_only(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "planning_client: cannot read " << path << "\n";
        return 1;
    }
    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string bytes = raw.str();

    FrameDecoder decoder;
    decoder.feed(bytes);
    int failures = 0;
    std::size_t frames = 0;
    std::string payload;
    std::string error;
    while (true) {
        const FrameDecoder::Status status = decoder.next(payload, error);
        if (status == FrameDecoder::Status::kNeedMore) {
            break;
        }
        if (status == FrameDecoder::Status::kError) {
            std::cerr << "frame error: " << error << "\n";
            return 1;  // framing is unrecoverable once poisoned
        }
        ++frames;
        if (!swarmavail::validate_utf8(payload)) {
            std::cerr << "frame " << frames << ": payload is not valid UTF-8\n";
            ++failures;
            continue;
        }
        swarmavail::JsonValue value;
        std::string json_error;
        if (!swarmavail::parse_json(payload, value, &json_error)) {
            std::cerr << "frame " << frames << ": " << json_error << "\n";
            ++failures;
            continue;
        }
        swarmavail::serve::Request request;
        swarmavail::serve::ServeError serve_error;
        if (!swarmavail::serve::parse_request(value, swarmavail::serve::RequestPolicy{},
                                              request, serve_error)) {
            std::cerr << "frame " << frames << ": [" << serve_error.code << "] "
                      << serve_error.message << "\n";
            ++failures;
            continue;
        }
        std::cout << "frame " << frames << ": ok ("
                  << swarmavail::serve::verb_name(request.verb) << ")\n";
    }
    if (decoder.pending_bytes() > 0) {
        std::cerr << "trailing bytes form a truncated frame ("
                  << decoder.pending_bytes() << " bytes)\n";
        ++failures;
    }
    if (frames == 0 && failures == 0) {
        std::cerr << "no frames in " << path << "\n";
        return 1;
    }
    return failures == 0 ? 0 : 1;
}

/// True when the response says ok:true (cheap scan; responses are ours).
bool response_ok(const std::string& response) {
    return response.find("\"ok\":true") != std::string::npos;
}

std::uint64_t counter_or_zero(const std::string& text, const std::string& name) {
    return static_cast<std::uint64_t>(sample_or_zero(text, name));
}

void print_histogram_row(const std::string& label, const Histogram& histogram) {
    const double mean = histogram.count > 0
                            ? histogram.sum / static_cast<double>(histogram.count)
                            : 0.0;
    std::printf("  %-10s %10llu %10s %10s %10s\n", label.c_str(),
                static_cast<unsigned long long>(histogram.count),
                format_seconds(mean).c_str(),
                format_seconds(histogram_quantile(histogram, 0.50)).c_str(),
                format_seconds(histogram_quantile(histogram, 0.99)).c_str());
}

int run_stats_table(int fd, FrameDecoder& decoder) {
    std::string text;
    if (!fetch_stats(fd, decoder, text, "planning_client")) {
        return 1;
    }
    static constexpr const char* kVerbs[] = {"ping", "eval", "plan", "refine",
                                             "stats"};
    static constexpr const char* kStages[] = {"decode",     "parse",   "cache",
                                              "queue_wait", "compute", "serialize",
                                              "write"};

    std::printf("requests by verb\n");
    std::printf("  %-10s %10s %10s %10s %10s\n", "verb", "count", "mean", "p50",
                "p99");
    for (const char* verb : kVerbs) {
        Histogram histogram;
        if (!read_histogram(text,
                            std::string("swarmavail_server_latency_seconds_") + verb,
                            histogram)) {
            continue;
        }
        print_histogram_row(verb, histogram);
    }
    std::printf("  errors %llu  overloaded %llu  bad frames %llu\n",
                static_cast<unsigned long long>(
                    counter_or_zero(text, "swarmavail_server_errors_total")),
                static_cast<unsigned long long>(
                    counter_or_zero(text, "swarmavail_server_overloaded_total")),
                static_cast<unsigned long long>(
                    counter_or_zero(text, "swarmavail_server_bad_frames_total")));

    std::printf("\nstage latency (request spans)\n");
    std::printf("  %-10s %10s %10s %10s %10s\n", "stage", "count", "mean", "p50",
                "p99");
    for (const char* stage : kStages) {
        Histogram histogram;
        if (!read_histogram(text,
                            std::string("swarmavail_server_stage_seconds_") + stage,
                            histogram)) {
            continue;
        }
        print_histogram_row(stage, histogram);
    }

    std::printf("\ncaches\n");
    std::printf("  %-10s %10s %10s %10s %10s %10s %8s\n", "cache", "hits",
                "misses", "evicted", "coalesced", "entries", "hit%");
    for (const char* cache : {"model", "refine"}) {
        const std::string base =
            std::string("swarmavail_server_") + cache + "_cache_";
        const std::uint64_t hits = counter_or_zero(text, base + "hits_total");
        const std::uint64_t misses = counter_or_zero(text, base + "misses_total");
        const double total = static_cast<double>(hits + misses);
        std::printf("  %-10s %10llu %10llu %10llu %10llu %10llu %7.1f%%\n", cache,
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses),
                    static_cast<unsigned long long>(
                        counter_or_zero(text, base + "evictions_total")),
                    static_cast<unsigned long long>(
                        counter_or_zero(text, base + "coalesced_total")),
                    static_cast<unsigned long long>(
                        counter_or_zero(text, base + "entries")),
                    total > 0.0 ? 100.0 * static_cast<double>(hits) / total : 0.0);
    }

    double model_depth = 0.0;
    double sim_depth = 0.0;
    find_sample(text, "swarmavail_server_queue_depth{lane=\"model\"}", model_depth);
    find_sample(text, "swarmavail_server_queue_depth{lane=\"sim\"}", sim_depth);
    std::printf("\nqueues  model %.0f  sim %.0f\n", model_depth, sim_depth);
    std::printf(
        "spans   records %llu  dropped %llu  slow %llu\n",
        static_cast<unsigned long long>(
            counter_or_zero(text, "swarmavail_server_span_records_total")),
        static_cast<unsigned long long>(counter_or_zero(
            text, "swarmavail_server_span_records_dropped_total")),
        static_cast<unsigned long long>(
            counter_or_zero(text, "swarmavail_server_slow_queries_total")));
    return 0;
}

int run_stats_raw(int fd, FrameDecoder& decoder) {
    std::string text;
    if (!fetch_stats(fd, decoder, text, "planning_client")) {
        return 1;
    }
    std::cout << text;
    return 0;
}

/// Parses a span JSONL file and summarizes it; nonzero on empty/malformed.
int check_spans(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::cerr << "planning_client: cannot read " << path << "\n";
        return 1;
    }
    std::vector<swarmavail::serve::SpanRecord> records;
    try {
        records = swarmavail::serve::read_spans_jsonl(in);
    } catch (const std::exception& e) {
        std::cerr << "planning_client: " << path << ": " << e.what() << "\n";
        return 1;
    }
    if (records.empty()) {
        std::cerr << "planning_client: no span records in " << path << "\n";
        return 1;
    }

    std::uint64_t stage_counts[swarmavail::serve::kSpanStageCount] = {};
    // Per-request [t_min, t_max] over its records (request 0 = accept
    // events, which belong to a connection rather than a request).
    std::map<std::uint64_t, std::pair<double, double>> requests;
    for (const auto& record : records) {
        if (record.stage < swarmavail::serve::kSpanStageCount) {
            stage_counts[record.stage] += 1;
        }
        if (record.request == 0) {
            continue;
        }
        auto [it, inserted] = requests.emplace(
            record.request, std::make_pair(record.t_start, record.t_end));
        if (!inserted) {
            it->second.first = std::min(it->second.first, record.t_start);
            it->second.second = std::max(it->second.second, record.t_end);
        }
    }

    std::cout << "records " << records.size() << "\n"
              << "requests " << requests.size() << "\n";
    for (std::size_t s = 0; s < swarmavail::serve::kSpanStageCount; ++s) {
        if (stage_counts[s] == 0) {
            continue;
        }
        std::cout << "stage " << swarmavail::serve::span_stage_name(
                         static_cast<swarmavail::serve::SpanStage>(s))
                  << " " << stage_counts[s] << "\n";
    }

    if (!requests.empty()) {
        const auto slowest = std::max_element(
            requests.begin(), requests.end(), [](const auto& a, const auto& b) {
                return a.second.second - a.second.first <
                       b.second.second - b.second.first;
            });
        std::cout << "slowest_request " << slowest->first << " "
                  << (slowest->second.second - slowest->second.first) << "s\n";
        for (const auto& record : records) {
            if (record.request != slowest->first) {
                continue;
            }
            std::cout << "  " << swarmavail::serve::span_stage_name(
                             static_cast<swarmavail::serve::SpanStage>(record.stage))
                      << " t0 " << record.t_start << " t1 " << record.t_end
                      << " bytes " << record.bytes << " cache "
                      << swarmavail::serve::span_cache_outcome_name(
                             static_cast<swarmavail::serve::SpanCacheOutcome>(
                                 record.cache))
                      << "\n";
        }
    }
    return 0;
}

int run_bench(int fd, FrameDecoder& decoder, const Options& opt) {
    std::string response;
    // Warm the caches (and fault in the code path) outside the timed loop.
    if (!round_trip(fd, decoder, opt.request, response, "planning_client")) {
        return 1;
    }
    const auto started = std::chrono::steady_clock::now();
    for (long i = 0; i < opt.bench; ++i) {
        if (!round_trip(fd, decoder, opt.request, response, "planning_client")) {
            return 1;
        }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    std::cout << "requests " << opt.bench << "\n"
              << "seconds " << seconds << "\n"
              << "queries_per_s " << (seconds > 0.0 ? opt.bench / seconds : 0.0)
              << "\n"
              << "last_response " << response << "\n";
    return 0;
}

int run_session(int fd, FrameDecoder& decoder) {
    std::string line;
    std::string response;
    int failures = 0;
    while (std::getline(std::cin, line)) {
        if (line.empty()) {
            continue;
        }
        if (!round_trip(fd, decoder, line, response, "planning_client")) {
            return 1;
        }
        std::cout << response << "\n";
        if (!response_ok(response)) {
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);

    if (!opt.parse_only.empty()) {
        return parse_only(opt.parse_only);
    }
    if (!opt.check_spans.empty()) {
        return check_spans(opt.check_spans);
    }

    int port = opt.port;
    if (port < 0 && !opt.port_file.empty()) {
        std::ifstream in(opt.port_file);
        if (!(in >> port)) {
            std::cerr << "planning_client: cannot read a port from "
                      << opt.port_file << "\n";
            return 1;
        }
    }
    if (port <= 0 || port > 65535) {
        usage_error("need --port or --port-file naming a bound port");
    }

    const int fd = connect_to(port);
    if (fd < 0) {
        std::cerr << "planning_client: cannot connect to 127.0.0.1:" << port << "\n";
        return 1;
    }
    FrameDecoder decoder;

    int rc = 0;
    if (opt.stats) {
        rc = run_stats_table(fd, decoder);
    } else if (opt.stats_raw) {
        rc = run_stats_raw(fd, decoder);
    } else if (opt.bench > 0) {
        if (opt.request.empty()) {
            usage_error("--bench needs --request JSON");
        }
        rc = run_bench(fd, decoder, opt);
    } else if (!opt.request.empty()) {
        std::string response;
        if (round_trip(fd, decoder, opt.request, response, "planning_client")) {
            std::cout << response << "\n";
            rc = response_ok(response) ? 0 : 1;
        } else {
            rc = 1;
        }
    } else {
        rc = run_session(fd, decoder);
    }
    ::close(fd);
    return rc;
}
