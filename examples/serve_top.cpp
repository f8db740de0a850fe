// serve_top: live terminal view of a running planning daemon.
//
// Polls the STATS verb and renders the service's health the way top
// renders a host: per-verb queries/s (deltas between polls), per-stage
// latency quantiles from the span-fed stage histograms, lane queue
// depths, cache hit rates, and the slow-query counter. Quantiles are
// upper histogram bin edges (log2 bins), not exact order statistics.
//
// Usage:
//   serve_top (--port P | --port-file FILE)
//             [--interval S] [--iterations N | --once] [--no-clear]
//
// The default is an endless 1 s poll loop that repaints the screen in
// place; --once polls a single time and exits (what CI smoke tests use),
// --iterations bounds the loop, --no-clear appends frames instead of
// repainting (pipe-friendly). Exits nonzero when the server cannot be
// reached or STATS stops parsing.
//
// The stage rows answer the tail-latency question directly: a p99 that
// lives in queue_wait is an overload (add workers or raise --max-inflight),
// one that lives in compute is the workload itself (REFINE simulations),
// and cache hit rates tell whether the warm path is actually warm. See
// EXPERIMENTS.md "Attributing tail latency".
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "stats_scrape.hpp"

namespace {

using namespace stats_scrape;

struct Options {
    int port = -1;
    std::string port_file;
    double interval_s = 1.0;
    long iterations = -1;  ///< -1 = until killed
    bool clear = true;
};

[[noreturn]] void usage_error(std::string_view message) {
    std::cerr << "serve_top: " << message << "\n"
              << "usage: serve_top (--port P | --port-file FILE) [--interval S]\n"
              << "                 [--iterations N | --once] [--no-clear]\n";
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
        } else if (arg == "--interval") {
            opt.interval_s = std::stod(next_value(argc, argv, i, arg));
            if (opt.interval_s <= 0.0) {
                usage_error("--interval must be > 0");
            }
        } else if (arg == "--iterations") {
            opt.iterations = std::stol(next_value(argc, argv, i, arg));
            if (opt.iterations < 1) {
                usage_error("--iterations must be >= 1");
            }
        } else if (arg == "--once") {
            opt.iterations = 1;
        } else if (arg == "--no-clear") {
            opt.clear = false;
        } else if (arg == "--help" || arg == "-h") {
            usage_error("usage");
        } else {
            usage_error("unknown flag " + std::string{arg});
        }
    }
    return opt;
}

constexpr const char* kVerbs[] = {"ping", "eval", "plan", "refine", "stats"};
constexpr std::size_t kVerbTotal = sizeof(kVerbs) / sizeof(kVerbs[0]);
constexpr const char* kStages[] = {"decode",  "parse",     "cache",
                                   "queue_wait", "compute", "serialize",
                                   "write"};

void render(const std::string& text, const double (&qps)[kVerbTotal],
            bool have_rates, long poll, int port) {
    std::printf("serve_top — planning service 127.0.0.1:%d  poll %ld\n\n", port,
                poll);

    std::printf("%-12s %10s %10s %10s %10s\n", "verb", "qps", "total", "p50",
                "p99");
    for (std::size_t v = 0; v < kVerbTotal; ++v) {
        Histogram histogram;
        if (!read_histogram(
                text, std::string("swarmavail_server_latency_seconds_") + kVerbs[v],
                histogram)) {
            continue;
        }
        char qps_text[32];
        if (have_rates) {
            std::snprintf(qps_text, sizeof(qps_text), "%.1f", qps[v]);
        } else {
            std::snprintf(qps_text, sizeof(qps_text), "-");
        }
        std::printf("%-12s %10s %10llu %10s %10s\n", kVerbs[v], qps_text,
                    static_cast<unsigned long long>(histogram.count),
                    format_seconds(histogram_quantile(histogram, 0.50)).c_str(),
                    format_seconds(histogram_quantile(histogram, 0.99)).c_str());
    }

    std::printf("\n%-12s %10s %10s %10s\n", "stage", "count", "p50", "p99");
    for (const char* stage : kStages) {
        Histogram histogram;
        if (!read_histogram(
                text, std::string("swarmavail_server_stage_seconds_") + stage,
                histogram)) {
            continue;
        }
        std::printf("%-12s %10llu %10s %10s\n", stage,
                    static_cast<unsigned long long>(histogram.count),
                    format_seconds(histogram_quantile(histogram, 0.50)).c_str(),
                    format_seconds(histogram_quantile(histogram, 0.99)).c_str());
    }

    std::printf("\nqueues   model %.0f  sim %.0f\n",
                sample_or_zero(text, "swarmavail_server_queue_depth{lane=\"model\"}"),
                sample_or_zero(text, "swarmavail_server_queue_depth{lane=\"sim\"}"));
    for (const char* cache : {"model", "refine"}) {
        const std::string base =
            std::string("swarmavail_server_") + cache + "_cache_";
        const double hits = sample_or_zero(text, base + "hits_total");
        const double misses = sample_or_zero(text, base + "misses_total");
        const double total = hits + misses;
        std::printf(
            "%-8s %6.1f%% hit  (%.0f hits, %.0f misses, %.0f evicted, "
            "%.0f coalesced, %.0f entries)\n",
            cache, total > 0.0 ? 100.0 * hits / total : 0.0, hits, misses,
            sample_or_zero(text, base + "evictions_total"),
            sample_or_zero(text, base + "coalesced_total"),
            sample_or_zero(text, base + "entries"));
    }
    std::printf("spans    records %.0f  dropped %.0f  slow %.0f\n",
                sample_or_zero(text, "swarmavail_server_span_records_total"),
                sample_or_zero(text,
                               "swarmavail_server_span_records_dropped_total"),
                sample_or_zero(text, "swarmavail_server_slow_queries_total"));
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);

    int port = opt.port;
    if (port < 0 && !opt.port_file.empty()) {
        std::ifstream in(opt.port_file);
        if (!(in >> port)) {
            std::cerr << "serve_top: cannot read a port from " << opt.port_file
                      << "\n";
            return 1;
        }
    }
    if (port <= 0 || port > 65535) {
        usage_error("need --port or --port-file naming a bound port");
    }

    const int fd = connect_to(port);
    if (fd < 0) {
        std::cerr << "serve_top: cannot connect to 127.0.0.1:" << port << "\n";
        return 1;
    }
    FrameDecoder decoder;

    double previous_totals[kVerbTotal] = {};
    auto previous_poll = std::chrono::steady_clock::now();
    bool have_previous = false;

    int rc = 0;
    for (long poll = 1; opt.iterations < 0 || poll <= opt.iterations; ++poll) {
        std::string text;
        if (!fetch_stats(fd, decoder, text, "serve_top")) {
            rc = 1;
            break;
        }
        const auto now = std::chrono::steady_clock::now();
        const double elapsed =
            std::chrono::duration<double>(now - previous_poll).count();

        double qps[kVerbTotal] = {};
        double totals[kVerbTotal] = {};
        for (std::size_t v = 0; v < kVerbTotal; ++v) {
            totals[v] = sample_or_zero(
                text, std::string("swarmavail_server_requests_total{verb=\"") +
                          kVerbs[v] + "\"}");
            if (have_previous && elapsed > 0.0) {
                qps[v] = (totals[v] - previous_totals[v]) / elapsed;
            }
            previous_totals[v] = totals[v];
        }
        previous_poll = now;

        if (opt.clear) {
            std::printf("\x1b[H\x1b[2J");
        }
        render(text, qps, have_previous, poll, port);
        std::fflush(stdout);
        have_previous = true;

        if (opt.iterations < 0 || poll < opt.iterations) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(opt.interval_s));
        }
    }
    ::close(fd);
    return rc;
}
