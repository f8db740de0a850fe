// swarmbench: one workload of the swarmavail benchmark per invocation.
//
//   swarmbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints human-readable lines, then, as the last line, one JSON object
// {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced variant and reports the
// per-layer metrics, writing its spans to FILE as JSONL.
#include <malloc.h>
#include <sys/prctl.h>

#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "swarmbench: " << why
              << "\nusage: swarmbench --workload serve_warm|serve_cold|catalog_mininova|"
                 "swarm_fig6 --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + std::string(flag));
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = std::stoi(value) != 0;
            } else if (flag == "--trace-out") {
                options.trace_out = value;
            } else {
                usage("unknown flag " + std::string(flag));
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + std::string(flag) + ": " + value);
        }
    }
    if (!(options.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    return options;
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);
    // Timer slack lets the kernel defer a sleeping thread's wakeup by up to
    // 50 us by default; the open-loop generator sleeps until each send is
    // due, so it asks for the tightest wakeups.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    // glibc raises its mmap threshold after the first large free, so whether
    // a later large block lands on the heap (and stays resident) depends on
    // thread timing; that moved serve_cold's resident set between 11 and
    // 24 MB from run to run. Pinning the threshold at its 128 KiB default
    // makes memory figures repeat.
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    Spans spans;
    if (options.trace) {
        spans.enable(1U << 20U);
    }
    Result result;
    try {
        if (options.workload == "serve_warm") {
            run_serve_warm(options, spans, result);
        } else if (options.workload == "serve_cold") {
            run_serve_cold(options, spans, result);
        } else if (options.workload == "catalog_mininova") {
            run_catalog_mininova(options, spans, result);
        } else if (options.workload == "swarm_fig6") {
            run_swarm_fig6(options, spans, result);
        } else {
            usage("unknown workload '" + options.workload + "'");
        }
    } catch (const std::exception& e) {
        std::cerr << "swarmbench: " << options.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    if (options.trace) {
        result.metric("trace.spans", static_cast<double>(spans.size()), "count");
        if (spans.dropped() > 0) {
            result.note("spans dropped at the in-memory cap: " +
                        std::to_string(spans.dropped()));
        }
        if (!options.trace_out.empty() && !spans.write_jsonl(options.trace_out)) {
            std::cerr << "swarmbench: cannot write " << options.trace_out << "\n";
            return 1;
        }
    } else {
        if (!result.has_metric("rss_mb")) {
            result.metric("rss_mb", peak_rss_mb(), "MB");
        }
        result.note("peak_rss_mb = " + format_number(peak_rss_mb()) + " MB");
    }
    for (const std::string& line : result.notes()) {
        std::cout << options.workload << ": " << line << "\n";
    }
    const auto attempted = static_cast<double>(result.attempted());
    const double error_ratio =
        attempted > 0 ? static_cast<double>(result.failed()) / attempted : 1.0;
    std::cout << options.workload << ": error_ratio = " << format_number(error_ratio)
              << "  (" << result.failed() << " failed of " << result.attempted()
              << " attempted)\n";
    std::cout << result.json() << std::endl;
    return 0;
}
