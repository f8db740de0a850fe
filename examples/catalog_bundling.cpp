// Catalog bundling, measured: drives the multi-swarm CatalogEngine over a
// Zipf catalog under a chosen bundling policy, then reproduces the paper's
// Figure 3 tradeoff (download time vs bundle size K at two publisher
// availability levels) from simulation instead of closed forms.
//
// Usage:
//   catalog_bundling [--policy none|fixedk|greedy] [--k K] [--files N]
//                    [--alpha A] [--demand LAMBDA] [--horizon H] [--seed S]
//                    [--threads T] [--partitioned] [--json]
//                    [--trace-swarm I --trace-out FILE] [--no-sweep]
//                    [--telemetry-out FILE] [--telemetry-interval SECONDS]
//                    [--telemetry-prom FILE] [--stop-ci TARGET]
//
// The report is bit-identical at every --threads value; --trace-swarm
// writes one swarm's JSONL trace for replay with examples/trace_inspect.
//
// --telemetry-out streams periodic JSONL snapshots of the running catalog
// (watch them live with examples/telemetry_watch), --telemetry-prom keeps
// a Prometheus text-exposition file up to date, and --stop-ci enables an
// early-stop rule: the run ends once the 95% CI half-width of per-swarm
// arrival unavailability drops to the target (recorded in the report).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "catalog/report.hpp"
#include "sim/trace.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

namespace {

struct Options {
    std::string policy = "fixedk";
    std::size_t k = 4;
    std::size_t files = 200;
    double alpha = 1.0;
    double demand = 200.0 / 60.0 / 10.0;  // ~1 request per 3 s across the catalog
    double horizon = 2.0e5;
    std::uint64_t seed = 42;
    std::size_t threads = 0;  // 0: SWARMAVAIL_THREADS / hardware concurrency
    bool partitioned = false;
    bool json = false;
    bool sweep = true;
    std::size_t trace_swarm = swarmavail::catalog::kNoTracedSwarm;
    std::string trace_out;
    std::string telemetry_out;
    std::string telemetry_prom;
    double telemetry_interval = 0.25;
    double stop_ci = 0.0;  // <= 0: no early stop
};

[[noreturn]] void usage_error(std::string_view message) {
    std::cerr << "catalog_bundling: " << message << "\n"
              << "  --policy none|fixedk|greedy   bundling policy (default fixedk)\n"
              << "  --k K                         bundle size (default 4)\n"
              << "  --files N                     catalog size (default 200)\n"
              << "  --alpha A                     Zipf exponent (default 1.0)\n"
              << "  --demand LAMBDA               aggregate request rate 1/s\n"
              << "  --horizon H                   simulated seconds (default 2e5)\n"
              << "  --seed S                      base seed (swarm i uses S+i)\n"
              << "  --threads T                   sharded worker count (0 = auto)\n"
              << "  --partitioned                 split publisher budget over swarms\n"
              << "  --json                        dump the full report as JSON\n"
              << "  --trace-swarm I               trace swarm I (JSONL)\n"
              << "  --trace-out FILE              trace destination (with --trace-swarm)\n"
              << "  --no-sweep                    skip the Figure-3-style K sweep\n"
              << "  --telemetry-out FILE          live JSONL snapshot stream\n"
              << "  --telemetry-interval SECONDS  snapshot period (default 0.25)\n"
              << "  --telemetry-prom FILE         Prometheus text-exposition file\n"
              << "  --stop-ci TARGET              stop once unavailability CI95 "
                 "half-width <= TARGET\n";
    std::exit(2);
}

Options parse_options(int argc, char** argv) {
    Options opt;
    auto value = [&](int& i) -> std::string_view {
        if (i + 1 >= argc) {
            usage_error(std::string{argv[i]} + " needs a value");
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--policy") {
            opt.policy = value(i);
        } else if (arg == "--k") {
            opt.k = std::stoul(std::string{value(i)});
        } else if (arg == "--files") {
            opt.files = std::stoul(std::string{value(i)});
        } else if (arg == "--alpha") {
            opt.alpha = std::stod(std::string{value(i)});
        } else if (arg == "--demand") {
            opt.demand = std::stod(std::string{value(i)});
        } else if (arg == "--horizon") {
            opt.horizon = std::stod(std::string{value(i)});
        } else if (arg == "--seed") {
            opt.seed = std::stoull(std::string{value(i)});
        } else if (arg == "--threads") {
            opt.threads = std::stoul(std::string{value(i)});
        } else if (arg == "--partitioned") {
            opt.partitioned = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--trace-swarm") {
            opt.trace_swarm = std::stoul(std::string{value(i)});
        } else if (arg == "--trace-out") {
            opt.trace_out = value(i);
        } else if (arg == "--no-sweep") {
            opt.sweep = false;
        } else if (arg == "--telemetry-out") {
            opt.telemetry_out = value(i);
        } else if (arg == "--telemetry-interval") {
            opt.telemetry_interval = std::stod(std::string{value(i)});
        } else if (arg == "--telemetry-prom") {
            opt.telemetry_prom = value(i);
        } else if (arg == "--stop-ci") {
            opt.stop_ci = std::stod(std::string{value(i)});
        } else if (arg == "--help" || arg == "-h") {
            usage_error("usage");
        } else {
            usage_error("unknown flag " + std::string{arg});
        }
    }
    return opt;
}

swarmavail::catalog::CatalogConfig catalog_config(const Options& opt) {
    swarmavail::catalog::CatalogConfig config;
    config.num_files = opt.files;
    config.zipf_exponent = opt.alpha;
    config.aggregate_demand = opt.demand;
    config.file_size = 4.0e6 * 8.0;          // 4 MB files
    config.download_rate = 50.0e3 * 8.0;     // 50 KBps effective swarm capacity
    config.publisher_arrival_rate = 1.0 / 900.0;  // seed returns every 15 min
    config.publisher_residence = 300.0;           // ... and stays 5 min
    config.publishers = opt.partitioned
                            ? swarmavail::catalog::PublisherAssignment::kPartitionedBudget
                            : swarmavail::catalog::PublisherAssignment::kDedicated;
    return config;
}

swarmavail::catalog::CatalogEngineConfig engine_config(const Options& opt) {
    swarmavail::catalog::CatalogEngineConfig config;
    config.horizon = opt.horizon;
    config.seed = opt.seed;
    config.policy.threads = opt.threads;
    return config;
}

void print_policy_run(const Options& opt) {
    using namespace swarmavail;
    const auto catalog = catalog::build_catalog(catalog_config(opt));
    const auto policy = catalog::make_policy(opt.policy, opt.k);
    auto config = engine_config(opt);

    // Optional live telemetry: JSONL snapshot stream and/or Prometheus
    // text-exposition file, sampled every --telemetry-interval seconds.
    std::ofstream telemetry_file;
    std::unique_ptr<telemetry::JsonlTelemetryExporter> jsonl_exporter;
    std::unique_ptr<telemetry::PrometheusTextExporter> prom_exporter;
    std::unique_ptr<telemetry::TelemetrySession> session;
    if (!opt.telemetry_out.empty() || !opt.telemetry_prom.empty()) {
        if (opt.telemetry_interval <= 0.0) {
            usage_error("--telemetry-interval must be > 0");
        }
        telemetry::TelemetryConfig telemetry_config;
        telemetry_config.interval_s = opt.telemetry_interval;
        if (!opt.telemetry_out.empty()) {
            telemetry_file.open(opt.telemetry_out);
            if (!telemetry_file) {
                usage_error("cannot open " + opt.telemetry_out);
            }
            jsonl_exporter =
                std::make_unique<telemetry::JsonlTelemetryExporter>(telemetry_file);
            telemetry_config.exporters.push_back(jsonl_exporter.get());
        }
        if (!opt.telemetry_prom.empty()) {
            prom_exporter = std::make_unique<telemetry::PrometheusTextExporter>(
                opt.telemetry_prom);
            telemetry_config.exporters.push_back(prom_exporter.get());
        }
        session = std::make_unique<telemetry::TelemetrySession>(
            std::move(telemetry_config));
        session->start();
        config.telemetry = session.get();
    }
    if (opt.stop_ci > 0.0) {
        config.stop_rule = telemetry::StopRule{opt.stop_ci, 8};
    }

    std::ofstream trace_file;
    sim::Tracer* tracer = nullptr;
    // Optional single-swarm replay hook: the traced swarm's JSONL is
    // identical to tracing it in an isolated run (feed it to trace_inspect).
    std::unique_ptr<sim::JsonlTraceSink> sink;
    std::unique_ptr<sim::Tracer> owned_tracer;
    if (opt.trace_swarm != catalog::kNoTracedSwarm) {
        if (opt.trace_out.empty()) {
            usage_error("--trace-swarm needs --trace-out");
        }
        trace_file.open(opt.trace_out);
        if (!trace_file) {
            usage_error("cannot open " + opt.trace_out);
        }
        sink = std::make_unique<sim::JsonlTraceSink>(trace_file);
        owned_tracer = std::make_unique<sim::Tracer>(*sink);
        owned_tracer->set_enabled(true);
        tracer = owned_tracer.get();
        config.tracer = tracer;
        config.traced_swarm = opt.trace_swarm;
    }

    const auto report = catalog::run_catalog(catalog, *policy, config);
    if (session != nullptr) {
        session->stop();  // emits the final snapshot before we print
    }
    if (report.stopped_early && !opt.json) {
        std::cout << "stop rule fired: " << report.swarms.size() << " of "
                  << report.swarms_planned << " swarms ran (CI95 half-width <= "
                  << opt.stop_ci << ")\n\n";
    }
    if (owned_tracer != nullptr) {
        owned_tracer->flush();
        std::cout << "traced swarm " << opt.trace_swarm << " -> " << opt.trace_out
                  << " (" << owned_tracer->records_emitted() << " records)\n\n";
    }

    if (opt.json) {
        catalog::write_json(report, std::cout);
        std::cout << "\n";
        return;
    }
    std::cout << "=== " << opt.files << "-file Zipf(" << opt.alpha
              << ") catalog, policy " << policy->name();
    if (opt.policy != "none") {
        std::cout << " (K = " << opt.k << ")";
    }
    std::cout << ", " << report.swarms.size() << " swarms ===\n\n";
    catalog::write_summary(report, std::cout);
}

// Figure 3, measured: mean download time vs K for two publisher
// availability levels (frequent vs rare seed visits). The paper's curves
// show an interior optimum K when seeds are rare.
void print_figure3_sweep(const Options& opt) {
    using namespace swarmavail;
    Options sweep_opt = opt;
    sweep_opt.files = 64;
    sweep_opt.demand = 64.0 / 240.0;  // 1/240 s^-1 per file

    std::cout << "\n=== Figure-3-style sweep: download time vs K (64 files, "
                 "FixedK, measured) ===\n\n";
    TableWriter table{{"K", "swarms",
                             "E[T] (s), 1/R = 900 s", "P(unavail), 1/R = 900 s",
                             "E[T] (s), 1/R = 7200 s", "P(unavail), 1/R = 7200 s"}};
    for (std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
        std::vector<std::string> row{std::to_string(k), ""};
        for (double interarrival : {900.0, 7200.0}) {
            auto config = catalog_config(sweep_opt);
            config.publisher_arrival_rate = 1.0 / interarrival;
            const auto catalog = catalog::build_catalog(config);
            const auto report = catalog::run_catalog(catalog, catalog::FixedK{k},
                                                     engine_config(sweep_opt));
            row[1] = std::to_string(report.swarms.size());
            row.push_back(format_double(report.mean_download_time, 6));
            row.push_back(
                format_double(report.demand_weighted_unavailability, 4));
        }
        table.add_row(row);
    }
    table.print(std::cout);
    std::cout << "\nFrequent seeds (1/R = 900 s): bundling only adds transfer "
                 "time.\nRare seeds (1/R = 7200 s): availability gains first beat "
                 "the size cost,\nthen the K s / mu transfer term dominates — the "
                 "interior optimum of Figure 3.\n";
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    print_policy_run(opt);
    if (opt.sweep && !opt.json) {
        print_figure3_sweep(opt);
    }
    return 0;
}
