#!/usr/bin/env python3
"""Merge google-benchmark JSON outputs into the BENCH_perf.json baseline.

Output schema:

{
  "schema_version": 2,
  "generated_at": "2026-01-01T00:00:00Z",
  "host": {"hardware_threads": 8},
  "benchmarks": [
    {"name": "...", "ns_per_op": 1.0, "items_per_s": 2.0,
     "threads": 4, "speedup_vs_serial": 3.5,
     "delta_vs_prior_pct": -1.2, "tracing_overhead_pct": 4.7}
  ],
  "phase_profile": {"phases": [{"name": "...", "calls": 1, "seconds": 0.5}]}
}

`threads` is parsed from the `/threads:N` argument in the benchmark name
(the replication-scaling benches name their argument that way); plain
single-threaded benches report 1. `speedup_vs_serial` is emitted for
multi-threaded entries whose family (name minus the /threads:N component)
also has a threads:1 row.

`delta_vs_prior_pct` compares each row against the same-named row of the
prior baseline (--prior, usually the checked-in BENCH_perf.json). A
missing, empty, or corrupt prior file is tolerated: the field is simply
omitted, so the first run on a fresh checkout still succeeds.

`tracing_overhead_pct` is emitted on observability rows (name containing
"TraceOn") and measures them against their plain counterpart (the name
with the first "TraceOn" removed) from the same run.
`telemetry_overhead_pct` works the same way for "TelemetryOn" rows (a run
with a live TelemetrySession attached vs. the detached counterpart).
`fingerprint_overhead_pct` is the inverse pairing: determinism
fingerprints are ON by default, so the "FingerprintOff" row is the
baseline and the field (attached to the FingerprintOff row alongside the
measurement it anchors) reports what the plain row pays for them.
`srv_span_overhead_pct` ("SpanOn" rows) measures the planning router's
warm path with a RequestSpans scratch attached against the plain warm
row; `srv_span_idle_overhead_pct` ("SpanIdle" rows) measures the same
path through the spans-capable route() overload with a null scratch —
the runtime-disabled cost that the serve CI leg gates at <= 1%.

`phase_profile` embeds the per-phase wall-time breakdown printed by
bench_phase_profile (--profile), again tolerating a missing file.

When the same benchmark name appears in several input files (bench.sh's
BENCH_REPEAT mode feeds each run as a separate file), the row with the
minimum ns_per_op wins: on hosts with background load the minimum is the
least-contaminated estimate, and derived fields (speedups, overheads,
deltas) are computed from the kept rows only.

Noise handling: an overhead pair is two independent minima, so sampling
noise can make the instrumented row come out *faster* than its plain
counterpart — a physically impossible negative overhead. Negative
overheads within NOISE_FLOOR_PCT are clamped to 0.0; ones beyond the
floor are kept as measured but the row gains `noise_suspect: true`.
The same flag is set when the interleaved repeats of a row disagree by
more than SPREAD_SUSPECT_PCT (max/min - 1): a spread that wide means
even the minimum is probably contaminated, so treat the row's derived
fields as indicative rather than gating-quality.
"""
import argparse
import datetime
import json
import os
import re
import sys

_THREADS_ARG = re.compile(r"/threads:(\d+)")

# A negative overhead no larger than this is ordinary minimum-of-minima
# jitter: clamp it to zero. Anything more negative is left visible (and
# flagged) so a genuinely broken measurement cannot hide inside the clamp.
NOISE_FLOOR_PCT = 2.0

# Repeat spread (max/min - 1, in percent) beyond which a row's minimum is
# assumed contaminated by host load and the row is flagged noise_suspect.
SPREAD_SUSPECT_PCT = 10.0


def _to_ns(value, unit):
    return value * {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]


def _load_json_or_none(path):
    """Read a JSON document, returning None for a missing/empty/corrupt file."""
    if not path:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return None
    if not text.strip():
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def merge(input_paths, prior_path=None, profile_path=None):
    entries = []
    hardware_threads = os.cpu_count() or 1
    for path in input_paths:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        hardware_threads = doc.get("context", {}).get("num_cpus", hardware_threads)
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            match = _THREADS_ARG.search(bench["name"])
            row = {
                "name": bench["name"],
                "ns_per_op": _to_ns(bench["real_time"], bench.get("time_unit", "ns")),
                "items_per_s": bench.get("items_per_second"),
                "threads": int(match.group(1)) if match else 1,
            }
            # srv_* counters are the planning-service rows (queries/s
            # through the router and the loopback server): carried verbatim.
            for key, value in bench.items():
                if key.startswith("srv_"):
                    row[key] = value
            entries.append(row)

    # Repeated runs: keep the fastest observation per name, preserving
    # first-appearance order. Track the slowest too: the repeat spread is
    # the noise estimate behind the noise_suspect flag.
    best = {}
    worst_ns = {}
    order = []
    for entry in entries:
        kept = best.get(entry["name"])
        if kept is None:
            order.append(entry["name"])
            best[entry["name"]] = entry
            worst_ns[entry["name"]] = entry["ns_per_op"]
        else:
            worst_ns[entry["name"]] = max(worst_ns[entry["name"]], entry["ns_per_op"])
            if entry["ns_per_op"] < kept["ns_per_op"]:
                best[entry["name"]] = entry
    entries = [best[name] for name in order]
    for entry in entries:
        low = entry["ns_per_op"]
        high = worst_ns[entry["name"]]
        if low > 0 and high > low:
            spread_pct = (high / low - 1.0) * 100.0
            entry["repeat_spread_pct"] = round(spread_pct, 2)
            if spread_pct > SPREAD_SUSPECT_PCT:
                entry["noise_suspect"] = True

    serial_ns = {}
    for entry in entries:
        if entry["threads"] == 1:
            serial_ns[_THREADS_ARG.sub("", entry["name"])] = entry["ns_per_op"]
    for entry in entries:
        family = _THREADS_ARG.sub("", entry["name"])
        if entry["threads"] > 1 and serial_ns.get(family) and entry["ns_per_op"] > 0:
            entry["speedup_vs_serial"] = round(serial_ns[family] / entry["ns_per_op"], 4)

    by_name = {entry["name"]: entry for entry in entries}
    # (marker, field, inverted): non-inverted pairs measure the suffixed row
    # against its plain counterpart (TraceOn is the instrumented run).
    # Inverted pairs flip the ratio: the plain BM_SwarmSim rows run with
    # fingerprints ON (the config default), so the FingerprintOff row is
    # the baseline and the overhead lives in the plain row's cost.
    overhead_pairs = (
        ("TraceOn", "tracing_overhead_pct", False),
        ("TelemetryOn", "telemetry_overhead_pct", False),
        ("FingerprintOff", "fingerprint_overhead_pct", True),
        ("SpanOn", "srv_span_overhead_pct", False),
        ("SpanIdle", "srv_span_idle_overhead_pct", False),
    )
    for entry in entries:
        for marker, field, inverted in overhead_pairs:
            if marker not in entry["name"]:
                continue
            plain = by_name.get(entry["name"].replace(marker, "", 1))
            if plain and plain["ns_per_op"] > 0 and entry["ns_per_op"] > 0:
                if inverted:
                    overhead = (plain["ns_per_op"] / entry["ns_per_op"] - 1.0) * 100.0
                else:
                    overhead = (entry["ns_per_op"] / plain["ns_per_op"] - 1.0) * 100.0
                if -NOISE_FLOOR_PCT <= overhead < 0.0:
                    overhead = 0.0
                elif overhead < -NOISE_FLOOR_PCT:
                    entry["noise_suspect"] = True
                entry[field] = round(overhead, 2)

    prior = _load_json_or_none(prior_path)
    if isinstance(prior, dict):
        prior_ns = {
            row.get("name"): row.get("ns_per_op")
            for row in prior.get("benchmarks", [])
            if isinstance(row, dict)
        }
        for entry in entries:
            base = prior_ns.get(entry["name"])
            if base and base > 0:
                entry["delta_vs_prior_pct"] = round(
                    (entry["ns_per_op"] / base - 1.0) * 100.0, 2)

    doc = {
        "schema_version": 2,
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {"hardware_threads": hardware_threads},
        "benchmarks": entries,
    }
    profile = _load_json_or_none(profile_path)
    if isinstance(profile, dict) and "phases" in profile:
        doc["phase_profile"] = profile
    return doc


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+",
                        help="google-benchmark JSON output files to merge")
    parser.add_argument("--prior", default=None,
                        help="prior BENCH_perf.json baseline for delta_vs_prior_pct "
                             "(missing/empty/corrupt files are tolerated)")
    parser.add_argument("--profile", default=None,
                        help="bench_phase_profile JSON to embed as phase_profile")
    args = parser.parse_args(argv)
    json.dump(merge(args.inputs, args.prior, args.profile), sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
