#!/usr/bin/env python3
"""Statistics of a paired A/B run (scripts/ab.sh): per-pair metrics and ratios.

Usage:

    python3 scripts/ab_stats.py PAIRS.jsonl BENCHMARK.json
    python3 scripts/ab_stats.py --self-test

Each line of PAIRS.jsonl is one pair of runs on one seed:

    {"pair": 0, "seed": 9001, "first": "A", "a": {"setup_s": 0.8, ...},
     "b": {"setup_s": 0.7, ...}}

where "a" and "b" map each end-to-end metric to its value. The report
prints every pair, then for every end-to-end metric of BENCHMARK.json:
each side's median [q1, q3], the median of the per-pair ratios B/A with a
bootstrap 95% interval (pairs resampled with replacement), and in how many
pairs B was better in the metric's declared direction. A pair whose A value
is 0 has no ratio and is left out of that metric's ratio statistics.
"""

import json
import random
import sys

BOOTSTRAP_RESAMPLES = 10000
BOOTSTRAP_SEED = 20091201


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def bootstrap_median_interval(ratios, resamples=BOOTSTRAP_RESAMPLES, seed=BOOTSTRAP_SEED):
    """95% percentile-bootstrap interval of the median of `ratios`."""
    rng = random.Random(seed)
    n = len(ratios)
    medians = [median([ratios[rng.randrange(n)] for _ in range(n)]) for _ in range(resamples)]
    return quantile(medians, 0.025), quantile(medians, 0.975)


def summarize(pairs, name, better):
    """Statistics of one metric over `pairs`; `better` is "higher" or "lower"."""
    a = [p["a"][name] for p in pairs]
    b = [p["b"][name] for p in pairs]
    ratios = [p["b"][name] / p["a"][name] for p in pairs if p["a"][name] != 0]
    if better == "higher":
        wins = sum(1 for x, y in zip(a, b) if y > x)
    else:
        wins = sum(1 for x, y in zip(a, b) if y < x)
    out = {
        "a": (median(a), quantile(a, 0.25), quantile(a, 0.75)),
        "b": (median(b), quantile(b, 0.25), quantile(b, 0.75)),
        "b_better": wins,
        "pairs": len(pairs),
        "ratio": None,
    }
    if ratios:
        out["ratio"] = (median(ratios),) + bootstrap_median_interval(ratios)
    return out


def report(pairs, metrics, out=sys.stdout):
    names = [m["name"] for m in metrics]
    width = max(len(n) for n in names)
    for p in pairs:
        order = "A,B" if p["first"] == "A" else "B,A"
        print("pair %d  seed %d  order %s" % (p["pair"], p["seed"], order), file=out)
        for n in names:
            x, y = p["a"][n], p["b"][n]
            ratio = "%.3f" % (y / x) if x != 0 else "n/a"
            print("  %-*s  A %-12.6g B %-12.6g B/A %s" % (width, n, x, y, ratio), file=out)
    print(
        "\nover %d pairs: median [q1, q3] per side; B/A is the median per-pair ratio "
        "[bootstrap 95%% interval]" % len(pairs),
        file=out,
    )
    for m in metrics:
        s = summarize(pairs, m["name"], m["better"])
        ratio = "n/a" if s["ratio"] is None else "%.3f [%.3f, %.3f]" % s["ratio"]
        print(
            "  %-*s  A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  B/A %s  B better in %d/%d (%s is better)"
            % ((width, m["name"]) + s["a"] + s["b"] + (ratio, s["b_better"], s["pairs"], m["better"])),
            file=out,
        )


def self_test():
    import io

    def check(cond, what):
        if not cond:
            print("ab_stats self-test FAILED: " + what, file=sys.stderr)
            sys.exit(1)

    check(quantile([4, 1, 3, 2], 0.25) == 1.75, "q1 of 1..4 is 1.75")
    check(quantile([4, 1, 3, 2], 0.75) == 3.25, "q3 of 1..4 is 3.25")
    check(median([3, 1, 2]) == 2, "median of an odd count")
    check(median([1, 2, 3, 4]) == 2.5, "median of an even count")
    check(quantile([7], 0.975) == 7, "quantile of one value")

    ratios = [0.8, 0.9, 1.0, 1.1, 1.2, 1.3]
    lo, hi = bootstrap_median_interval(ratios)
    check(0.8 <= lo <= median(ratios) <= hi <= 1.3, "interval brackets the median")
    check(lo < hi, "interval of spread ratios has width")
    check((lo, hi) == bootstrap_median_interval(ratios), "bootstrap is deterministic")
    check(bootstrap_median_interval([1.27] * 6) == (1.27, 1.27), "constant ratios")

    pairs = []
    for i, r in enumerate(ratios):
        pairs.append(
            {
                "pair": i,
                "seed": 9001 + i,
                "first": "A" if i % 2 == 0 else "B",
                "a": {"throughput_per_s": 100.0, "setup_s": 1.0, "rss_mb": 0.0},
                "b": {"throughput_per_s": 100.0 * r, "setup_s": r, "rss_mb": 5.0},
            }
        )
    s = summarize(pairs, "throughput_per_s", "higher")
    check(abs(s["ratio"][0] - 1.05) < 1e-12, "median ratio of the fixed input")
    check(s["b_better"] == 3, "higher-is-better wins")
    check(summarize(pairs, "setup_s", "lower")["b_better"] == 2, "lower-is-better wins")
    check(summarize(pairs, "rss_mb", "lower")["ratio"] is None, "no ratio when A is 0")
    check(s["a"] == (100.0, 100.0, 100.0), "A quartiles of a constant side")

    metrics = [
        {"name": "throughput_per_s", "better": "higher"},
        {"name": "setup_s", "better": "lower"},
        {"name": "rss_mb", "better": "lower"},
    ]
    buf = io.StringIO()
    report(pairs, metrics, out=buf)
    text = buf.getvalue()
    check("pair 1  seed 9002  order B,A" in text, "pair header")
    check("B/A 1.050 [" in text, "summary line of the ratio")
    check("B better in 3/6 (higher is better)" in text, "summary line of the wins")
    print("ab_stats self-test passed")


def main(argv):
    if argv[1:] == ["--self-test"]:
        self_test()
        return
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    with open(argv[1]) as f:
        pairs = [json.loads(line) for line in f if line.strip()]
    with open(argv[2]) as f:
        metrics = json.load(f)["end_to_end"]
    if not pairs:
        print("ab_stats: no pairs in " + argv[1], file=sys.stderr)
        sys.exit(1)
    report(pairs, metrics)


if __name__ == "__main__":
    main(sys.argv)
