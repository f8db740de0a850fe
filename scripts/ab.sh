#!/usr/bin/env bash
# Paired, interleaved A/B of two revisions on one perfbench workload.
#
# Usage:
#   scripts/ab.sh REV_A REV_B [WORKLOAD] [PAIRS]   # defaults: swarm_fig6, 10 pairs
#   scripts/ab.sh --self-test                      # check the statistics only
#
# Each revision is exported with `git archive` into a temporary directory
# outside the checkout and built by its own perfbench/run.py under its own
# CARGO_TARGET_DIR. That build call runs the workload once, on seed
# AB_SEED_BASE - 1, which no pair uses. Pair i then runs both revisions on
# seed AB_SEED_BASE + i, A first in even pairs and B first in odd ones, so
# drift of the host loads both sides alike. The script prints each pair's
# end-to-end metrics and, per metric, each side's median [q1, q3], the
# median B/A ratio with a bootstrap 95% interval, and the count of pairs
# where B was better (scripts/ab_stats.py; directions from the checkout's
# BENCHMARK.json).
#
# Environment:
#   AB_SECONDS    run length of a measured run (default: run_seconds of
#                 BENCHMARK.json)
#   AB_SEED_BASE  first measured seed (default 9001)
#
# On failure the temporary directory is kept and its path printed.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "${here}")"

if [[ "${1:-}" == "--self-test" ]]; then
    exec python3 "${here}/ab_stats.py" --self-test
fi
if [[ $# -lt 2 || $# -gt 4 ]]; then
    sed -n '4,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

rev_a="$1"
rev_b="$2"
workload="${3:-swarm_fig6}"
pairs="${4:-10}"
spec="${root}/BENCHMARK.json"
seconds="${AB_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "${spec}")}"
seed_base="${AB_SEED_BASE:-9001}"

work="$(mktemp -d "${TMPDIR:-/tmp}/swarmavail-ab.XXXXXX")"
trap 'if (($?)); then echo "ab.sh: failed; kept ${work}" >&2; else rm -rf "${work}"; fi' EXIT

# run SIDE SEED SECONDS: one perfbench run of a side; prints its JSON line.
run() {
    (cd "${work}/$1/src" &&
        CARGO_TARGET_DIR="${work}/$1/build" python3 perfbench/run.py \
            --workload "${workload}" --seed "$2" --seconds "$3" --trace 0 |
        tail -n 1)
}

for side in a b; do
    rev="${rev_a}"
    [[ "${side}" == b ]] && rev="${rev_b}"
    mkdir -p "${work}/${side}/src"
    git -C "${root}" archive "${rev}" | tar -x -C "${work}/${side}/src"
    echo "ab.sh: building ${side^^} = ${rev} ($(git -C "${root}" rev-parse --short "${rev}"))" >&2
    run "${side}" "$((seed_base - 1))" 2 >/dev/null
done

results="${work}/pairs.jsonl"
: >"${results}"
for ((i = 0; i < pairs; i++)); do
    seed=$((seed_base + i))
    order=(a b)
    first=A
    if ((i % 2 == 1)); then
        order=(b a)
        first=B
    fi
    for side in "${order[@]}"; do
        echo "ab.sh: pair ${i} seed ${seed}: ${side^^}" >&2
        run "${side}" "${seed}" "${seconds}" >"${work}/${side}.json"
    done
    python3 - "${work}/a.json" "${work}/b.json" "${i}" "${seed}" "${first}" >>"${results}" <<'PY'
import json, sys
a, b = (json.load(open(path)) for path in sys.argv[1:3])
for side in (a, b):
    if not side["correct"] or side["failed"]:
        sys.exit("ab.sh: a run reported failures: %s" % json.dumps(side))
flat = lambda r: {k: v["value"] for k, v in r["metrics"].items()}
print(json.dumps({"pair": int(sys.argv[3]), "seed": int(sys.argv[4]),
                  "first": sys.argv[5], "a": flat(a), "b": flat(b)}))
PY
done

echo "A = ${rev_a}, B = ${rev_b}, workload ${workload}, ${seconds} s runs"
python3 "${here}/ab_stats.py" "${results}" "${spec}"
