#!/usr/bin/env bash
# Interleaved A/B of the working tree against a git revision (default HEAD)
# on the xbench benchmark (BENCHMARK.json).
#
#   scripts/bench_ab.sh [--workload W] [--pairs N] [--seed S] [--seconds T]
#                       [--ref REV] [--dir DIR] [--trace] [-- XBENCH_ARGS...]
#
# * Builds REV from a `git archive` export and the working tree, each
#   into its own CARGO_TARGET_DIR under DIR (default: a fresh temporary
#   directory, removed on exit; a given DIR is kept, so later runs reuse
#   its builds).  Nothing is written into the source tree, and xbench/ is
#   used as it is.
# * Runs xbench N times per side (default 10 pairs of explain_miss, 12 s
#   each).  Pair i uses seed S+i on both sides, and the side that runs
#   first alternates from pair to pair, so slow drift on the host hits
#   both sides alike.
# * Prints, for every end-to-end metric of BENCHMARK.json, each side's
#   median and quartiles and the number of pairs the working tree won,
#   followed by the raw per-pair values.  Exits non-zero when any run
#   fails or reports `correct: false`.
# * With --trace, every run is traced (`--trace 1`), in the same
#   alternating order, and the report covers BENCHMARK.json's per-layer
#   metrics instead: one traced pair alone is biased by which side ran
#   first.
#
# Example:  scripts/bench_ab.sh --workload explain_miss --pairs 10 --seed 101
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

workload=explain_miss pairs=10 seed=1 seconds=12 ref=HEAD dir= trace=0
extra=()
usage() { sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'; exit "${1:-0}"; }
while [[ $# -gt 0 ]]; do
    case $1 in
        --workload) workload=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --ref) ref=$2; shift 2 ;;
        --dir) dir=$2; shift 2 ;;
        --trace) trace=1; shift ;;
        --) shift; extra=("$@"); break ;;
        -h | --help) usage 0 ;;
        *) echo "bench_ab: unknown argument $1" >&2; usage 2 ;;
    esac
done

if [[ -z $dir ]]; then
    dir=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
    keep=0
else
    mkdir -p "$dir"
    dir=$(cd "$dir" && pwd)
    keep=1
fi
checkout="$dir/ref-src"
cleanup() {
    rm -rf "$checkout"
    if [[ $keep == 0 ]]; then rm -rf "$dir"; fi
}
trap cleanup EXIT

# An export, not a worktree: nothing is registered in the repository, so
# an interrupted run leaves no state behind in .git.
rm -rf "$checkout"
mkdir -p "$checkout"
git -C "$root" archive "$ref" | tar -x -C "$checkout"

build() { # build SOURCE_DIR TARGET_DIR
    echo "bench_ab: building $1" >&2
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/xbench/Cargo.toml" >&2
}
build "$checkout" "$dir/target-ref"
build "$root" "$dir/target-work"

results="$dir/results-$workload-trace$trace.jsonl"
: >"$results"
run() { # run SIDE SEED
    local out status=0
    out=$("$dir/target-$1/release/xbench" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace "$trace" ${extra[@]+"${extra[@]}"} | tail -n 1) || status=$?
    if [[ $out != '{'* ]]; then
        echo "bench_ab: xbench failed ($1, seed $2, exit $status)" >&2
        exit 1
    fi
    printf '{"side":"%s","seed":%s,"result":%s}\n' "$1" "$2" "$out" >>"$results"
}
for ((i = 0; i < pairs; i++)); do
    s=$((seed + i))
    if ((i % 2 == 0)); then order=(ref work); else order=(work ref); fi
    for side in "${order[@]}"; do
        echo "bench_ab: pair $((i + 1))/$pairs seed $s: $side" >&2
        run "$side" "$s"
    done
done

section=end_to_end
if [[ $trace == 1 ]]; then section=per_layer; fi
python3 - "$root/BENCHMARK.json" "$results" "$ref" "$workload" "$section" <<'EOF'
import json, statistics, sys

bench, results, ref, workload, section = sys.argv[1:]
metrics = json.load(open(bench))[section]
runs = {"ref": {}, "work": {}}
ok = True
for line in open(results):
    row = json.loads(line)
    runs[row["side"]][row["seed"]] = row["result"]
    ok &= row["result"]["correct"]
seeds = sorted(set(runs["ref"]) & set(runs["work"]))

def value(side, seed, name):
    """The metric's number, or None when the run did not report one."""
    metric = runs[side][seed]["metrics"].get(name)
    return metric.get("value") if metric else None

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

print(f"# {workload} ({section}): {len(seeds)} interleaved pairs, ref = {ref}, "
      "work = working tree")
print(f"{'metric':<32} {'unit':<6} {'ref median [q1, q3]':<30} "
      f"{'work median [q1, q3]':<30} {'change':>8} {'work wins':>10}")
for metric in metrics:
    name = metric["name"]
    pairs = [(value("ref", s, name), value("work", s, name)) for s in seeds]
    pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
    if not pairs:
        continue
    ref_values, work_values = [a for a, _ in pairs], [b for _, b in pairs]
    lower = metric["better"] == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in pairs)
    ties = sum(a == b for a, b in pairs)
    (r1, r2, r3), (w1, w2, w3) = quartiles(ref_values), quartiles(work_values)
    change = f"{(w2 - r2) / r2 * 100:+.1f}%" if r2 else "n/a"
    print(f"{name:<32} {metric['unit']:<6} {f'{r2:.4g} [{r1:.4g}, {r3:.4g}]':<30} "
          f"{f'{w2:.4g} [{w1:.4g}, {w3:.4g}]':<30} {change:>8} {f'{wins}/{len(pairs)}':>10}"
          + (f" ({ties} tied)" if ties else ""))
print("# per pair (seed: ref -> work)")
for metric in metrics:
    name = metric["name"]
    cells = []
    for s in seeds:
        a, b = value("ref", s, name), value("work", s, name)
        if a is not None and b is not None:
            cells.append(f"{s}: {a:.4g} -> {b:.4g}")
    if cells:
        print(f"{name}: " + ", ".join(cells))
if not ok:
    print("# WARNING: at least one run reported correct: false")
sys.exit(0 if ok else 1)
EOF
