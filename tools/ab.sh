#!/usr/bin/env bash
# Same-sitting A/B of two copied-out `perfbench` executables, in the shape
# ROADMAP's standing rule (ii) asks for: one pair of runs per seed, parent
# and change alternating, the starting side rotating from pair to pair,
# every run listed. Reads perfbench's printed output only.
#
#   tools/ab.sh [--seconds N] [--trace 0|1] [--idle SECS | --warm] [--logs DIR] \
#               [--record DIR] PARENT_EXE CHANGE_EXE WORKLOAD SEED...
#
#   --seconds N   measured window handed to perfbench (default 10)
#   --trace 1     traced runs; adds a table of every per-layer metric printed
#   --idle SECS   sleep SECS before each run (the host's idle state)
#   --warm        before each run, a throw-away `net-saturated --seconds 1`
#                 of the *other* side's executable (the host's warm state)
#   --logs DIR    keep each run's output there (default: a fresh temp dir)
#   --record DIR  also write DIR/rows.tsv: a `#` header (both commits, the
#                 workload, the window, the host state, whether it is an
#                 A/A) over every run's metrics, one `side pair seed first
#                 metric value` row each; the printed tables do not change
#
# Build each tree once into its own target directory
# (`CARGO_TARGET_DIR=… cargo build --release --offline --manifest-path
# perfbench/Cargo.toml`) and copy `release/perfbench` out first. For
# --record, put the tree's commit beside each copy, in EXE.commit
# (`git -C TREE rev-parse HEAD > EXE.commit`); without it the header names
# the executable's SHA-256 instead.
# For an A/A row — what this host makes of two sides that do not differ —
# pass the same executable (or two copies of it) as both PARENT_EXE and
# CHANGE_EXE; a claimed ratio has to stand clear of the one that prints.
# Exits 1 if any run failed an operation or a check.
set -euo pipefail

seconds=10 trace=0 idle=0 warm=0 logs= record=
while [[ $# -gt 0 && $1 == --* ]]; do
    case $1 in
        --seconds) seconds=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --idle) idle=$2; shift 2 ;;
        --warm) warm=1; shift ;;
        --logs) logs=$2; shift 2 ;;
        --record) record=$2; shift 2 ;;
        *) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
    esac
done
if [[ $# -lt 4 ]]; then
    sed -n '2,29p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3
shift 3
[[ -n $logs ]] || logs=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
mkdir -p "$logs"
rows=$logs/rows.tsv
: >"$rows"
bad=0

# run SIDE PAIR SEED FIRST: one measured run, its metrics appended to $rows
# as `side pair seed first metric value`.
run() {
    local side=$1 pair=$2 seed=$3 first=$4 exe other log status=0
    if [[ $side == parent ]]; then exe=$parent other=$change; else exe=$change other=$parent; fi
    log=$logs/$workload-$pair-$side.log
    [[ $idle == 0 ]] || sleep "$idle"
    if [[ $warm == 1 ]]; then
        "$other" --workload net-saturated --seed "$seed" --seconds 1 --trace 0 >/dev/null
    fi
    "$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$log" || status=$?
    if [[ $status != 0 ]] || grep -q 'FAILED' "$log"; then
        echo "ab.sh: $side run of pair $pair (seed $seed) failed, exit $status: $log" >&2
        bad=1
    fi
    awk -v side="$side" -v pair="$pair" -v seed="$seed" -v first="$first" -v OFS='\t' '
        /^[a-z][a-z0-9_.]* = / { print side, pair, seed, first, $1, $3 }
        match($0, /checks_failed = [0-9]+/) {
            print side, pair, seed, first, "checks_failed", substr($0, RSTART + 16, RLENGTH - 16) + 0
        }' "$log" >>"$rows"
}

pair=0
for seed in "$@"; do
    pair=$((pair + 1))
    if ((pair % 2 == 1)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$pair" "$seed" "${order%% *}"
    done
done

state="neither slept nor warmed before a run"
[[ $idle == 0 ]] || state="each run after ${idle} s of idleness"
[[ $warm == 0 ]] || state="each run right after a throw-away net-saturated run of the other side"
echo "\`$workload --seconds $seconds --trace $trace\`, seeds $*; $state; logs in $logs"
echo

# What built EXE: its EXE.commit, else its SHA-256.
built_from() {
    if [[ -s $1.commit ]]; then head -c 40 "$1.commit"; else echo "sha256:$(sha256sum <"$1" | cut -c1-16)"; fi
}
if [[ -n $record ]]; then
    mkdir -p "$record"
    aa=no
    [[ $(sha256sum <"$parent") != $(sha256sum <"$change") ]] || aa=yes
    {
        printf '# parent\t%s\n# change\t%s\n' "$(built_from "$parent")" "$(built_from "$change")"
        printf '# workload\t%s\n# seconds\t%s\n# trace\t%s\n' "$workload" "$seconds" "$trace"
        printf '# host state\t%s\n# A/A\t%s\n' "$state" "$aa"
        printf 'side\tpair\tseed\tfirst\tmetric\tvalue\n'
        cat "$rows"
    } >"$record/rows.tsv"
fi

awk -F'\t' -v trace="$trace" '
function fmt(v) {
    if (v == int(v) && v < 1e15) return sprintf("%d", v)
    if (v >= 1e5) return sprintf("%.0f", v)
    return sprintf("%.6g", v)
}
# Quantile q of the n values collected for (side, metric), linear between ranks.
function quantile(side, m, q,    n, i, j, t, a, pos, lo) {
    n = count[side, m]
    for (i = 1; i <= n; i++) a[i] = val[side, m, i]
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
    pos = 1 + (n - 1) * q
    lo = int(pos)
    if (lo >= n) return a[n]
    return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
# The best of the n values collected for (side, metric): the highest of
# `cycles_per_s`, the lowest of every other metric in the summary.
function best(side, m,    i, b) {
    b = val[side, m, 1]
    for (i = 2; i <= count[side, m]; i++)
        if (m == "cycles_per_s" ? val[side, m, i] > b : val[side, m, i] < b) b = val[side, m, i]
    return b
}
function listed(side, m,    i, s) {
    s = ""
    for (i = 1; i <= count[side, m]; i++) s = s (i > 1 ? " · " : "") fmt(val[side, m, i])
    return s
}
{
    side = $1; pair = $2; m = $5; v = $6
    if (pair > pairs) pairs = pair
    seed[pair] = $3; first[pair] = $4
    at[side, pair, m] = v
    val[side, m, ++count[side, m]] = v
    if (!(m in seen)) { seen[m] = 1; order[++metrics] = m }
}
END {
    print "| pair | seed | ran first | parent `cycles_per_s` | change `cycles_per_s` | ratio | parent `setup_s` | change `setup_s` | parent `peak_rss_kb` | change `peak_rss_kb` | parent `cpu_us_per_cycle` | change `cpu_us_per_cycle` |"
    print "|---|---|---|---|---|---|---|---|---|---|---|---|"
    for (p = 1; p <= pairs; p++) {
        pc = at["parent", p, "cycles_per_s"]; cc = at["change", p, "cycles_per_s"]
        printf "| %d | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n", p, seed[p], first[p],
            fmt(pc), fmt(cc), (pc > 0 ? sprintf("%.2f", cc / pc) : "—"),
            fmt(at["parent", p, "setup_s"]), fmt(at["change", p, "setup_s"]),
            fmt(at["parent", p, "peak_rss_kb"]), fmt(at["change", p, "peak_rss_kb"]),
            fmt(at["parent", p, "cpu_us_per_cycle"]), fmt(at["change", p, "cpu_us_per_cycle"])
    }
    print ""
    print "| metric | parent median (q1 – q3) | change median (q1 – q3) | change / parent | pairs where change is higher · lower · equal | parent best | change best |"
    print "|---|---|---|---|---|---|---|"
    split("cycles_per_s setup_s peak_rss_kb cpu_us_per_cycle failed_ratio checks_failed", heads, " ")
    for (h = 1; h <= 6; h++) {
        m = heads[h]
        if (!(m in seen)) continue
        hi = lo = eq = 0
        for (p = 1; p <= pairs; p++) {
            d = at["change", p, m] - at["parent", p, m]
            if (d > 0) hi++; else if (d < 0) lo++; else eq++
        }
        pm = quantile("parent", m, 0.5); cm = quantile("change", m, 0.5)
        printf "| `%s` | %s (%s – %s) | %s (%s – %s) | %s | %d · %d · %d | %s | %s |\n", m,
            fmt(pm), fmt(quantile("parent", m, 0.25)), fmt(quantile("parent", m, 0.75)),
            fmt(cm), fmt(quantile("change", m, 0.25)), fmt(quantile("change", m, 0.75)),
            (pm > 0 ? sprintf("%.3f", cm / pm) : "—"), hi, lo, eq,
            fmt(best("parent", m)), fmt(best("change", m))
    }
    if (trace != 1) exit
    print ""
    print "| metric | parent, every run | change, every run |"
    print "|---|---|---|"
    for (i = 1; i <= metrics; i++) {
        m = order[i]
        printf "| `%s` | %s | %s |\n", m, listed("parent", m), listed("change", m)
    }
}' "$rows"
exit $bad
