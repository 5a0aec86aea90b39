#!/usr/bin/env bash
# Where one perfbench workload spends its CPU time, by function and by
# source file, from the SIGPROF sampler in tools/prof/.
#
#   tools/prof.sh WORKLOAD SECONDS
#
# Builds perfbench with line tables (CARGO_PROFILE_RELEASE_DEBUG=
# line-tables-only) in its own target directory, target/prof, and the
# sampler beside it; runs `perfbench --workload WORKLOAD --seed 1 --seconds
# SECONDS --trace 0` under it, in a fresh temporary directory that keeps
# the run's output and the sampler's files; then names every sampled PC:
#
#   * in perfbench, by `addr2line -i -f -C`: of a PC's inline chain, the
#     innermost frame in this repository's source (the innermost frame if
#     none is), so the standard library inlined into a repository function
#     counts toward that function;
#   * in libc and any other shared object, by its nearest dynamic symbol
#     (`nm -D`);
#   * in the vDSO, by the dynamic symbols of the image the sampler saved.
#
# A name taken from the nearest dynamic symbol is marked with a trailing
# `~` (`memmove~`): the PC may lie in an unexported neighbour. A PC below
# an object's first exported symbol (the vDSO's clock code, for one) is
# named after the object itself, `[vdso]` or `[libc.so.6]`.
#
# Prints the samples taken and the top shares by function, by file and
# by layer, the last from the module → layer map tools/prof/layers.tsv.
# The build touches only target/prof; perfbench/Cargo.lock is put back as
# it was.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    sed -n '2,29p' "$0" >&2
    exit 2
fi
workload=$1 seconds=$2
root=$(cd "$(dirname "$0")/.." && pwd)
target=$root/target/prof
mkdir -p "$target"

lock=$(mktemp)
cp "$root/perfbench/Cargo.lock" "$lock"
trap 'cp "$lock" "$root/perfbench/Cargo.lock"; rm -f "$lock"' EXIT
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml"
exe=$target/release/perfbench
cc -O2 -Wall -Wextra -shared -fPIC -o "$target/libprof.so" "$root/tools/prof/prof.c"

run=$(mktemp -d "${TMPDIR:-/tmp}/prof.XXXXXX")
(cd "$run" && LD_PRELOAD=$target/libprof.so "$exe" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 >run.log)
# The process with the most samples is perfbench itself.
pcs=$(ls -S "$run"/prof-*.pcs | head -n 1)
base=${pcs%.pcs}
total=$(($(stat -c %s "$pcs") / 8))
echo "\`$workload --seconds $seconds\`: $total samples; run output and samples in $run"
[[ $total -gt 0 ]] || exit 1

# One line per distinct PC: `count hex`.
od -An -v -tx8 -w8 "$pcs" | sort | uniq -c >"$run/counts"

# Each PC's mapping: `count object offset`, the offset from the object's
# load base (the start of its mapping at file offset 0).
awk '
function dec(h,    i, v) {
    v = 0
    h = tolower(h)
    for (i = 1; i <= length(h); i++) v = v * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1
    return v
}
FNR == NR {
    split($1, r, "-")
    if ($6 == "") next
    m++; lo[m] = dec(r[1]); hi[m] = dec(r[2]); path[m] = $6
    if (dec($3) == 0 && !(($6) in load)) load[$6] = lo[m]
    next
}
{
    pc = dec($2)
    for (i = 1; i <= m; i++) if (pc >= lo[i] && pc < hi[i]) break
    if (i > m) { print $1, "[unknown]", 0; next }
    b = (path[i] in load) ? load[path[i]] : lo[i]
    printf "%d %s %.0f\n", $1, path[i], pc - b
}' "$base.maps" "$run/counts" >"$run/located"

# `count function file`, one line per PC.
: >"$run/named"
# perfbench: the inline chains of every distinct offset at once.
awk -v exe="$exe" '$2 == exe { printf "%d 0x%x\n", $1, $3 }' "$run/located" >"$run/exe"
if [[ -s $run/exe ]]; then
    cut -d' ' -f2 "$run/exe" | addr2line -e "$exe" -a -i -f -C |
        awk -v root="$root/" '
        function flush() {
            if (addr == "") return
            if (pick == "") { pick = first; file = firstfile }
            gsub(/ /, "_", pick)
            print pick, file
        }
        function short(f) {
            sub(/:[0-9?]+( \(discriminator [0-9]+\))?$/, "", f)
            if (index(f, root) == 1) return substr(f, length(root) + 1)
            sub(/^\/rustc\/[0-9a-f]+\//, "", f)
            sub(/^.*\/\.cargo\/registry\/src\/[^\/]+\//, "", f)
            return f
        }
        /^0x[0-9a-f]+$/ { flush(); addr = $0; pick = first = ""; n = 0; next }
        {
            if (n % 2 == 0) fn = $0
            else {
                f = short($0)
                if (first == "") { first = fn; firstfile = f }
                if (pick == "" && index($0, root) == 1) { pick = fn; file = f }
            }
            n++
        }
        END { flush() }' >"$run/exe.names"
    paste -d' ' <(cut -d' ' -f1 "$run/exe") "$run/exe.names" >>"$run/named"
fi
# Any other object, and the vDSO: the nearest dynamic symbol at or below.
for object in $(awk -v exe="$exe" '$2 != exe { print $2 }' "$run/located" | sort -u); do
    case $object in
        "[unknown]") label="[unknown]" symbols= ;;
        "[vdso]") label="[vdso]" symbols=$base.vdso ;;
        *) label=$(basename "$object") symbols=$object ;;
    esac
    {
        if [[ -n $symbols && -r $symbols ]]; then
            nm -D --defined-only "$symbols" 2>/dev/null |
                awk 'NF == 3 && $2 ~ /[TtWwi]/ { print $1, "S", $3 }' |
                while read -r a s name; do printf '%d S %s\n' "0x$a" "$name"; done
        fi
        awk -v o="$object" '$2 == o { print $3, "P", $1 }' "$run/located"
    } | sort -n -k1,1 -k2,2r | awk -v label="$label" '
        $2 == "S" { name = $3; next }
        { print $3, (name != "" ? name "~" : label ~ /^\[/ ? label : "[" label "]"), label }' >>"$run/named"
done

share() {
    awk -v col="$1" -v total="$total" '{ s[$col] += $1 } END {
        for (k in s) printf "%d\t%5.1f %%\t%s\n", s[k], 100 * s[k] / total, k }' "$run/named" |
        sort -rn | head -n "$2" | cut -f2-
}
echo
echo "By function (top 25):"
share 2 25
echo "(~: the nearest exported symbol at or below the PC; it may be an unexported neighbour)"
echo
echo "By source file (top 15):"
share 3 15
echo
echo "By layer (tools/prof/layers.tsv):"
awk -v total="$total" '
FNR == NR {
    if ($0 ~ /^#/ || index($0, "\t") == 0) next
    n++; split($0, f, "\t"); pat[n] = f[1]; layer[n] = f[2]
    next
}
{
    name = ""
    fn = $2
    sub(/~$/, "", fn)
    sub(/@.*/, "", fn)
    for (i = 1; i <= n && name == ""; i++) {
        if (substr(pat[i], 1, 3) == "fn:") { if (fn == substr(pat[i], 4)) name = layer[i] }
        else if (index($3, pat[i]) == 1) name = layer[i]
    }
    if (name == "") {
        k = split($3, part, "/")
        name = "other: " (k > 1 ? part[1] "/" part[2] : $3)
    }
    s[name] += $1
}
END { for (k in s) printf "%d\t%5.1f %%\t%s\n", s[k], 100 * s[k] / total, k }' \
    "$root/tools/prof/layers.tsv" "$run/named" | sort -rn | cut -f2-
