#!/usr/bin/env bash
# Non-test lines per crate and for the whole of `crates/`.
#
# Each `crates/*/src/**/*.rs` file counts up to (not including) its first
# column-0 `#[cfg(test)]`; `tests/` and `benches/` are outside `src/` and
# do not count. Crates print under their package name.
#
#   tools/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-16s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-16s %6d\n' "crates/" "$total"
