#!/usr/bin/env bash
# Non-test library lines per crate: each `crates/*/src/**/*.rs` file counted
# up to its first column-0 `#[cfg(test)]` (a file without one counts in
# full), summed per crate and named by the crate's package name.
#
#   scripts/loc.sh            # one "<lines> <crate>" line per crate, then the total
#   scripts/loc.sh retention  # only crates whose directory name matches
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    dir=${dir%/}
    [[ -d $dir/src ]] || continue
    [[ $# -eq 0 || ${dir#crates/} == *"$1"* ]] || continue
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z \
        | xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
    printf '%7d %s\n' "$lines" "$name"
    total=$((total + lines))
done
printf '%7d total\n' "$total"
