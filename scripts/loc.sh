#!/usr/bin/env bash
# Non-test, non-blank lines of Rust source, per file and in total: the
# line count every simplicity change quotes. Test code (tests/ directories
# and every #[cfg(test)] item, as scripts/nontest.awk reads it) is left out.
#
#   scripts/loc.sh [PATH...]    (default: crates)
#
# A directory counts every .rs file under it outside tests/ directories.
set -euo pipefail
cd "$(dirname "$0")/.."

(($# > 0)) || set -- crates
files=$(for p in "$@"; do
    if [[ -d $p ]]; then
        find "$p" -path '*/tests' -prune -o -name '*.rs' -print
    else
        echo "$p"
    fi
done | sort)
[[ -n $files ]] || { echo "loc.sh: no .rs files under $*" >&2; exit 1; }
# shellcheck disable=SC2086
awk -f scripts/nontest.awk $files | awk '
    {
        file = $0; sub(/:[0-9]+: .*/, "", file)
        text = $0; sub(/^[^:]*:[0-9]+: /, "", text)
        if (text ~ /[^[:space:]]/) { n[file]++; total++ }
        if (!(file in seen)) { seen[file] = 1; order[++k] = file }
    }
    END {
        for (i = 1; i <= k; i++) printf "%7d %s\n", n[order[i]], order[i]
        printf "%7d total\n", total
    }'
