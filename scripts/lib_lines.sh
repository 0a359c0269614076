#!/usr/bin/env sh
# Prints the size metric ROADMAP.md tracks: non-test library lines.
#
# Every `src/*.rs` file of the workspace is counted up to and including
# its first line that starts with `#[cfg(test)]`; a file without a test
# module counts its length plus one. (The plus one is how the ROADMAP
# figures have always been taken — a split on the test-module marker —
# so the numbers stay comparable across changes.) Vendored shims
# (`crates/vendor/`), binaries (`src/bin/`) and the standalone
# `perfbench/` harness are not library code and are skipped.
#
# Run from anywhere: `sh scripts/lib_lines.sh`.
set -eu
cd "$(dirname "$0")/.."
find src crates -path '*/src/*' -name '*.rs' \
    -not -path 'crates/vendor/*' -not -path '*/bin/*' -print | sort |
    xargs awk '
        FNR == 1 { counting = 1; total++ }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { total++ }
        END { print total }
    '
