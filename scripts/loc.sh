#!/bin/sh
# Count the workspace's Rust lines the way CHANGES.md reports them:
# every line of every `.rs` file under `crates/*/src`, `src/` and `shims/`
# is production, except that a file's `#[cfg(test)] mod tests` block (by
# this repo's convention the last item of the file, so: from that attribute
# to the end of the file) and everything under a `tests/` directory is test.
#
#   scripts/loc.sh [CHECKOUT]     # default: the checkout this script is in
#
# Prints two lines, `production N` and `test N`. To compare two commits,
# run it on a checkout of each and subtract.
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/*/src crates/*/tests src tests shims -name '*.rs' -not -path '*/target/*' |
    LC_ALL=C sort |
    xargs awk '
        FNR == 1 {
            if (held) prod++            # a trailing #[cfg(test)] on some other item
            held = 0
            in_tests = (FILENAME ~ /(^|\/)tests\//)
        }
        in_tests { test++; next }
        held {
            held = 0
            if ($0 ~ /^[ \t]*(pub )?mod tests/) { in_tests = 1; test += 2; next }
            prod++
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
        { prod++ }
        END { if (held) prod++; printf "production %d\ntest %d\n", prod, test }
    '
