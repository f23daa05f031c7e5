#!/bin/sh
# Size of the bx-core and bx-lint library code: per file and in total,
# the non-test lines (every line above the `#[cfg(test)]` that opens the
# file's `mod tests`) and the public items among them (lines matching
# `^\s*pub (fn|struct|enum|trait|type|const|static|mod) `).
# Run from anywhere inside the repository: scripts/api_size.sh
cd "$(dirname "$0")/.." || exit 1
find crates/core/src crates/lint/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { file = FILENAME; order[++n] = file; in_test = 0; held = 0 }
  in_test { next }
  held && /^mod tests/ { in_test = 1; held = 0; next }
  held { count(file, held_line); held = 0 }
  /^#\[cfg\(test\)\]/ { held = 1; held_line = $0; next }
  { count(file, $0) }
  function count(f, line) {
    lines[f]++
    if (line ~ /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod) /) items[f]++
  }
  END {
    printf "%7s %6s  %s\n", "lines", "pub", "file"
    for (i = 1; i <= n; i++) {
      f = order[i]; tl += lines[f]; ti += items[f]
      printf "%7d %6d  %s\n", lines[f], items[f], f
    }
    printf "%7d %6d  total\n", tl, ti
  }'
