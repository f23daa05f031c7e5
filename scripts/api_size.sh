#!/bin/sh
# Size of the bx-core and bx-lint library code: per file and in total,
# the non-test lines (every line above the `#[cfg(test)]` that opens the
# file's `mod tests`) and the public items among them (lines matching
# `^\s*pub (fn|struct|enum|trait|type|const|static|mod) `).
#
# With --list, print the counted items instead, one sorted line each:
# the file, the type of the enclosing `impl` block where there is one,
# the item's kind and its name. `API.txt` at the repository root holds
# that list, and CI fails when the two differ.
# Run from anywhere inside the repository: scripts/api_size.sh [--list]
case "$1" in
  '') mode=table ;;
  --list) mode=list ;;
  *) echo "usage: $0 [--list]" >&2; exit 2 ;;
esac
cd "$(dirname "$0")/.." || exit 1
find crates/core/src crates/lint/src -name '*.rs' | sort | xargs awk -v mode="$mode" '
  FNR == 1 { file = FILENAME; order[++n] = file; in_test = 0; held = 0; impl = "" }
  in_test { next }
  held && /^mod tests/ { in_test = 1; held = 0; next }
  held { count(file, held_line); held = 0 }
  /^#\[cfg\(test\)\]/ { held = 1; held_line = $0; next }
  { count(file, $0) }
  function count(f, line) {
    lines[f]++
    if (line ~ /^impl[ <]/) impl = impl_type(line)
    else if (line ~ /^}/) impl = ""
    if (line ~ /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod) /) {
      items[f]++
      if (mode == "list") print_item(f, line)
    }
  }
  # "impl<C: Codec> SegmentedLog<C> {" -> "SegmentedLog"; for a trait
  # impl, the type after "for".
  function impl_type(line,   t, i) {
    t = strip_generics(substr(line, 5))
    i = index(t, " for ")
    if (i) t = substr(t, i + 5)
    sub(/^ +/, "", t)
    sub(/[ {].*$/, "", t)
    if (t == "") t = "?"
    return t
  }
  function strip_generics(s,   out, depth, i, c) {
    gsub(/->/, "", s)
    out = ""; depth = 0
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "<") depth++
      else if (c == ">") depth--
      else if (depth == 0) out = out c
    }
    return out
  }
  function print_item(f, line,   rest, kind, name) {
    rest = line
    sub(/^[ \t]*pub /, "", rest)
    kind = rest
    sub(/ .*$/, "", kind)
    name = substr(rest, length(kind) + 2)
    match(name, /^[A-Za-z_][A-Za-z0-9_]*/)
    name = substr(name, 1, RLENGTH)
    if (line ~ /^[ \t]/ && impl != "") print f, impl, kind, name
    else print f, kind, name
  }
  END {
    if (mode == "list") exit
    printf "%7s %6s  %s\n", "lines", "pub", "file"
    for (i = 1; i <= n; i++) {
      f = order[i]; tl += lines[f]; ti += items[f]
      printf "%7d %6d  %s\n", lines[f], items[f], f
    }
    printf "%7d %6d  total\n", tl, ti
  }' | if [ "$mode" = list ]; then LC_ALL=C sort; else cat; fi
