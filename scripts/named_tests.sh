#!/usr/bin/env bash
# named_tests.sh runs the contract tests of one CI mode by name and fails
# unless every one of them passed.
#
#   scripts/named_tests.sh plain|race|race-120s|race-x10|fuzz
#
# The names come from the table "Where the contracts are pinned" in
# docs/architecture.md. A row's Test(s) cell names tests and fuzz targets,
# each in its own code span, and its CI cell is the mode they run in:
#
#   plain      go test -count=1 (the guards that skip under -race)
#   race       go test -race -count=1
#   race-120s  go test -race -count=1 -timeout 120s (a deadlock fails the run)
#   race-x10   go test -race -count=10
#   fuzz       every fuzz target the table names, fuzzed 10 s each
#
# A name runs in every package whose _test.go files declare it, so the table
# names no package; TestX* stands for every test declared with the prefix
# TestX and must match one at least. The script exits non-zero when go test
# fails, when a name is declared nowhere, when a row naming tests has no
# mode, or when a (package, name) pair prints no top-level
# "--- PASS: <name> " line: a renamed test matches nothing and a skipped one
# prints SKIP, and go test alone would report either as a pass.
set -uo pipefail
cd "$(dirname "$0")/.." || exit 2

mode=${1:-}
case $mode in
plain) flags=(-count=1) ;;
race) flags=(-race -count=1) ;;
race-120s) flags=(-race -count=1 -timeout 120s) ;;
race-x10) flags=(-race -count=10) ;;
fuzz) flags=(-fuzztime=10s) ;;
*)
  echo "usage: $0 plain|race|race-120s|race-x10|fuzz" >&2
  exit 2
  ;;
esac

# "mode name" for every name in a row of the table.
rows=$(awk -F'|' '
  /^## / { table = ($0 == "## Where the contracts are pinned"); next }
  !table || !/^\| / || /^\| Contract \|/ { next }
  {
    cell = $3; m = $4; gsub(/^ +| +$/, "", m); n = 0; rows++
    while (match(cell, /`(Test|Fuzz)[A-Za-z0-9_]*\*?`/)) {
      print m, substr(cell, RSTART + 1, RLENGTH - 2); n++
      cell = substr(cell, RSTART + RLENGTH)
    }
    if (n && m !~ /^(plain|race|race-120s|race-x10)$/) {
      printf "docs/architecture.md:%d: a row naming tests has CI mode \"%s\"\n", NR, m > "/dev/stderr"
      bad = 1
    }
  }
  END { if (!rows) print "docs/architecture.md: no contract table" > "/dev/stderr"; exit bad || !rows }
' docs/architecture.md) || exit 1
if [ "$mode" = fuzz ]; then
  names=$(awk '$2 ~ /^Fuzz/ { print $2 }' <<<"$rows" | sort -u)
else
  names=$(awk -v m="$mode" '$1 == m { print $2 }' <<<"$rows" | sort -u)
fi

# "package name" for every test and fuzz target the module declares.
decls=$(go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do
  for f in "$dir"/*_test.go; do
    [ -e "$f" ] && awk -v p="$pkg" 'match($0, /^func (Test|Fuzz)[A-Za-z0-9_]*\(/) { print p, substr($0, 6, RLENGTH - 6) }' "$f"
  done
done)

# "package name" for every table name, wildcards expanded.
want=$(awk '
  NR == FNR { pkg[NR] = $1; decl[NR] = $2; n = NR; next }
  {
    found = 0
    for (i = 1; i <= n; i++) {
      hit = /\*$/ ? index(decl[i], substr($0, 1, length($0) - 1)) == 1 : decl[i] == $0
      if (hit) { print pkg[i], decl[i]; found = 1 }
    }
    if (!found) { print "named test " $0 " is declared in no _test.go" > "/dev/stderr"; bad = 1 }
  }
  END { exit bad }
' <(echo "$decls") <(echo "$names") | sort -u)
status=$?
if [ -z "$want" ]; then
  echo "the contract table names no test for mode $mode" >&2
  exit 1
fi

# run [go test args...] runs go test -v, printing its output as it goes and
# keeping it in $log.
log=$(mktemp)
trap 'rm -f "$log"' EXIT
run() {
  go test -v "${flags[@]}" "$@" </dev/null 2>&1 | tee -a "$log"
  [ "${PIPESTATUS[0]}" -eq 0 ] || status=1
}
if [ "$mode" = fuzz ]; then
  while read -r pkg name; do
    run -run "^$name\$" -fuzz "^$name\$" "$pkg"
  done <<<"$want"
else
  run -run "^($(cut -d' ' -f2 <<<"$want" | sort -u | paste -sd'|'))\$" $(cut -d' ' -f1 <<<"$want" | sort -u)
fi
passed=$(awk '/^--- PASS: / { p[$3] = 1 } /^(ok|FAIL)[ \t]/ && NF >= 2 { for (t in p) print $2, t; split("", p) }' "$log" | sort -u)
missing=$(comm -23 <(echo "$want") <(echo "$passed"))
if [ -n "$missing" ]; then
  while read -r pkg name; do echo "named test $name ($pkg) did not pass"; done <<<"$missing"
  status=1
fi
exit $status
