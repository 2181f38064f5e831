#!/usr/bin/env bash
# named_tests.sh runs tests by name and fails unless every named test passed.
#
#   scripts/named_tests.sh [go test flags] packages... -- TestName...
#
# Everything before -- is handed to go test as given; the names after it
# become one -run '^(A|B|...)$' pattern, run with -v. The output is printed,
# and the script exits non-zero when go test fails or when a name has no
# top-level "--- PASS: <name> " line: a misspelled or renamed test matches
# nothing, which go test alone would report as a pass.
set -uo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ $# -lt 2 ] || [ ${#args[@]} -eq 0 ]; then
  echo "usage: $0 [go test flags] packages... -- TestName..." >&2
  exit 2
fi
shift
names=("$@")

pattern="^($(IFS='|'; echo "${names[*]}"))\$"
out=$(go test -v -run "$pattern" "${args[@]}" 2>&1)
status=$?
echo "$out"
for t in "${names[@]}"; do
  if ! grep -q "^--- PASS: $t " <<<"$out"; then
    echo "named test $t did not pass"
    status=1
  fi
done
exit $status
