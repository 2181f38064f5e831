#!/usr/bin/env bash
# sizes.sh prints the four sizes a CHANGES.md row reports, for the working
# tree or for a commit:
#
#   scripts/sizes.sh [commit]
#
#   go       non-blank lines of non-test Go, outside cmd/docs-perf (the frozen
#            benchmark) and internal/crashtest (the test harness)
#   test     non-blank lines of _test.go files
#   words    words (wc -w) of docs/*.md, README.md and cmd/docs-server/README.md
#   harness  non-blank lines of internal/crashtest's non-test Go: the test
#            support only tests import, so test plus harness is all of it
#
# Without a commit it counts the files git tracks plus the untracked ones it
# does not ignore, as they are on disk; with one, the files of that commit.
set -euo pipefail
export LC_ALL=C # wc -w in the C locale: a word holds a printable ASCII byte
cd "$(dirname "$0")/.." || exit 2

rev=${1:-}
if [ -n "$rev" ]; then
  git rev-parse --verify -q "$rev^{commit}" >/dev/null || {
    echo "sizes.sh: no commit $rev" >&2
    exit 2
  }
  files() { git ls-tree -r --name-only "$rev"; }
  show() { git show "$rev:$1"; }
else
  # A file deleted but still in the index is not counted.
  files() { git ls-files --cached --others --exclude-standard | while IFS= read -r f; do [ -f "$f" ] && echo "$f"; done; }
  show() { cat "$1"; }
fi

go=0 test=0 words=0 harness=0
while IFS= read -r f; do
  case $f in
  *_test.go) test=$((test + $(show "$f" | grep -c '[^[:space:]]' || true))) ;;
  internal/crashtest/*.go) harness=$((harness + $(show "$f" | grep -c '[^[:space:]]' || true))) ;;
  cmd/docs-perf/* | internal/crashtest/*) ;;
  *.go) go=$((go + $(show "$f" | grep -c '[^[:space:]]' || true))) ;;
  esac
  case $f in
  docs/*/*) ;;
  docs/*.md | README.md | cmd/docs-server/README.md) words=$((words + $(show "$f" | wc -w))) ;;
  esac
done < <(files)
echo "go $go"
echo "test $test"
echo "words $words"
echo "harness $harness"
