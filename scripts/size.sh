#!/usr/bin/env bash
# Size: the counts a PR reports in CHANGES.md, taken from the working tree so
# they can be re-derived from any commit — Go lines (wc -l, comments and blank
# lines included) outside benchmark/, non-test and test, for the repository,
# per internal/* package and for the collective facade; then every
# command-line flag declared under cmd/, and the number of entries of the
# public surface (testdata/api.golden, one line per name).
set -euo pipefail
cd "$(dirname "$0")/.."

# lines src|test DIR: total lines of DIR's non-test or test .go files.
lines() {
  local match=(-name '*.go' ! -name '*_test.go')
  [ "$1" = test ] && match=(-name '*_test.go')
  find "$2" -path ./benchmark -prune -o -type f "${match[@]}" -print0 | xargs -0 -r cat | wc -l
}

printf '%-24s %9s %9s\n' 'Go lines' non-test test
for d in . internal/*/ collective; do
  printf '%-24s %9d %9d\n' "${d%/}" "$(lines src "$d")" "$(lines test "$d")"
done

echo
echo 'flags under cmd/'
grep -rhoE --include='*.go' --exclude='*_test.go' 'flag\.[A-Z][A-Za-z0-9]*\("[^"]+"' cmd |
  sed -E 's/.*\("([^"]+)"/-\1/' | sort | paste -sd' ' -

echo
printf 'public surface entries (testdata/api.golden): %d\n' "$(wc -l < testdata/api.golden)"
