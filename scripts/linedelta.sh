#!/bin/sh
# Prints lines added, removed and net between a git ref and the work
# tree (untracked files included) for non-test Go, Go tests and docs.
#
# Usage: scripts/linedelta.sh <base-ref>   (or: make linedelta BASE=<ref>)
set -eu
base=${1:?usage: linedelta.sh <base-ref>}

count() {
	label=$1
	shift
	set -- $({
		git diff --numstat "$base" -- "$@"
		git ls-files --others --exclude-standard -- "$@" | while read -r f; do
			printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
		done
	} | awk '{a += $1; r += $2} END {print a + 0, r + 0}')
	printf '%-14s +%-6d -%-6d net %+d\n' "$label" "$1" "$2" "$(($1 - $2))"
}

count "go (non-test)" ':(glob)**/*.go' ':(exclude,glob)**/*_test.go'
count "go tests" ':(glob)**/*_test.go'
count "docs" ':(glob)**/*.md'
