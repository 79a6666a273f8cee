#!/usr/bin/env bash
# inlinecheck.sh — asserts that the compiler inlines Apply into the bulk
# route of every shipped program that has the optional ApplyAll delegate
# (core.BulkApplier; DESIGN.md §19): at the delegate's line,
# `go build -gcflags=-m` must report
#   inlining call to core.ApplyAll[...]
#   inlining call to <prog>.Apply
# i.e. the generic loop went into the delegate and the program's Apply went
# into the loop, so a SendAll costs one call per vertex and none per message.
#
# Results never depend on this: a toolchain that does not inline runs the
# same code through one call per message, at the speed of the engine's
# default route. It is a performance assertion, so it gates only where the
# benchmark's toolchain class runs — `make check` locally and the `stable`
# leg of CI's test job (go1.24.0 on the box the claim was measured on: all
# three programs inline, ApplyAll's inline cost 54 of 80). `oldstable` is
# not gated; it could not be tried offline (only go1.24.0 is installed, and
# this script downloads nothing).
#
# A program that gains the delegate joins by adding a "<file>:<type>" word.
set -euo pipefail

pkg=internal/algo/graphzalgo
programs="pagerank.go:prProgram bfs.go:bfsProgram cc.go:ccProgram"

cd "$(git rev-parse --show-toplevel)"
# -m's diagnostics are cached with the build and replayed on a cache hit.
out=$(go build -gcflags=-m "./$pkg" 2>&1) || { echo "$out" >&2; exit 1; }

fail=0
for entry in $programs; do
	file=${entry%%:*} prog=${entry##*:}
	line=$(grep -n 'core\.ApplyAll(' "$pkg/$file" | cut -d: -f1)
	if [ "$(wc -w <<<"$line")" -ne 1 ]; then
		echo "inlinecheck: $pkg/$file: want exactly one core.ApplyAll call (the delegate), found lines: ${line:-none}" >&2
		fail=1
		continue
	fi
	for callee in 'core\.ApplyAll\[.*' "$prog"'\.Apply'; do
		if ! grep -Eq "^$pkg/$file:$line:[0-9]+: inlining call to $callee\$" <<<"$out"; then
			echo "inlinecheck: $prog lost it under $(go version): no \"inlining call to ${callee//\\/}\" at $pkg/$file:$line" >&2
			fail=1
		fi
	done
done
[ "$fail" -eq 0 ] || exit 1
echo "inlinecheck: Apply inlined into ApplyAll for: $programs ($(go version))"
