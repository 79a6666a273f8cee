#!/usr/bin/env bash
# Byte-identity of the modeled tables between a base and the working tree:
# the check a change that must not move a modeled number (a refactor of
# the engines, the converters or the cost model's callers) runs.
#
#   ci/tables.sh <base-ref|base-checkout-dir> [experiments]
#
# <base-ref> is checked out into a throwaway git worktree under
# .bench_build/ (or, if it names a directory, that checkout is used as the
# base as it stands); the change is the working tree. Both sides' graphz-bench
# is built from source and run with -experiments (default: every experiment
# this box's memory runs, below), and the two outputs are compared with diff
# after dropping only the wall-clock lines ("[<id> finished in …]" and "all
# experiments finished in …"). Any other difference fails the script (exit
# 1) and is printed. Each side takes ~20 minutes at the default list; nothing
# is written outside the worktree and .bench_build/.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,16p' "$0" >&2; exit 2; }
base_ref=$1
experiments=${2:-t1,t2,t8,t9,t10,t11,t12,f2,f6s,f6m,f7,t14,f9,pc}

root=$(git rev-parse --show-toplevel)
cd "$root"
mkdir -p "$root/.bench_build"
res=$(mktemp -d "$root/.bench_build/tables.XXXXXX")
worktree=
cleanup() {
	rm -rf "$res"
	[ -z "$worktree" ] || git worktree remove --force "$worktree"
}
trap cleanup EXIT
if [ -d "$base_ref" ]; then
	base=$(cd "$base_ref" && pwd)
else
	base="$root/.bench_build/tables-base"
	git worktree remove --force "$base" 2>/dev/null || true
	git worktree add --detach "$base" "$base_ref" >/dev/null
	worktree=$base
fi

# tables <side> <dir>: builds <dir>'s graphz-bench, runs the experiments and
# keeps the output without its wall-clock lines in $res/<side>.
tables() {
	local side=$1 dir=$2
	(cd "$dir" && go build -o "$res/graphz-bench.$side" ./cmd/graphz-bench)
	echo "tables: $side ($dir): graphz-bench -experiments $experiments" >&2
	"$res/graphz-bench.$side" -experiments "$experiments" >"$res/$side.raw"
	grep -v -e '^\[.* finished in .*\]$' -e '^all experiments finished in ' "$res/$side.raw" >"$res/$side" || true
}
tables base "$base"
tables change "$root"
if diff -u "$res/base" "$res/change"; then
	echo "tables: identical ($experiments; $(wc -l <"$res/change") lines)"
else
	echo "tables: the modeled tables differ (base $base, change $root)" >&2
	exit 1
fi
