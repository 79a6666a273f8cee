#!/usr/bin/env bash
# Alternating base/change pairs of one repo-benchmark workload — the
# procedure ROADMAP.md requires of every performance claim.
#
#   ci/pairs.sh <base-ref> <workload> [pairs=10] [seed=1]
#
# <base-ref> is checked out into a throwaway git worktree under
# .bench_build/ (or, if it names a directory, that checkout is used as the
# base as it stands); the change is the working tree. Each pair runs
#   bash benchmark/run.sh --workload W --seed S --seconds 15 --trace 0
# once per side, base first in odd pairs and change first in even ones.
# Prints, per side, every value of the timing metrics with median and
# quartiles, the change's wins/ties on each, and whether the three exact IO
# counts are identical in every run. No network; nothing is written outside
# the worktree and each side's .bench_build/.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,15p' "$0" >&2; exit 2; }
base_ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
mkdir -p "$root/.bench_build"
res=$(mktemp -d "$root/.bench_build/pairs.XXXXXX")
worktree=
cleanup() {
	rm -rf "$res"
	[ -z "$worktree" ] || git worktree remove --force "$worktree"
}
trap cleanup EXIT
if [ -d "$base_ref" ]; then
	base=$(cd "$base_ref" && pwd)
else
	base="$root/.bench_build/pairs-base"
	git worktree remove --force "$base" 2>/dev/null || true
	git worktree add --detach "$base" "$base_ref" >/dev/null
	worktree=$base
fi

timing="run_vs_plain jobs_per_plain_run setup_s"
exact="io_read_b_per_edge io_write_b_per_edge stored_b_per_edge"
higher_is_better=" jobs_per_plain_run "

# run <side> <dir>: one benchmark run; appends each metric to $res/<side>.<metric>.
run() {
	local side=$1 dir=$2 line m v
	line=$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 0 2>"$res/$side.stderr" | tail -n 1)
	for m in $timing $exact failed; do
		if [ "$m" = failed ]; then
			v=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")
		else
			v=$(sed -n 's/.*"'"$m"'":{"value":\([^,}]*\).*/\1/p' <<<"$line")
		fi
		[ -n "$v" ] || { echo "pairs: $side run printed no $m; last stderr:" >&2; tail -n 5 "$res/$side.stderr" >&2; exit 1; }
		echo "$v" >>"$res/$side.$m"
	done
	printf '  %-6s run_vs_plain %s  setup_s %s  failed %s\n' "$side" \
		"$(tail -n 1 "$res/$side.run_vs_plain")" "$(tail -n 1 "$res/$side.setup_s")" "$(tail -n 1 "$res/$side.failed")"
}

echo "pairs: $workload seed $seed, $pairs pairs, base $base_ref ($(git -C "$base" rev-parse --short HEAD 2>/dev/null || echo "not a checkout")) vs working tree"
for i in $(seq 1 "$pairs"); do
	echo "pair $i"
	if [ $((i % 2)) -eq 1 ]; then
		run base "$base"; run change "$root"
	else
		run change "$root"; run base "$base"
	fi
done

# quartiles <file>: "median [q1, q3]" by linear interpolation.
quartiles() {
	sort -g "$1" | awk '{ v[NR] = $1 } END {
		split("0.5 0.25 0.75", q, " ")
		for (k = 1; k <= 3; k++) { h = (NR - 1) * q[k] + 1; f = int(h); r[k] = v[f] + (h - f) * ((f < NR ? v[f + 1] : v[f]) - v[f]) }
		printf "%.4g [%.4g, %.4g]", r[1], r[2], r[3] }'
}

echo
for m in $timing; do
	echo "$m"
	for side in base change; do
		printf '  %-6s %s: %s\n' "$side" "$(quartiles "$res/$side.$m")" "$(tr '\n' ' ' <"$res/$side.$m")"
	done
	better='<'
	case "$higher_is_better" in *" $m "*) better='>' ;; esac
	paste "$res/base.$m" "$res/change.$m" | awk -v op="$better" '
		{ if ($2 == $1) ties++; else if ((op == "<") == ($2 < $1)) wins++ }
		END { printf "  change better in %d/%d pairs, %d ties\n", wins, NR, ties }'
done
echo "exact counts"
for m in $exact; do
	if [ "$(sort -u "$res/base.$m" "$res/change.$m" | wc -l)" -eq 1 ]; then
		printf '  %-20s identical in all runs: %s\n' "$m" "$(head -n 1 "$res/base.$m")"
	else
		printf '  %-20s DIFFERS: base %s | change %s\n' "$m" "$(sort -u "$res/base.$m" | tr '\n' ' ')" "$(sort -u "$res/change.$m" | tr '\n' ' ')"
	fi
done
printf '  failed ops: base %s, change %s\n' "$(awk '{ n += $1 } END { print n }' "$res/base.failed")" "$(awk '{ n += $1 } END { print n }' "$res/change.failed")"
