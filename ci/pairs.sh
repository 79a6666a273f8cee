#!/usr/bin/env bash
# Alternating base/change pairs of repo-benchmark workloads — the procedure
# ROADMAP.md requires of every performance claim, and of its no-regression
# side on the workloads the claim is not about.
#
#   ci/pairs.sh [--record FILE] [--layout N] <base-ref> <workload[,workload...]|all> [pairs=10] [seed=1]
#
# <base-ref> is checked out into a throwaway git worktree under
# .bench_build/ (or, if it names a directory, that checkout is used as the
# base as it stands); the change is the working tree. `all` is every
# workload BENCHMARK.json declares. Workloads run one after the other; each
# pair runs
#   bash benchmark/run.sh --workload W --seed S --seconds 15 --trace 0
# once per side, base first in odd pairs and change first in even ones.
# Prints one block per workload: per side, every value of the timing metrics
# with median and quartiles, the change's wins/ties on each, and whether the
# three exact IO counts are identical in every run. The timing metrics
# include the two absolute medians behind the ratios, which the harness
# prints ungated (`not gated: median op|job X s … median yardstick Y s`):
# op_s, the workload's op (a batch op or a served job), and yardstick_s, the
# in-memory `plain` run it is divided by. The yardstick moves on its own
# from run to run, so a ratio's move is read as op and yardstick apart.
# With --record FILE the same summary is appended to FILE (BENCH_e2e.json,
# the committed trajectory) as one JSON row per workload: head, base, seed,
# pair count, both sides' median and quartiles of the six end-to-end
# metrics and the two absolute medians, wins.
# With --layout N both sides are built with -ldflags=-randlayout=N (passed
# to benchmark/run.sh's go build through GOFLAGS): the same function
# layout seed on both, so a move that layout alone makes can be told from
# the code's by repeating a series under a few N. The layout is printed in
# each workload's header and recorded in its row ("layout": N, or null for
# the linker's default order).
# No network; nothing else is written outside the worktree and each side's
# .bench_build/.
set -euo pipefail

record= layout=
while :; do
	case "${1:-}" in
	--record)
		[ $# -ge 2 ] || { echo "pairs: --record needs a file" >&2; exit 2; }
		record=$2
		shift 2
		;;
	--layout)
		[[ "${2:-}" =~ ^[0-9]+$ ]] || { echo "pairs: --layout needs a number" >&2; exit 2; }
		layout=$2
		shift 2
		;;
	*) break ;;
	esac
done
[ $# -ge 2 ] || { sed -n '2,34p' "$0" >&2; exit 2; }
if [ -n "$layout" ]; then
	export GOFLAGS="${GOFLAGS:+$GOFLAGS }-ldflags=-randlayout=$layout"
fi
base_ref=$1 workloads=$2 pairs=${3:-10} seed=${4:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ "$workloads" = all ]; then
	workloads=$(awk '/"workloads": \[/ { on = 1 } on && /"name":/ { gsub(/[",]/, "", $2); print $2 } on && /^  \],?$/ { exit }' BENCHMARK.json | paste -sd, -)
fi
case "$record" in "" | /*) ;; *) record="$root/$record" ;; esac

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
base_commit=$(git -C "$base" rev-parse --short HEAD 2>/dev/null || echo "not a checkout")
head_commit=$(git describe --always --dirty)

timing="run_vs_plain jobs_per_plain_run setup_s op_s yardstick_s"
exact="io_read_b_per_edge io_write_b_per_edge stored_b_per_edge"
higher_is_better=" jobs_per_plain_run "

# run <side> <dir>: one benchmark run; appends each metric to $res/<side>.<metric>.
run() {
	local side=$1 dir=$2 out line m v
	out=$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 0 2>"$res/$side.stderr")
	line=$(tail -n 1 <<<"$out")
	for m in $timing $exact failed; do
		case $m in
		failed) v=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line") ;;
		op_s) v=$(sed -n 's/.*not gated: median \(op\|job\) \([^ ]*\) s.*/\2/p' <<<"$out") ;;
		yardstick_s) v=$(sed -n 's/.*not gated: .*median yardstick \([^ ]*\) s.*/\1/p' <<<"$out") ;;
		*) v=$(sed -n 's/.*"'"$m"'":{"value":\([^,}]*\).*/\1/p' <<<"$line") ;;
		esac
		[ -n "$v" ] || { echo "pairs: $side run printed no $m; last stderr:" >&2; tail -n 5 "$res/$side.stderr" >&2; exit 1; }
		echo "$v" >>"$res/$side.$m"
	done
	printf '  %-6s run_vs_plain %s  op_s %s  yardstick_s %s  setup_s %s  failed %s\n' "$side" \
		"$(tail -n 1 "$res/$side.run_vs_plain")" "$(tail -n 1 "$res/$side.op_s")" "$(tail -n 1 "$res/$side.yardstick_s")" \
		"$(tail -n 1 "$res/$side.setup_s")" "$(tail -n 1 "$res/$side.failed")"
}

# quartiles <file> <format>: median, first and third quartile by linear
# interpolation, printed through the three-%s <format>.
quartiles() {
	sort -g "$1" | awk -v fmt="$2" '{ v[NR] = $1 } END {
		split("0.5 0.25 0.75", q, " ")
		for (k = 1; k <= 3; k++) { h = (NR - 1) * q[k] + 1; f = int(h); r[k] = sprintf("%.6g", v[f] + (h - f) * ((f < NR ? v[f + 1] : v[f]) - v[f])) }
		printf fmt, r[1], r[2], r[3] }'
}

# wins <metric> <format>: pairs the change won and tied, printed through the
# three-%d <format> (wins, pairs, ties).
wins() {
	local better='<'
	case "$higher_is_better" in *" $1 "*) better='>' ;; esac
	paste "$res/base.$1" "$res/change.$1" | awk -v op="$better" -v fmt="$2" '
		{ if ($2 == $1) ties++; else if ((op == "<") == ($2 < $1)) wins++ }
		END { printf fmt, wins, NR, ties }'
}

total() { awk '{ n += $1 } END { print n + 0 }' "$1"; }

# append_row <json>: adds one row to the JSON array in $record, one row a line.
append_row() {
	if [ -s "$record" ]; then
		sed -i -e '$d' "$record"
		sed -i -e '$s/$/,/' "$record"
	else
		echo '[' >"$record"
	fi
	printf '%s\n]\n' "$1" >>"$record"
}

for workload in ${workloads//,/ }; do
	rm -f "$res"/base.* "$res"/change.*
	echo "pairs: $workload seed $seed, $pairs pairs, base $base_ref ($base_commit) vs working tree ($head_commit), layout ${layout:+-randlayout=}${layout:-default}"
	for i in $(seq 1 "$pairs"); do
		echo "pair $i"
		if [ $((i % 2)) -eq 1 ]; then
			run base "$base"; run change "$root"
		else
			run change "$root"; run base "$base"
		fi
	done

	echo
	for m in $timing; do
		echo "$m"
		for side in base change; do
			printf '  %-6s %s: %s\n' "$side" "$(quartiles "$res/$side.$m" '%s [%s, %s]')" "$(tr '\n' ' ' <"$res/$side.$m")"
		done
		wins "$m" '  change better in %d/%d pairs, %d ties\n'
	done
	echo "exact counts"
	for m in $exact; do
		if [ "$(sort -u "$res/base.$m" "$res/change.$m" | wc -l)" -eq 1 ]; then
			printf '  %-20s identical in all runs: %s\n' "$m" "$(head -n 1 "$res/base.$m")"
		else
			printf '  %-20s DIFFERS: base %s | change %s\n' "$m" "$(sort -u "$res/base.$m" | tr '\n' ' ')" "$(sort -u "$res/change.$m" | tr '\n' ' ')"
		fi
	done
	printf '  failed ops: base %s, change %s\n\n' "$(total "$res/base.failed")" "$(total "$res/change.failed")"

	if [ -n "$record" ]; then
		metrics=
		for m in $timing $exact; do
			metrics+=$(printf '%s"%s":{"base":%s,"change":%s,%s}' "${metrics:+,}" "$m" \
				"$(quartiles "$res/base.$m" '{"median":%s,"q1":%s,"q3":%s}')" \
				"$(quartiles "$res/change.$m" '{"median":%s,"q1":%s,"q3":%s}')" \
				"$(wins "$m" '"wins":%d,"of":%d,"ties":%d')")
		done
		append_row "$(printf '{"date":"%s","workload":"%s","head":"%s","base":"%s","seed":%s,"pairs":%s,"layout":%s,"failed":{"base":%s,"change":%s},"metrics":{%s}}' \
			"$(date -u +%F)" "$workload" "$head_commit" "$base_commit" "$seed" "$pairs" "${layout:-null}" \
			"$(total "$res/base.failed")" "$(total "$res/change.failed")" "$metrics")"
		echo "recorded $workload in ${record#"$root"/}"
		echo
	fi
done
