#!/usr/bin/env bash
# inlinecheck.sh — asserts that the compiler inlines Apply into the bulk
# route of every shipped program that has the optional ApplyAll delegate
# (core.BulkApplier; DESIGN.md §19) or its per-edge twin ApplyEach
# (core.EachApplier): at the delegate's line, `go build -gcflags=-m` must
# report
#   inlining call to core.ApplyAll[...]   (or core.ApplyEach[...])
#   inlining call to <prog>.Apply
#   inlining call to core.(*Frontier).set
# i.e. the generic loop — with Apply's report and the mark it makes under
# selective scheduling (DESIGN.md §9) — went into the delegate, and the
# program's Apply and the bitmap's set went into the loop, so a SendAll or a
# SendEach costs one call per vertex and none per message or mark. With the
# mark the loops cost 76 and 80 of the inliner's 80 under go1.24.0 (the
# summary's one-byte store keeps set at 20): the drain's ApplyRecords, which
# has a second closure to call, would cost 108, so it has no mark and none
# is looked for there.
#
# Results never depend on this: a toolchain that does not inline runs the
# same code through one call per message, at the speed of the engine's
# default route. It is a performance assertion, so it gates only where the
# benchmark's toolchain class runs — `make check` locally and the `stable`
# leg of CI's test job (go1.24.0 on the box the claim was measured on: all
# three programs inline). `oldstable` is
# not gated; it could not be tried offline (only go1.24.0 is installed, and
# this script downloads nothing).
#
# The programs and their delegates are read from the source: every method
# `func (p <type>) ApplyAll|ApplyEach|UpdateRun|ApplyRecords(` that a
# non-test file of the package defines is checked, so a program joins by
# defining one, and no delegate can be added or kept without being held.
#
# The same programs' run delegate (core.RunUpdater, DESIGN.md §14) is held
# at the line of its one core.UpdateRun call:
#   inlining call to core.UpdateRun[...]
#   inlining call to <prog>.UpdateRun.func1   (the closure literal)
# so a degree run costs the Worker one call, and each of its vertices one
# direct call to Update, not an interface call. A method value
# (core.UpdateRun(..., p.Update)) compiles but leaves no func1 to inline.
#
# A program that declares core.FrontierSafe (InitialFrontier) is scheduled
# selectively on every run but one pinned by Options.StreamAdjacency, and a
# selective pass never takes the run loop: its run delegate would serve that
# pinned run alone, which no benchmark workload times (DESIGN.md §5). So a
# shipped program that defines UpdateRun beside InitialFrontier fails,
# naming the file.
#
# The same programs' drain delegate (core.RecordApplier, DESIGN.md §17)
# is held the same way: at the line of its one core.ApplyRecords call,
#   inlining call to core.ApplyRecords[...]
#   inlining call to <prog>.Apply
#   inlining call to graph.<codec>.Decode   (the codec that line names,
#                                            through the program's alias)
# so the drain costs no call per buffered record. And the bulk form of the
# two pair codecs (graph.U32PairCodec, graph.F32PairCodec) must inline its
# field codecs: at the loop line of each EncodeAll and DecodeAll in
# internal/graph/pair.go, an "inlining call to <field codec>.Encode|Decode",
# so a partition's states load and store with one call, not one per field.
#
# The same build must also report, at the bitmap calls inside the Worker loop
# (`updateRuns` in internal/core/engine.go, DESIGN.md §9),
#   inlining call to core.(*Frontier).nextSet | .clear | .set
# so a selective iteration pays no call per scheduled vertex for its bitmap —
# set and clear keep the summary byte too (inline costs 20 and 30 of 80
# under go1.24.0, nextSet 63) — and, at the nextSet calls of the planner's
# marking loop (`selPlanner.plan`) and of `runBuilder.appendActive` in
# internal/core/activeset.go, which are core's own code and so reported
# unqualified,
#   inlining call to (*Frontier).nextSet
# so planning walks the set bits with no call per bit beyond the walk's own.
#
# Send is SendAll over one destination (DESIGN.md §17): at every ctx.Send(
# call in a non-test file of the package and in internal/core/emulate.go
# (the Section IV-E emulation, instantiated by examples/emulation) the
# build must report
#   inlining call to core.(*Context[...]).Send
# so a program that picks its destinations pays the one bound route call a
# message, as SendAll pays it a vertex, and no call to Send itself.
#
# And at the partitionOf call inside `scatter` (internal/core/engine.go,
# DESIGN.md §17), which writes every record of a partitioned run — the
# resident partition's too —
#   inlining call to core.split.partitionOf
# so routing a record costs no call. A second build, with -gcflags=-d=wb,
# must report no "write barrier" inside scatter outside its flush branch
# (the `if` that tests the buffer's capacity): a record advances its
# buffer's length in place, and writing the whole slice header back per
# record stores a pointer, which the garbage collector's write barrier
# then guards on every record.
set -euo pipefail

pkg=internal/algo/graphzalgo
pairs=internal/graph/pair.go
pair_codecs="u32PairCodec:Uint32Codec f32PairCodec:Float32Codec"

cd "$(git rev-parse --show-toplevel)"
# One "<file>:<type>:<delegates>" word per program that defines a delegate:
# the bulk routes (ApplyAll for a scatter, ApplyEach for a program that sends
# per edge), the run delegate and the drain delegate.
programs=$(for f in "$pkg"/*.go; do
	case $f in *_test.go) continue ;; esac
	sed -nE "s/^func \([a-z]+ ([A-Za-z0-9]+)\) (ApplyAll|ApplyEach|UpdateRun|ApplyRecords)\(.*/${f##*/}:\1:\2/p" "$f"
done | awk -F: '{ k = $1 ":" $2; if (!(k in d)) order[++n] = k; d[k] = d[k] (d[k] == "" ? "" : ",") $3 }
	END { for (i = 1; i <= n; i++) printf "%s%s:%s", (i > 1 ? " " : ""), order[i], d[order[i]] }')
if [ -z "$programs" ]; then
	echo "inlinecheck: $pkg defines no ApplyAll, ApplyEach, UpdateRun or ApplyRecords delegate" >&2
	exit 1
fi
# -m's diagnostics are cached with the build and replayed on a cache hit.
out=$(go build -gcflags=-m "./$pkg" ./internal/graph ./internal/core ./examples/emulation 2>&1) || { echo "$out" >&2; exit 1; }

fail=0
sources=$(ls "$pkg"/*.go | grep -v '_test\.go$')
for f in $sources; do
	for prog in $(sed -nE 's/^func \([a-z]+ ([A-Za-z0-9]+)\) UpdateRun\(.*/\1/p' "$f"); do
		if grep -Eq "^func \(([a-z]+ )?$prog\) InitialFrontier\(" $sources; then
			echo "inlinecheck: $f: $prog declares core.FrontierSafe and defines UpdateRun, which only a run that pins StreamAdjacency reaches" >&2
			fail=1
		fi
	done
done
for entry in $programs; do
	IFS=: read -r file prog delegates <<<"$entry"
	for delegate in ${delegates//,/ }; do
		line=$(grep -n "core\.$delegate(" "$pkg/$file" | cut -d: -f1)
		case $delegate in
		ApplyAll | ApplyEach)
			what="the bulk route" callees=("core\.$delegate\[.*" "$prog"'\.Apply' 'core\.\(\*Frontier\)\.set')
			;;
		UpdateRun)
			what="the run delegate" callees=('core\.UpdateRun\[.*' "$prog"'\.UpdateRun\.func1')
			;;
		ApplyRecords)
			# The delegate names its codec by the program's alias of a graph
			# codec (type prMsgCodec = graph.Float32Codec); -m reports the
			# aliased name.
			codec=$(grep -o '[A-Za-z0-9]*Codec{}\.Decode' "$pkg/$file" | sed 's/{}\.Decode//' || true)
			if [ "$(wc -w <<<"$codec")" -eq 1 ]; then
				codec=$(sed -n "s/^type $codec = \(graph\.[A-Za-z0-9]*Codec\)\$/\1.Decode/p" "$pkg/$file")
			fi
			if [ "$(wc -w <<<"$codec")" -ne 1 ]; then
				echo "inlinecheck: $pkg/$file: want the drain delegate to name one <alias>{}.Decode, the alias a graph codec's, found: ${codec:-none}" >&2
				fail=1
				continue
			fi
			what="the drain" callees=('core\.ApplyRecords\[.*' "$prog"'\.Apply' "${codec//./\\.}")
			;;
		esac
		if [ "$(wc -w <<<"$line")" -ne 1 ]; then
			echo "inlinecheck: $pkg/$file: want exactly one core.$delegate call (the delegate), found lines: ${line:-none}" >&2
			fail=1
			continue
		fi
		for callee in "${callees[@]}"; do
			if ! grep -Eq "^$pkg/$file:$line:[0-9]+: inlining call to $callee\$" <<<"$out"; then
				echo "inlinecheck: $prog's $delegate ($what) lost it under $(go version): no \"inlining call to ${callee//\\/}\" at $pkg/$file:$line" >&2
				fail=1
			fi
		done
	done
done

for entry in $pair_codecs; do
	codec=${entry%%:*} field=${entry##*:}
	for method in EncodeAll:Encode DecodeAll:Decode; do
		bulk=${method%%:*} one=${method##*:}
		body=$(awk -v f="^func \\(c $codec\\) $bulk\\(" '$0 ~ f { on = 1 } on { print NR": "$0 } on && /^}/ { exit }' "$pairs")
		lines=$(grep -E "c\.$one\(" <<<"$body" | cut -d: -f1 || true)
		if [ -z "$lines" ]; then
			echo "inlinecheck: $pairs: $codec.$bulk calls no c.$one" >&2
			fail=1
		fi
		for line in $lines; do
			if ! grep -Eq "^$pairs:$line:[0-9]+: inlining call to $field\.$one\$" <<<"$out"; then
				echo "inlinecheck: $codec.$bulk lost it under $(go version): no \"inlining call to $field.$one\" at $pairs:$line" >&2
				fail=1
			fi
		done
	done
done

sends=0
for f in $sources internal/core/emulate.go; do
	for line in $(grep -n 'ctx\.Send(' "$f" | cut -d: -f1); do
		sends=$((sends + 1))
		if ! grep -Eq "^(\./)?$f:$line:[0-9]+: inlining call to core\.\(\*Context\[.*\]\)\.Send\$" <<<"$out"; then
			echo "inlinecheck: Context.Send lost it under $(go version): no \"inlining call to core.(*Context[...]).Send\" at $f:$line" >&2
			fail=1
		fi
	done
done
if [ "$sends" -eq 0 ]; then
	echo "inlinecheck: no ctx.Send( call in $pkg or internal/core/emulate.go to hold" >&2
	fail=1
fi

engine=internal/core/engine.go
worker=$(awk '/^func \(e \*Engine\[V, M\]\) updateRuns\(/ { on = 1 } on { print NR": "$0 } on && /^}/ { exit }' "$engine")
for method in nextSet clear set; do
	lines=$(grep -E "e\.sel\.$method\(" <<<"$worker" | cut -d: -f1 || true)
	if [ -z "$lines" ]; then
		echo "inlinecheck: $engine: updateRuns calls no e.sel.$method" >&2
		fail=1
	fi
	for line in $lines; do
		if ! grep -Eq "^$engine:$line:[0-9]+: inlining call to core\.\(\*Frontier\)\.$method\$" <<<"$out"; then
			echo "inlinecheck: updateRuns lost it under $(go version): no \"inlining call to core.(*Frontier).$method\" at $engine:$line" >&2
			fail=1
		fi
	done
done
planner=internal/core/activeset.go
for fn in '(pl *selPlanner) plan' '(b *runBuilder) appendActive'; do
	body=$(awk -v f="func $fn(" 'index($0, f) == 1 { on = 1 } on { print NR": "$0 } on && /^}/ { exit }' "$planner")
	lines=$(grep -E "\.nextSet\(" <<<"$body" | cut -d: -f1 || true)
	if [ -z "$lines" ]; then
		echo "inlinecheck: $planner: $fn calls no nextSet" >&2
		fail=1
	fi
	for line in $lines; do
		if ! grep -Eq "^$planner:$line:[0-9]+: inlining call to \(\*Frontier\)\.nextSet\$" <<<"$out"; then
			echo "inlinecheck: $fn lost it under $(go version): no \"inlining call to (*Frontier).nextSet\" at $planner:$line" >&2
			fail=1
		fi
	done
done
scatter=$(awk '/^func \(e \*Engine\[V, M\]\) scatter\(/ { on = 1 } on { print NR": "$0 } on && /^}/ { exit }' "$engine")
lines=$(grep -E "\.partitionOf\(" <<<"$scatter" | cut -d: -f1 || true)
if [ -z "$lines" ]; then
	echo "inlinecheck: $engine: scatter calls no partitionOf" >&2
	fail=1
fi
for line in $lines; do
	if ! grep -Eq "^$engine:$line:[0-9]+: inlining call to core\.split\.partitionOf\$" <<<"$out"; then
		echo "inlinecheck: scatter lost it under $(go version): no \"inlining call to core.split.partitionOf\" at $engine:$line" >&2
		fail=1
	fi
done
# scatter's lines, and its flush branch's: from the line that tests the
# buffer's capacity to the brace at that line's indent that closes it.
read -r first last < <(sed -n '1s/:.*//p; $s/:.*//p' <<<"$scatter" | paste -sd' ')
read -r flush_lo flush_hi < <(awk -F': ' '$2 ~ /> cap\(/ && !lo { lo = $1; match($2, /^\t*/); ind = substr($2, 1, RLENGTH) } lo && $1 > lo && $2 == ind "}" { print lo, $1; exit }' <<<"$scatter") || true
if [ -z "${flush_hi:-}" ]; then
	echo "inlinecheck: $engine: scatter has no flush branch (an if that tests a buffer's cap)" >&2
	fail=1
fi
wb=$(go build -gcflags=-d=wb "./$pkg" 2>&1) || { echo "$wb" >&2; exit 1; }
barriers=$(sed -n "s|^$engine:\([0-9]*\):[0-9]*: write barrier\$|\1|p" <<<"$wb" | sort -un |
	awk -v first="$first" -v last="$last" -v lo="${flush_lo:-0}" -v hi="${flush_hi:-0}" '$1 >= first && $1 <= last && ($1 < lo || $1 > hi)' | paste -sd' ')
if [ -n "$barriers" ]; then
	echo "inlinecheck: scatter stores a pointer per record under $(go version): \"write barrier\" at $engine line(s) $barriers, outside its flush branch (lines $flush_lo-$flush_hi)" >&2
	fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "inlinecheck: Apply and the bitmap's set inlined into ApplyAll or ApplyEach, the Update closure into UpdateRun, Decode and Apply into ApplyRecords for: $programs; Context.Send at its $sends call sites; the field codecs into the pair codecs' bulk loops; the bitmap inlined into updateRuns, selPlanner.plan and appendActive; partitionOf into scatter, and no write barrier in scatter outside its flush branch ($(go version))"
