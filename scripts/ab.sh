#!/bin/sh
# make ab: alternating parent/change pairs of the one benchmark command.
#
#   sh scripts/ab.sh PARENT WORKLOAD PAIRS TRACE SECONDS [METRIC...]
#
# Runs `bash benchmark/run.sh --workload WORKLOAD --seed s --seconds SECONDS
# --trace TRACE` in PARENT (a checkout of the commit to compare against) and
# in this checkout for s = 1..PAIRS; the parent goes first on odd seeds and
# this checkout on even ones, so both sides of a pair share one stretch of
# the host's mood and neither always runs on a warm or a cold machine. It
# prints every pair of every METRIC (default: the four end-to-end metrics
# untraced, the workload's own <layer>.trace_overhead_pct traced), then per
# metric the median of the pair ratios change/parent, how many pairs read
# higher, lower and equal, how many miss the metric on a side (a run that
# printed no value, "nan", which enters neither the median nor the counts),
# and each side's own min–max across its runs (a side whose spread exceeds
# the metric's bound cannot resolve a difference of that size). It judges
# nothing — which direction is better, and by how much, is BENCHMARK.json's
# to say. What it prints it also writes to
# results/ab/PR<n>-WORKLOAD[-trace].txt, the file a CHANGES.md entry points
# at instead of pasting the pairs; n is one past the last "- PR n:" entry of
# CHANGES.md, or $PR. Each run's full output stays under
# .bench_build/ab/ until the next `make ab` of the same workload and mode
# overwrites it.
set -eu

usage() {
	echo "usage: make ab PARENT=<checkout> WORKLOAD=<name> PAIRS=n [TRACE=1] [SECONDS=20] [METRICS='a b']" >&2
	exit 2
}
[ $# -ge 5 ] && [ -f "$1/benchmark/run.sh" ] || usage
case $3 in '' | *[!0-9]*) usage ;; esac
parent=$(cd "$1" && pwd) workload=$2 pairs=$3 trace=$4 seconds=$5
shift 5
here=$(cd "$(dirname "$0")/.." && pwd)

metrics=$*
if [ -z "$metrics" ]; then
	metrics="mnodes_per_s cpu_s_per_mnode peak_rss_mb setup_s"
	if [ "$trace" != 0 ]; then
		case $workload in
		sim_*) metrics="des.trace_overhead_pct des.events des.makespan_ms" ;;
		cluster_*) metrics="cluster.trace_overhead_pct" ;;
		*) metrics="core.trace_overhead_pct" ;;
		esac
	fi
fi

out="$here/.bench_build/ab"
mkdir -p "$out" "$here/results/ab"
stem="$out/$workload.trace$trace"
: >"$stem.pairs"
pr=${PR:-$(($(sed -n 's/^- PR \([0-9]*\):.*/\1/p' "$here/CHANGES.md" | tail -n 1) + 1))}
record="$here/results/ab/PR$pr-$workload.txt"
[ "$trace" = 0 ] || record="${record%.txt}-trace.txt"

# run SIDE DIR SEED: one benchmark run, full output kept in $stem.SIDE.SEED.
run() {
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace "$trace" \
		>"$stem.$1.$3" 2>&1 || echo "ab: $1 seed $3 exited $? (see $stem.$1.$3)" >&2
}

# value FILE METRIC: the metric's line is "  name value unit".
value() {
	awk -v m="$2" '$1 == m && NF == 3 { print $2; found = 1 } END { if (!found) print "nan" }' "$1"
}

# failed FILE: "failed/attempted" reps of the run's closing JSON line.
failed() {
	sed -n 's/^{"attempted":\([0-9]*\),.*"failed":\([0-9]*\),.*/\2\/\1/p' "$1"
}

{
echo "ab: $workload trace=$trace seconds=$seconds pairs=$pairs parent=$parent change=$here"
printf '%-28s %4s %14s %14s %9s\n' metric seed parent change ratio
seed=1
while [ "$seed" -le "$pairs" ]; do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$parent" "$seed"
		run change "$here" "$seed"
	else
		run change "$here" "$seed"
		run parent "$parent" "$seed"
	fi
	for m in $metrics; do
		p=$(value "$stem.parent.$seed" "$m")
		c=$(value "$stem.change.$seed" "$m")
		echo "$m $seed $p $c" >>"$stem.pairs"
		awk -v m="$m" -v s="$seed" -v p="$p" -v c="$c" 'BEGIN {
			r = "-"; if (p + 0 != 0) r = sprintf("%.4f", c / p)
			printf "%-28s %4d %14s %14s %9s\n", m, s, p, c, r }'
	done
	printf '%-28s %4d %14s %14s\n' "failed/attempted reps" "$seed" \
		"$(failed "$stem.parent.$seed")" "$(failed "$stem.change.$seed")"
	seed=$((seed + 1))
done

echo
for m in $metrics; do
	awk -v m="$m" '$1 == m && $3 != "nan" && $4 != "nan" && $3 + 0 != 0 { printf "%.6f\n", $4 / $3 }' "$stem.pairs" | sort -n |
		awk -v m="$m" '{ r[NR] = $1 } END {
			if (NR == 0) { printf "%-28s no pair with a non-zero parent;", m; exit }
			med = (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
			printf "%-28s median change/parent %.4f over %d pairs;", m, med, NR }'
	awk -v m="$m" '
		# span VALUE SIDE: widen the min–max of SIDE by one run ("nan" is no run).
		function span(v, s) {
			if (v == "nan") return
			if (!(s in lo) || v + 0 < lo[s] + 0) lo[s] = v
			if (!(s in hi) || v + 0 > hi[s] + 0) hi[s] = v
		}
		function show(s) { return (s in lo) ? lo[s] "–" hi[s] : "none" }
		$1 == m {
			span($3, "parent"); span($4, "change")
			if ($3 == "nan" || $4 == "nan") missing++
			else if ($4 + 0 > $3 + 0) up++; else if ($4 + 0 < $3 + 0) down++; else eq++
		}
		END { printf " change higher in %d, lower in %d, equal in %d, missing in %d; parent %s, change %s\n",
			up, down, eq, missing, show("parent"), show("change") }' "$stem.pairs"
done
} | tee "$record"
