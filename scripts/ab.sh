#!/usr/bin/env bash
# ab.sh compares the working tree with a base commit on the repository
# benchmark (BENCHMARK.json, perfbench/). It exports the base commit with
# `git archive` into a scratch directory, then runs perfbench/run.sh in
# the two trees alternately, N pairs per workload on the same host (the
# first run of each pair alternates between base and change, so slow drift
# of the host cancels out). For every end-to-end metric of BENCHMARK.json
# it prints both medians, both interquartile ranges, the relative change
# of the medians, the paired change (the median over pairs of change/base
# - 1, with the order-statistic interval [r(2), r(n-1)] of those ratios,
# which for n = 10 covers the median ratio with about 98% probability),
# the number of pairs the change won, and a flag when the change is worse
# than the base by more than the metric's bound. A metric whose base IQR,
# relative to the base median, is wider than its bound is flagged
# unresolved rather than read as unchanged, unless every run of the change
# beats every run of the base. The flags read the medians, not the paired
# column. Runs that report correct=false or failed operations are flagged
# too.
#
# With -t the same alternating pairs run traced (perfbench --trace 1) and
# the report covers the per_layer metrics of BENCHMARK.json instead: both
# medians, the relative change and the win count, with no verdict flag,
# so a change can name the layer that moved. Tracing costs time, so -t
# reports no end-to-end metric.
#
#   scripts/ab.sh                        # every workload, 10 pairs
#   scripts/ab.sh -w plan-asp -n 10
#   scripts/ab.sh -t -w plan-asp -n 10   # per-layer metrics, traced runs
#   scripts/ab.sh -b HEAD~1 -d /tmp/ab   # explicit base and scratch directory
#
# Options:
#   -b REV   base revision (default: the merge base of HEAD and main; when
#            HEAD is main itself, that is HEAD, so uncommitted changes are
#            compared with the last commit)
#   -n N     pairs per workload (default 10)
#   -w NAME  workload; repeat for several (default: all of BENCHMARK.json)
#   -d DIR   scratch directory for the base tree and the raw results
#            (default: a new temporary directory, kept and printed)
#   -t       traced runs; report the per-layer metrics
#
# Every run lasts run_seconds of BENCHMARK.json, the benchmark's own
# length. The script reads perfbench/ and BENCHMARK.json and edits neither;
# nothing is downloaded. Each tree builds perfbench under its own
# .bench_build/ (see perfbench/run.sh).
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)

base="" pairs=10 workloads=() work="" trace=0
while getopts "b:n:w:d:t" opt; do
	case "$opt" in
	b) base="$OPTARG" ;;
	n) pairs="$OPTARG" ;;
	w) workloads+=("$OPTARG") ;;
	d) work="$OPTARG" ;;
	t) trace=1 ;;
	*) sed -n '2,46p' "$0" >&2; exit 2 ;;
	esac
done

# BENCHMARK.json flattened to one line, for the field extraction below.
spec=$(tr -d '\n\t' < BENCHMARK.json)
seconds=$(printf '%s' "$spec" | grep -o '"run_seconds": *[0-9]*' | grep -o '[0-9]*$')
if [ ${#workloads[@]} -eq 0 ]; then
	# Workload names are the "name" fields between "workloads" and "end_to_end".
	mapfile -t workloads < <(printf '%s' "$spec" | sed 's/.*"workloads"//; s/"end_to_end".*//' |
		grep -o '"name": *"[^"]*"' | sed 's/.*: *"//; s/"$//')
fi
# End-to-end metrics as "name better bound" lines; with -t, the per-layer
# metrics as "name better" lines.
if ((trace)); then
	metrics=$(printf '%s' "$spec" | sed 's/.*"per_layer"//' |
		grep -o '{[^}]*}' | sed 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/')
else
	metrics=$(printf '%s' "$spec" | sed 's/.*"end_to_end"//; s/"per_layer".*//' |
		grep -o '{[^}]*}' | sed 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/')
fi

[ -n "$base" ] || base=$(git merge-base HEAD main)
base=$(git rev-parse --verify "$base^{commit}")
[ -n "$work" ] || work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
mkdir -p "$work/base" "$work/runs"
rm -rf "${work:?}/base/"*
git archive "$base" | tar -x -C "$work/base"

echo "base:    $base ($work/base)"
echo "change:  working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD -- || echo ' + uncommitted edits') ($root)"
echo "pairs:   $pairs x ${seconds}s per workload: ${workloads[*]}$( ((trace)) && echo ' (traced: per-layer metrics)')"
echo "raw:     $work/runs"

# run TREE SIDE WORKLOAD PAIR: one perfbench run; keeps its result line.
run() {
	local out="$work/runs/$3.$2.$4"
	(cd "$1" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace "$trace") \
		> "$out.log" 2>&1 || true
	tail -n 1 "$out.log" > "$out.json"
}

for wl in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run "$work/base" base "$wl" "$i"
			run "$root" change "$wl" "$i"
		else
			run "$root" change "$wl" "$i"
			run "$work/base" base "$wl" "$i"
		fi
		printf '.'
	done
	echo

	# One line per run: side pair correct failed then each metric value.
	for side in base change; do
		for ((i = 1; i <= pairs; i++)); do
			line=$(cat "$work/runs/$wl.$side.$i.json")
			row="$side $i"
			case "$line" in *'"correct":true'*) row="$row 1" ;; *) row="$row 0" ;; esac
			failed=$(printf '%s' "$line" | grep -o '"failed":[0-9]*' | sed 's/.*://')
			row="$row ${failed:-NA}"
			while read -r name _ _; do
				v=$(printf '%s' "$line" | grep -o "\"$name\":{\"value\":[-0-9.eE+]*" | sed 's/.*://')
				row="$row ${v:-NA}"
			done <<< "$metrics"
			echo "$row"
		done
	done > "$work/runs/$wl.tsv"

	echo "== $wl: $pairs pairs, ${seconds}s each$( ((trace)) && echo ', traced') =="
	awk -v pairs="$pairs" -v metrics="$metrics" -v traced="$trace" '
	function sortv(a, n,   i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	}
	function quant(a, n, q,   h, lo) { # type-7 quantile of sorted a[1..n]
		h = (n - 1) * q + 1; lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
	}
	{
		s = $1; p = $2
		ok[s] += $3; fail[s] += ($4 == "NA" ? 0 : $4)
		for (m = 1; m <= nm; m++) v[s, p, m] = $(4 + m)
	}
	BEGIN {
		nm = split(metrics, lines, "\n")
		for (m = 1; m <= nm; m++) { split(lines[m], f, " "); name[m] = f[1]; better[m] = f[2]; bound[m] = f[3] }
	}
	END {
		if (traced)
			printf "%-26s %10s %10s %8s %6s\n", "metric", "base", "change", "delta", "wins"
		else
			printf "%-12s %10s %9s %10s %9s %8s %-22s %6s %6s  %s\n", "metric", "base", "IQR", "change", "IQR", "delta",
				"paired [r(2),r(n-1)]", "wins", "bound", "flag"
		for (m = 1; m <= nm; m++) {
			n = 0; wins = 0; nr = 0
			for (p = 1; p <= pairs; p++) {
				b = v["base", p, m]; c = v["change", p, m]
				if (b == "NA" || c == "NA" || b == "" || c == "") continue
				n++; B[n] = b + 0; C[n] = c + 0
				if (better[m] == "lower" ? C[n] < B[n] : C[n] > B[n]) wins++
				if (B[n] != 0) R[++nr] = C[n] / B[n] - 1
			}
			if (n == 0) { printf "%-12s no samples\n", name[m]; continue }
			sortv(B, n); sortv(C, n); sortv(R, nr)
			bm = quant(B, n, 0.5); cm = quant(C, n, 0.5)
			rel = bm != 0 ? (cm - bm) / bm : 0
			if (traced) {
				printf "%-26s %10.4g %10.4g %+7.1f%% %3d/%-2d\n", name[m], bm, cm, 100 * rel, wins, n
				continue
			}
			paired = "n/a"
			if (nr >= 3)
				paired = sprintf("%+.1f%% [%+.1f,%+.1f]", 100 * quant(R, nr, 0.5), 100 * R[2], 100 * R[nr-1])
			biqr = quant(B, n, 0.75) - quant(B, n, 0.25)
			ciqr = quant(C, n, 0.75) - quant(C, n, 0.25)
			worse = better[m] == "lower" ? rel : -rel
			shift = cm > bm ? cm - bm : bm - cm
			spread = bm != 0 ? biqr / (bm < 0 ? -bm : bm) : 0
			disjoint = better[m] == "lower" ? C[n] < B[1] : C[1] > B[n]
			flag = ""
			if (worse > bound[m]) flag = "OUT OF BOUND"
			else if (worse < 0 && shift > biqr && wins >= 0.9 * n) flag = "gain (>= 90% wins, beyond base IQR)"
			else if (spread > bound[m] && !disjoint) flag = sprintf("unresolved (base IQR %.0f%% > bound)", 100 * spread)
			printf "%-12s %10.4g %9.3g %10.4g %9.3g %+7.1f%% %-22s %3d/%-2d %5.0f%%  %s\n",
				name[m], bm, biqr, cm, ciqr, 100 * rel, paired, wins, n, 100 * bound[m], flag
		}
		split("base change", sides, " ")
		for (i = 1; i <= 2; i++) {
			s = sides[i]
			printf "%-6s correct %d/%d, failed operations %d%s\n", s, ok[s], pairs, fail[s],
				(ok[s] < pairs || fail[s] > 0) ? "  FLAG" : ""
		}
	}' "$work/runs/$wl.tsv"
done
