#!/usr/bin/env bash
# A/B comparison of two versions of webiq on one perfbench workload.
#
#   scripts/bench_ab.sh <rev> <workload> [runs]
#
# Checks <rev> out into a git worktree under .bench_build/ab/ and runs
# perfbench/run.sh alternately there (A) and in the working tree (B),
# runs times each (default 5), A then B in odd pairs and B then A in
# even ones, so a drift in host speed falls on both sides alike. Then it
# prints, for each end-to-end metric, the median of A, the median of B
# and their ratio B/A, with the spread (quartile distance over median)
# of each side and the number of pairs in which B was lower than A. SEED (default 1) sets perfbench's --seed; --seconds is
# the run_seconds of BENCHMARK.json, the same on both sides. Every run's
# result line is kept in .bench_build/ab/results/. Run it from the
# repository root.
set -euo pipefail

if [[ $# -lt 2 ]]; then
	echo "usage: scripts/bench_ab.sh <rev> <workload> [runs]" >&2
	exit 2
fi
rev=$1 workload=$2 runs=${3:-5}
seed=${SEED:-1}

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/run.sh" || ! -f "$root/BENCHMARK.json" ]]; then
	echo "bench_ab.sh: run from the root of a webiq checkout" >&2
	exit 2
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
if [[ -z "$seconds" ]]; then
	echo "bench_ab.sh: no run_seconds in BENCHMARK.json" >&2
	exit 2
fi
ab="$root/.bench_build/ab"
wt="$ab/tree"
out="$ab/results"
mkdir -p "$out"

git worktree remove --force "$wt" >/dev/null 2>&1 || true
git worktree add --detach "$wt" "$rev" >/dev/null
trap 'git worktree remove --force "$wt" >/dev/null 2>&1 || true' EXIT

tag="$workload-seed$seed"
rm -f "$out/$tag".A.* "$out/$tag".B.*

# run <side> <dir> <i>: one perfbench run; its last stdout line is the
# result record.
run() {
	echo "run $3/$runs: $1" >&2
	(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) | tail -n 1 >"$out/$tag.$1.$3"
}

for ((i = 1; i <= runs; i++)); do
	if ((i % 2)); then
		run A "$wt" "$i"
		run B "$root" "$i"
	else
		run B "$root" "$i"
		run A "$wt" "$i"
	fi
done

# metrics <file>...: "name value" lines from every result record given,
# plus "failed N" and "correct true|false".
metrics() {
	cat "$@" | awk '{
		gsub(/[ \t]/, "")
		s = $0
		while (match(s, /"[a-z_]+":\{"value":[-0-9.e+]+/)) {
			m = substr(s, RSTART, RLENGTH)
			s = substr(s, RSTART + RLENGTH)
			split(m, f, "\"")
			v = m; sub(/.*"value":/, "", v)
			print f[2], v
		}
		if (match($0, /"failed":[0-9]+/)) print "failed", substr($0, RSTART + 9, RLENGTH - 9)
		if (match($0, /"correct":[a-z]+/)) print "correct", substr($0, RSTART + 10, RLENGTH - 10)
	}'
}

# summary <side>: per metric, its median and spread over the side's runs.
summary() {
	metrics "$out/$tag.$1".* | sort -k1,1 -k2,2g | awk '
		function flush() {
			if (name == "") return
			med = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
			q1 = v[int((n - 1) * 0.25) + 1]; q3 = v[int((n - 1) * 0.75) + 1]
			printf "%s %s %s\n", name, med, (med != 0 ? (q3 - q1) / med : 0)
		}
		$1 == "correct" { if ($2 != "true") bad = 1; next }
		$1 != name { flush(); name = $1; n = 0 }
		{ v[++n] = $2 }
		END { flush(); if (bad) print "correct false 0"; else print "correct true 0" }'
}

# wins: per metric, the number of pairs in which B was lower than A.
wins() {
	for ((i = 1; i <= runs; i++)); do
		join <(metrics "$out/$tag.A.$i" | sort) <(metrics "$out/$tag.B.$i" | sort)
	done | awk '$1 != "correct" { n[$1] += ($3 < $2) } END { for (m in n) print m, n[m]; print "correct -" }'
}

echo "workload $workload, seed $seed, $runs runs a side, A = $rev, B = working tree"
join <(summary A | sort) <(summary B | sort) | join - <(wins | sort) | awk -v runs="$runs" '
	BEGIN { printf "%-14s %12s %8s %12s %8s %8s %8s\n", "metric", "A median", "spread", "B median", "spread", "B/A", "B lower" }
	$1 == "correct" { printf "%-14s %12s %8s %12s\n", $1, $2, "", $4; next }
	{ printf "%-14s %12.4g %8.3f %12.4g %8.3f %8.3f %5d/%d\n", $1, $2, $3, $4, $5, ($2 != 0 ? $4 / $2 : 0), $6, runs }'
