#!/usr/bin/env bash
# Alternated parent/change pairs of one benchmark workload, the campaign a
# speed claim rests on (README, "Throughput tuning"):
#
#	scripts/bench-pairs.sh PARENT [WORKLOAD [SEED [PAIRS]]]
#
# Checks PARENT out under .bench_build/parent, builds bench/ once on each
# side, runs the two binaries PAIRS times with the settings of bench/run.sh,
# alternating which side goes first, and appends every run's row to
# .bench_build/pairs/WORKLOAD-sSEED/{parent,change}.jsonl. Ends with
# `dbgc-bench -compare` over the two files and, per end-to-end metric, each
# side's median and quartiles and the pairs in which the change read lower or
# higher. Exits non-zero if the comparison does or a run fails an operation.
set -euo pipefail
parent=${1:?usage: bench-pairs.sh PARENT [WORKLOAD [SEED [PAIRS]]]}
workload=${2:-codec_road} seed=${3:-1} pairs=${4:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
tree="$build/parent"
out="$build/pairs/$workload-s$seed"
mkdir -p "$build/tmp" "$out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
git -C "$root" worktree add --force --detach "$tree" "$parent" >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT
(cd "$tree/bench" && go build -o "$build/dbgc-bench.parent" .)
(cd "$root/bench" && go build -o "$build/dbgc-bench.change" .)

rm -f "$out"/parent.jsonl "$out"/change.jsonl "$out"/values
run() { # side pair
	"$build/dbgc-bench.$1" -dir "$build/work" -spec "$root/BENCHMARK.json" \
		--workload "$workload" --seed "$seed" --seconds 15 --trace 0 -out "$out/$1.jsonl" |
		awk -v side="$1" -v pair="$2" -v wl="$workload" '
			$1 == wl && $2 == "attempted" { print "#", side, pair, $0 }
			$1 == wl && NF == 4 { print side, pair, $2, $3, $4 }' | tee -a "$out/values" | grep '^#'
}
for pair in $(seq "$pairs"); do
	if ((pair % 2)); then order="parent change"; else order="change parent"; fi
	for side in $order; do run "$side" "$pair"; done
done

status=0
"$build/dbgc-bench.change" -spec "$root/BENCHMARK.json" -compare "$out/parent.jsonl" "$out/change.jsonl" || status=$?
grep -v '^#' "$out/values" | sort -k3,3 -k1,1 -k4,4g | awk -v pairs="$pairs" '
	# Values arrive grouped by metric, then side, ascending.
	function quantile(s, q,    h, lo) {
		h = (cnt[s] - 1) * q + 1
		lo = int(h)
		return lo >= cnt[s] ? val[s, cnt[s]] : val[s, lo] + (h - lo) * (val[s, lo + 1] - val[s, lo])
	}
	function flush(    s, p, line, lower, higher) {
		if (metric == "") return
		line = sprintf("%-18s", metric)
		for (s = 1; s <= 2; s++)
			line = line sprintf("  %s %.10g [%.10g, %.10g]", name[s], quantile(s, .5), quantile(s, .25), quantile(s, .75))
		for (p = 1; p <= pairs; p++) {
			lower += byPair[2, p] < byPair[1, p]
			higher += byPair[2, p] > byPair[1, p]
		}
		printf "%s %s  change lower in %d and higher in %d of %d pairs\n", line, unit, lower, higher, pairs
		split("", val); split("", cnt); split("", byPair)
	}
	BEGIN { name[1] = "parent"; name[2] = "change" }
	$3 != metric { flush(); metric = $3; unit = $5 }
	{ s = $1 == "parent" ? 1 : 2; val[s, ++cnt[s]] = $4; byPair[s, $2] = $4 }
	END { flush() }'
exit $status
