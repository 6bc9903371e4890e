#!/bin/bash
# Runs two sets of runs of the working tree through -compare: the same
# commit, the same seed, so every pair should come out "ok" and the exact
# rows identical. A pair marked "unresolved" means this machine is noisier
# than the metric's bound.
#
#   benchmark/stability.sh [runs per workload and set, default 3] [seed, default 1] [seconds, default 15]
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${1:-3}
seed=${2:-1}
seconds=${3:-15}
out=benchmark/out
mkdir -p "$out"
rm -f "$out/a.jsonl" "$out/b.jsonl"
for workload in scan_solo adhoc_cold cache_hot queued_batch; do
	for ((i = 0; i < runs; i++)); do
		# The sets alternate, so slow drift of the machine lands on both.
		for set in a b; do
			bash benchmark/run.sh -workload "$workload" -seed "$seed" -seconds "$seconds" -record "$out/$set.jsonl" >/dev/null
		done
	done
done
bash benchmark/run.sh -compare "$out/a.jsonl" "$out/b.jsonl"
