#!/usr/bin/env bash
# Benchmark gate: runs the end-to-end benchmark (bench/run.sh) on a base
# commit and on this checkout in alternating pairs, then fails on the exit
# status of `bench/run.sh --compare base.jsonl head.jsonl`, which applies the
# per-metric bounds of BENCHMARK.json.
#
# Usage: .github/bench-gate.sh BASE_REV [WORKDIR]
#
# BASE_REV is checked out as a detached git worktree in WORKDIR/base (WORKDIR
# defaults to a fresh temporary directory), removed again on exit. The run
# reports land in WORKDIR/base.jsonl and WORKDIR/head.jsonl. Three pairs run,
# seeds 1-3, the base first on odd seeds; each side of a pair runs every
# workload for 10 s untraced. Untraced reports carry no exact counts, so a
# change that legitimately alters plans is judged on end-to-end time only.
set -euo pipefail

base_rev=${1:?usage: bench-gate.sh BASE_REV [WORKDIR]}
root=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

if ! git -C "$root" cat-file -e "$base_rev^{commit}" 2>/dev/null; then
	echo "::notice::base $base_rev is not a commit in this clone; no benchmark comparison"
	exit 0
fi
if ! git -C "$root" cat-file -e "$base_rev:bench/run.sh" 2>/dev/null; then
	echo "::notice::base $base_rev has no bench/run.sh; no benchmark comparison"
	exit 0
fi

base_tree="$work/base"
git -C "$root" worktree add --detach "$base_tree" "$base_rev"
trap 'git -C "$root" worktree remove --force "$base_tree"' EXIT
rm -f "$work/base.jsonl" "$work/head.jsonl"

# run_side TREE SEED OUT runs the four workloads of TREE's benchmark. The
# --out path is absolute because run.sh changes into its own directory.
run_side() {
	for workload in job_exec deep_plan serve_short ingest_scan; do
		bash "$1/bench/run.sh" --workload "$workload" --seed "$2" --seconds 10 --trace 0 --out "$3"
	done
}

for seed in 1 2 3; do
	if ((seed % 2 == 1)); then
		run_side "$base_tree" "$seed" "$work/base.jsonl"
		run_side "$root" "$seed" "$work/head.jsonl"
	else
		run_side "$root" "$seed" "$work/head.jsonl"
		run_side "$base_tree" "$seed" "$work/base.jsonl"
	fi
done

bash "$root/bench/run.sh" --compare "$work/base.jsonl" "$work/head.jsonl"
