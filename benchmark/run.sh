#!/usr/bin/env bash
# The one command of the poolnet benchmark: builds poolbench and poolnetd
# in Release under build/benchmark/, runs workloads, prints every metric
# with its unit, and writes build/benchmark/results.json.
#
#   benchmark/run.sh                      every workload once, seed 1
#   benchmark/run.sh --workload sweep_pool --seed 7 --seconds 15 --trace 0
#   benchmark/run.sh --repeat 5           every workload, seeds 1..5
#   benchmark/run.sh --trace              the per-layer traced pass
#   benchmark/run.sh --smoke              300 nodes, 2 s per workload
#
# With one workload and one repetition, the last line of stdout is that
# run's JSON result. Exits non-zero when a build step or any run fails.
set -euo pipefail

cd "$(dirname "$0")/.."
build=build/benchmark
workloads="serve_saturate serve_trickle sweep_pool sweep_dim sweep_ght store_churn"
workload=""
seed=1
deploy_seed=1
seconds=15
trace=0
repeat=1
smoke=""

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --deploy-seed) deploy_seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --trace)
      # `--trace` alone, or `--trace 0|1` as the benchmark driver passes it.
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke="--smoke"; seconds=2; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[ -n "$workload" ] && workloads="$workload"

# Compiler temporaries stay inside the checkout.
mkdir -p "$build/tmp"
export TMPDIR="$PWD/$build/tmp"
if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  cmake -S benchmark -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

compiler=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")
rev=unknown
[ -d .git ] && rev=$(git rev-parse HEAD 2> /dev/null || echo unknown)
runs=""
status=0
for ((r = 0; r < repeat; r++)); do
  for w in $workloads; do
    s=$((seed + r))
    line=$("$build/poolbench" --workload "$w" --seed "$s" --seconds "$seconds" \
             --trace "$trace" --deploy-seed "$deploy_seed" $smoke \
             --poolnetd "$build/apps/poolnetd" --out-dir "$build" | tail -n 1) \
      || status=1
    echo "$line"
    runs="$runs${runs:+,
}  {\"workload\": \"$w\", \"seed\": $s, \"trace\": $trace, \"result\": ${line:-null}}"
  done
done

cat > "$build/results.json" << EOF
{"host": {"nproc": $(nproc), "compiler": "$("$compiler" --version | head -n 1)",
          "build_type": "$build_type", "git_rev": "$rev",
          "seconds": $seconds, "deploy_seed": $deploy_seed},
 "runs": [
$runs
]}
EOF
echo "run.sh: wrote $build/results.json" >&2
exit $status
