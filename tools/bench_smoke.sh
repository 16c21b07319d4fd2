#!/usr/bin/env bash
# Smoke check for the self-timed hot-path benchmarks.
#
# Builds the micro_sim, micro_protocol, and micro_runtime targets in
# Release mode, runs each in quick mode under a wall-clock cap, and
# validates that the emitted BENCH_*.json parses as JSON. Fails (nonzero
# exit) if the build breaks, a bench exceeds its cap, a bench itself
# reports a regression (nonzero exit, e.g. steady-state allocations), or
# the JSON is malformed. Every bench runs even after an earlier one
# fails, and any failure fails the script.
#
# Usage: tools/bench_smoke.sh [build-dir]
#   build-dir: an existing CMake build directory to reuse (its configured
#              build type is kept, as under CTest); when omitted, a
#              dedicated Release tree is configured at build-bench-smoke/.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-bench-smoke}"
benches=(micro_sim micro_protocol micro_runtime)
# Absolutize: the benches run from a scratch dir below.
case "$build" in /*) ;; *) build="$(pwd)/$build" ;; esac

# Under CTest, CTEST_PARALLEL_LEVEL is the user's chosen parallelism;
# respect it rather than grabbing every core.
jobs="${CTEST_PARALLEL_LEVEL:-$(nproc)}"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$build" --target "${benches[@]}" -j"$jobs" >/dev/null

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

failures=0

# The benches write BENCH_*.json into their cwd; run from a scratch dir so
# a smoke run never clobbers a real benchmark result. Records failures
# instead of exiting so every bench gets its run (and its diagnostics).
run_bench() {
  local name="$1" cap="$2" json="$3" status=0
  (cd "$out" && M2_BENCH_QUICK=1 timeout "$cap" "$build/bench/$name") ||
    status=$?
  if [[ $status -ne 0 ]]; then
    if [[ $status -eq 124 ]]; then
      echo "bench_smoke: $name exceeded the ${cap}-second cap" >&2
    else
      echo "bench_smoke: $name failed (exit $status)" >&2
    fi
    failures=$((failures + 1))
    return 0
  fi
  if ! python3 -m json.tool "$out/$json" >/dev/null; then
    echo "bench_smoke: $json is malformed" >&2
    failures=$((failures + 1))
  fi
}

run_bench micro_sim 5 BENCH_sim.json
run_bench micro_protocol 60 BENCH_protocol.json
run_bench micro_runtime 60 BENCH_runtime.json

if [[ $failures -ne 0 ]]; then
  echo "bench_smoke: $failures bench(es) failed" >&2
  exit 1
fi

# The protocol bench must report the batched fast-path mix: its absence
# means the mix silently stopped running, which would unpin the batching
# perf gate.
python3 - "$out/BENCH_protocol.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc.get("schema") == "m2bench-v1", "BENCH_protocol.json schema tag"
for key in ("speedup_batched_fast_path",
            "batched_fast_path_decided_per_sec",
            "batched_fast_path_allocs_per_decided",
            "batched_fast_path_decided"):
    assert key in doc["results"], f"BENCH_protocol.json results missing {key}"
EOF

# The runtime bench must report every wire-path mix: a silently missing
# mix would unpin the runtime perf gate the same way.
python3 - "$out/BENCH_runtime.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc.get("schema") == "m2bench-v1", "BENCH_runtime.json schema tag"
for key in ("loopback_msgs_per_sec", "loopback_allocs_per_msg",
            "loopback_bcast_msgs_per_sec", "tcp_msgs_per_sec",
            "tcp_allocs_per_msg"):
    assert key in doc["results"], f"BENCH_runtime.json results missing {key}"
EOF

echo "bench_smoke: OK"
