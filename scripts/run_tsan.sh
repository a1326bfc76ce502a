#!/usr/bin/env sh
# Builds the test suite with ThreadSanitizer (CELLFLOW_TSAN=ON, see the
# `tsan` CMake preset) and runs the concurrency-sensitive subset: the
# ThreadPool/PlanStage unit tests, the serial-vs-parallel differential
# suites, the three-way equivalence tests, the observability layer
# (metrics registry under the parallel engine, profiler shard spans),
# the net-layer suites, the active-set
# scheduler suites, the snapshot/replay suites and the chunked store.
# System::update and chunk::ChunkedSystem::update run every round as one
# stage plan through run_plan, the pool's only entry point; phase hooks,
# a stateful choose policy's Signal pass, the profiler and telemetry
# stamps, and the chunk fault-ins of the merges all sit in its serial
# stages, on the caller, while workers hold at the stage boundary.
# PhaseHookDifferential drives exactly that — a hook reading the whole
# engine between pooled stages on every dense and chunked engine, with
# profiler and telemetry attached to one of them — ActiveSetDifferential
# covers the scheduler arrays the workers read inside stages and the
# caller mutates only in the merges, and ChunkDifferential's pooled legs
# cover the live-chunk list each parallel stage shards. Any data race in
# the parallel round engine or the instrumentation aborts the run.
#
# Exits 0 with a notice when the toolchain cannot link -fsanitize=thread
# (some minimal images ship gcc without libtsan) so CI lanes without the
# runtime degrade gracefully instead of failing spuriously.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cpp" <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
if ! c++ -fsanitize=thread -pthread "$probe_dir/probe.cpp" \
     -o "$probe_dir/probe" 2> "$probe_dir/probe.err"; then
  echo "run_tsan.sh: toolchain cannot link -fsanitize=thread; skipping." >&2
  sed 's/^/  /' "$probe_dir/probe.err" >&2 || true
  exit 0
fi

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan
echo "run_tsan.sh: ThreadSanitizer suite clean."
