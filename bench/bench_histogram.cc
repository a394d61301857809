// Experiment E2 (paper §2): hist is O(n*m) — n the array length, m the
// maximum value — while hist' (index-based, implicit group-by) is
// O(m + n log n).
//
// Series:
//   HistSweepN/n      — m fixed at 64, n grows: both linear in n, but
//                       hist's constant is ~m comparisons per element
//   HistFastSweepN/n
//   HistSweepM/m      — n fixed at 1024, m grows: hist degrades linearly
//                       in m, hist' only pays the m-sized output array
//   HistFastSweepM/m
// The paper's crossover: hist' wins by ~m/log n for large m.
//
//   *Compiled/n|m     — the same four sweeps on the compiled backend, where
//                       hist's tabulation of Sums runs as one typed kernel
//                       and hist''s index fills its buckets straight from
//                       the comprehension (docs/EXEC.md §3, §7)

#include "bench_util.h"

namespace aql {
namespace bench {
namespace {

void BM_HistSweepN(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(state.range(0), 64)));
  ExprPtr q = MustCompile(sys, state, "hist!H");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HistSweepN)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_HistFastSweepN(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(state.range(0), 64)));
  ExprPtr q = MustCompile(sys, state, "hist_fast!H");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HistFastSweepN)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_HistSweepM(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(1024, state.range(0))));
  ExprPtr q = MustCompile(sys, state, "hist!H");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HistSweepM)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_HistFastSweepM(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(1024, state.range(0))));
  ExprPtr q = MustCompile(sys, state, "hist_fast!H");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HistFastSweepM)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

// The four sweeps above, compiled once and run on the exec backend.
void RunCompiled(benchmark::State& state, const char* query, uint64_t n, uint64_t m,
                 int64_t complexity_n) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(n, m)));
  ExprPtr q = MustCompile(sys, state, query);
  std::optional<exec::Program> program = MustCompileExec(sys, state, q);
  if (!program) return;
  for (auto _ : state) benchmark::DoNotOptimize(MustRun(state, *program));
  state.SetComplexityN(complexity_n);
}

void BM_HistSweepNCompiled(benchmark::State& state) {
  RunCompiled(state, "hist!H", state.range(0), 64, state.range(0));
}
BENCHMARK(BM_HistSweepNCompiled)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_HistFastSweepNCompiled(benchmark::State& state) {
  RunCompiled(state, "hist_fast!H", state.range(0), 64, state.range(0));
}
BENCHMARK(BM_HistFastSweepNCompiled)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_HistSweepMCompiled(benchmark::State& state) {
  RunCompiled(state, "hist!H", 1024, state.range(0), state.range(0));
}
BENCHMARK(BM_HistSweepMCompiled)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_HistFastSweepMCompiled(benchmark::State& state) {
  RunCompiled(state, "hist_fast!H", 1024, state.range(0), state.range(0));
}
BENCHMARK(BM_HistFastSweepMCompiled)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

}  // namespace
}  // namespace bench
}  // namespace aql

BENCHMARK_MAIN();
