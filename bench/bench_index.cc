// Experiment E8 (paper §2): "Because index causes an implicit group-by,
// it can be used to write more efficient code."
//
// Series, grouping a set of (key, value) pairs by nat key:
//   IndexGroupBy/n      — index!(...) : O(m + n log n)
//   NestedLoopGroupBy/n — the nest-style NRC grouping : O(n^2)
//   IndexSweepM/m       — cost of hole filling as the key range grows at
//                         fixed n (the "m" term of the paper's bound)
//   *Compiled/n         — the same plans on the compiled backend, whose
//                         set pipelines hash-probe nest's inner scan
//                         (docs/EXEC.md §7): nest then costs O(n * g) for
//                         groups of g, instead of n^2 scans
//   NestedLoopGroupByCompiledGroupsOf4/n — n/4 keys: g stays 4, so the
//                         compiled nest is linear

#include "bench_util.h"

namespace aql {
namespace bench {
namespace {

Value PairSet(size_t n, uint64_t key_bound, uint64_t seed = 11) {
  auto keys = RandomNats(n, key_bound, seed);
  auto vals = RandomNats(n, 1000000, seed + 1);
  std::vector<Value> elems;
  elems.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    elems.push_back(Value::MakeTuple({Value::Nat(keys[i]), Value::Nat(vals[i])}));
  }
  return Value::MakeSet(std::move(elems));
}

void BM_IndexGroupBy(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "index!P");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexGroupBy)->RangeMultiplier(2)->Range(128, 8192)->Complexity();

void BM_NestedLoopGroupBy(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  // nest (§2/§3): for every tuple, scan the whole set again.
  ExprPtr q = MustCompile(sys, state, "nest!P");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NestedLoopGroupBy)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_NestedLoopGroupByCompiled(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "nest!P");
  std::optional<exec::Program> program = MustCompileExec(sys, state, q);
  if (!program) return;
  for (auto _ : state) benchmark::DoNotOptimize(MustRun(state, *program));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NestedLoopGroupByCompiled)->RangeMultiplier(2)->Range(128, 8192)->Complexity();

void BM_NestedLoopGroupByCompiledGroupsOf4(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), state.range(0) / 4));
  ExprPtr q = MustCompile(sys, state, "nest!P");
  std::optional<exec::Program> program = MustCompileExec(sys, state, q);
  if (!program) return;
  for (auto _ : state) benchmark::DoNotOptimize(MustRun(state, *program));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NestedLoopGroupByCompiledGroupsOf4)
    ->RangeMultiplier(2)
    ->Range(128, 8192)
    ->Complexity();

void BM_IndexGroupByCompiled(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "index!P");
  std::optional<exec::Program> program = MustCompileExec(sys, state, q);
  if (!program) return;
  for (auto _ : state) benchmark::DoNotOptimize(MustRun(state, *program));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexGroupByCompiled)->RangeMultiplier(2)->Range(128, 8192)->Complexity();

void BM_IndexSweepM(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(1024, state.range(0)));
  ExprPtr q = MustCompile(sys, state, "index!P");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexSweepM)->RangeMultiplier(8)->Range(8, 32768)->Complexity();

// Aggregation after grouping: count per key, both ways (the hist'
// structure at set level).
void BM_IndexThenCount(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "maparr!(fn \\b => card!b, index!P)");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexThenCount)->RangeMultiplier(2)->Range(128, 8192)->Complexity();

void BM_NestThenCount(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "{ (k, card!vs) | (\\k, \\vs) <- nest!P }");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NestThenCount)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_NestThenCountCompiled(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "{ (k, card!vs) | (\\k, \\vs) <- nest!P }");
  std::optional<exec::Program> program = MustCompileExec(sys, state, q);
  if (!program) return;
  for (auto _ : state) benchmark::DoNotOptimize(MustRun(state, *program));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NestThenCountCompiled)->RangeMultiplier(2)->Range(128, 8192)->Complexity();

}  // namespace
}  // namespace bench
}  // namespace aql

BENCHMARK_MAIN();
