// Data-parallel execution: the chunked tabulation/kernel paths under
// different AQL_EXEC_THREADS settings, on the compiled backend.
//
// Series:
//   BM_TabNatKernel/{n}/{t}    — fused nat kernel, n×n tabulation, t threads
//   BM_TabRealGather/{n}/{t}   — real kernel gathering from an unboxed val
//   BM_TabBoxedGeneric/{n}/{t} — tuple body: generic boxed chunked path
//   BM_ParallelSum/{n}/{t}     — Sum with parallel body evaluation
//   BM_NestedSumInGenericLoop/{m}/{t}
//                              — a Sum over gen(m) run once per element of
//                                a 512-element comprehension, which stays
//                                generic: trip counts below the Sum
//                                kernel's floor of 32 keep the boxed fold,
//                                those at or above it instantiate a kernel
//                                per run (docs/EXEC.md §3)
//
// Thread counts are applied via the AQL_EXEC_THREADS knob, which the exec
// layer re-reads on every top-level Run; the benchmark binary itself stays
// single-threaded. On a 1-core container all t>1 series measure the
// scheduling overhead floor, not speedup — see EXPERIMENTS.md.

#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "exec/compiled.h"

namespace aql {
namespace bench {
namespace {

void SetThreads(int64_t t) {
  ::setenv("AQL_EXEC_THREADS", std::to_string(t).c_str(), 1);
  // Keep the threshold at its default so the t=1 series exercises the
  // plain sequential path and t>1 the chunked one.
}

void RunCompiledQuery(benchmark::State& state, const std::string& query) {
  SetThreads(state.range(1));
  System* sys = SharedSystem();
  ExprPtr q = MustCompile(sys, state, query);
  if (!q) return;
  auto program = exec::Compile(q, sys->PrimitiveResolver());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = program->Run();
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  ::unsetenv("AQL_EXEC_THREADS");
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}

void BM_TabNatKernel(benchmark::State& state) {
  std::string n = std::to_string(state.range(0));
  RunCompiledQuery(state,
                   "[[ (i*31 + j) % 1000 | \\i < " + n + ", \\j < " + n + " ]]");
}
BENCHMARK(BM_TabNatKernel)
    ->ArgsProduct({{64, 256, 1024}, {1, 2, 4, 8}});

void BM_TabRealGather(benchmark::State& state) {
  (void)SharedSystem()->DefineVal("PR", RealVector(size_t(state.range(0))));
  std::string n = std::to_string(state.range(0));
  RunCompiledQuery(state, "[[ PR[i] * 2.0 + 1.0 | \\i < " + n + " ]]");
}
BENCHMARK(BM_TabRealGather)
    ->ArgsProduct({{4096, 65536, 1048576}, {1, 2, 4, 8}});

void BM_TabBoxedGeneric(benchmark::State& state) {
  std::string n = std::to_string(state.range(0));
  RunCompiledQuery(state, "[[ (i, i*i) | \\i < " + n + " ]]");
}
BENCHMARK(BM_TabBoxedGeneric)
    ->ArgsProduct({{4096, 65536, 1048576}, {1, 2, 4, 8}});

void BM_ParallelSum(benchmark::State& state) {
  std::string n = std::to_string(state.range(0));
  RunCompiledQuery(state, "summap(fn \\x => (x*x) % 97)!(gen!" + n + ")");
}
BENCHMARK(BM_ParallelSum)
    ->ArgsProduct({{4096, 65536, 1048576}, {1, 2, 4, 8}});

void BM_NestedSumInGenericLoop(benchmark::State& state) {
  std::string m = std::to_string(state.range(0));
  RunCompiledQuery(state,
                   "{ summap(fn \\j => (x + j) % 97)!(gen!" + m + ") | \\x <- gen!512 }");
}
BENCHMARK(BM_NestedSumInGenericLoop)
    ->ArgsProduct({{4, 16, 31, 32, 128}, {1, 4}});

}  // namespace
}  // namespace bench
}  // namespace aql

BENCHMARK_MAIN();
