// Experiment E13 (paper §6): arrays = ranking. Theorem 6.2 shows NRCA is
// exactly NRC plus the ranked union U_r. Measured three ways:
//
//   RankCounting/n  — the pure-NRC counting definition (O(n^2)): what a
//                     complex-object language pays WITHOUT arrays/ranking
//   RankViaUr/n     — rank with U_r's essence registered as an external
//                     primitive over the canonical set order (§4.1
//                     openness; one pass, O(n))
//   RankNative/n    — the same enumeration as a raw C++ baseline
//   RankCountingCompiled/n — the counting definition on the compiled
//                     backend, whose set pipelines turn the inner
//                     `z < y` filter into a binary-searched range
//                     (docs/EXEC.md §7): the scan disappears, the count
//                     of the admitted range stays
// Shape: counting is quadratic; the U_r-backed rank tracks the native
// slope — the expressiveness theorem is also an efficiency statement.

#include "bench_util.h"

namespace aql {
namespace bench {
namespace {

Value NatSet(size_t n, uint64_t seed = 5) {
  auto data = RandomNats(n * 2, n * 8, seed);  // oversample for dedup losses
  std::vector<Value> elems;
  for (size_t i = 0; i < data.size() && elems.size() < n; ++i) {
    elems.push_back(Value::Nat(data[i]));
  }
  return Value::MakeSet(std::move(elems));
}

// Registers enumerate : {'a} -> {'a * nat}, the U_r ranking pass.
void EnsureEnumerate(System* sys) {
  (void)sys->RegisterPrimitive(
      "enumerate", "{'a0} -> {'a0 * nat}", [](const Value& arg) -> Result<Value> {
        if (arg.kind() != ValueKind::kSet) {
          return Status::EvalError("enumerate expects a set");
        }
        std::vector<Value> out;
        out.reserve(arg.set().elems.size());
        uint64_t rank = 1;
        for (const Value& v : arg.set().elems) {
          out.push_back(Value::MakeTuple({v, Value::Nat(rank++)}));
        }
        return Value::MakeSetCanonical(std::move(out));
      });
}

void BM_RankCounting(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("X", NatSet(state.range(0)));
  ExprPtr q = MustCompile(sys, state, "rank!X");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RankCounting)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

void BM_RankCountingCompiled(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("X", NatSet(state.range(0)));
  ExprPtr q = MustCompile(sys, state, "rank!X");
  std::optional<exec::Program> program = MustCompileExec(sys, state, q);
  if (!program) return;
  for (auto _ : state) benchmark::DoNotOptimize(MustRun(state, *program));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RankCountingCompiled)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

void BM_RankViaUr(benchmark::State& state) {
  System* sys = SharedSystem();
  EnsureEnumerate(sys);
  (void)sys->DefineVal("X", NatSet(state.range(0)));
  ExprPtr q = MustCompile(sys, state, "enumerate!X");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RankViaUr)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

void BM_RankNative(benchmark::State& state) {
  Value x = NatSet(state.range(0));
  for (auto _ : state) {
    std::vector<Value> out;
    out.reserve(x.set().elems.size());
    uint64_t rank = 1;
    for (const Value& v : x.set().elems) {
      out.push_back(Value::MakeTuple({v, Value::Nat(rank++)}));
    }
    benchmark::DoNotOptimize(Value::MakeSetCanonical(std::move(out)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RankNative)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

// Downstream use of ranks: positional selection (median-ish) — the query
// shape ranking enables, at both implementations.
void BM_MedianViaCountingRank(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("X", NatSet(state.range(0)));
  (void)sys->DefineVal("MID", Value::Nat((state.range(0) + 1) / 2));
  ExprPtr q = MustCompile(sys, state, "{ y | (\\y, \\r) <- rank!X, r = MID }");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MedianViaCountingRank)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

void BM_MedianViaUr(benchmark::State& state) {
  System* sys = SharedSystem();
  EnsureEnumerate(sys);
  (void)sys->DefineVal("X", NatSet(state.range(0)));
  (void)sys->DefineVal("MID", Value::Nat((state.range(0) + 1) / 2));
  ExprPtr q = MustCompile(sys, state, "{ y | (\\y, \\r) <- enumerate!X, r = MID }");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MedianViaUr)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

// Cross-check at benchmark time that the implementations agree.
void BM_RankAgreement(benchmark::State& state) {
  System* sys = SharedSystem();
  EnsureEnumerate(sys);
  (void)sys->DefineVal("X", NatSet(256));
  ExprPtr a = MustCompile(sys, state, "rank!X");
  ExprPtr b = MustCompile(sys, state, "enumerate!X");
  for (auto _ : state) {
    Value va = MustEval(sys, state, a);
    Value vb = MustEval(sys, state, b);
    if (va != vb) {
      state.SkipWithError("rank implementations disagree");
      return;
    }
    benchmark::DoNotOptimize(va);
  }
}
BENCHMARK(BM_RankAgreement);

}  // namespace
}  // namespace bench
}  // namespace aql

BENCHMARK_MAIN();
