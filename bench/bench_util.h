// Shared helpers for the AQL benchmark harness.
//
// Each bench binary regenerates one experiment from EXPERIMENTS.md. The
// helpers build Systems (optimized / unoptimized), synthesize array and
// set values of a given size, and bind them as top-level vals so the
// benchmarked queries reference pre-built data rather than re-parsing
// literals.

#ifndef AQL_BENCH_BENCH_UTIL_H_
#define AQL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "env/system.h"
#include "exec/compiled.h"

namespace aql {
namespace bench {

inline System* SharedSystem() {
  static System* sys = new System();
  return sys;
}

inline System* SharedUnoptimizedSystem() {
  static System* sys = [] {
    SystemConfig cfg;
    cfg.optimize = false;
    return new System(cfg);
  }();
  return sys;
}

// Deterministic pseudo-random nats in [0, bound).
inline std::vector<uint64_t> RandomNats(size_t n, uint64_t bound, uint64_t seed = 42) {
  std::vector<uint64_t> out;
  out.reserve(n);
  uint64_t z = seed;
  for (size_t i = 0; i < n; ++i) {
    z = z * 6364136223846793005ull + 1442695040888963407ull;
    out.push_back(bound == 0 ? 0 : (z >> 33) % bound);
  }
  return out;
}

inline Value NatVector(const std::vector<uint64_t>& data) {
  std::vector<Value> elems;
  elems.reserve(data.size());
  for (uint64_t v : data) elems.push_back(Value::Nat(v));
  return Value::MakeVector(std::move(elems));
}

inline Value RealVector(size_t n, uint64_t seed = 7) {
  std::vector<Value> elems;
  elems.reserve(n);
  uint64_t z = seed;
  for (size_t i = 0; i < n; ++i) {
    z = z * 6364136223846793005ull + 1442695040888963407ull;
    elems.push_back(Value::Real(double(z >> 40) / 1000.0));
  }
  return Value::MakeVector(std::move(elems));
}

// The graph encoding {(i, a[i])} of a nat vector, for set-based plans.
inline Value NatVectorGraph(const std::vector<uint64_t>& data) {
  std::vector<Value> elems;
  elems.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    elems.push_back(Value::MakeTuple({Value::Nat(i), Value::Nat(data[i])}));
  }
  return Value::MakeSet(std::move(elems));
}

// Compiles once; fails the benchmark on error.
inline ExprPtr MustCompile(System* sys, benchmark::State& state, const std::string& q) {
  auto r = sys->Compile(q);
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return nullptr;
  }
  return *r;
}

// Evaluates a precompiled query, aborting the benchmark on host errors.
inline Value MustEval(System* sys, benchmark::State& state, const ExprPtr& compiled) {
  auto r = sys->EvalCore(compiled);
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return Value::Bottom();
  }
  return std::move(r).value();
}

// The compiled backend's program (src/exec) for a precompiled query,
// built once; nullopt (and the benchmark skipped) on error.
inline std::optional<exec::Program> MustCompileExec(System* sys, benchmark::State& state,
                                                   const ExprPtr& compiled) {
  auto r = exec::Compile(compiled, sys->PrimitiveResolver());
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(r).value();
}

// Runs a compiled program, aborting the benchmark on host errors.
inline Value MustRun(benchmark::State& state, const exec::Program& program) {
  auto r = program.Run();
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return Value::Bottom();
  }
  return std::move(r).value();
}

}  // namespace bench
}  // namespace aql

#endif  // AQL_BENCH_BENCH_UTIL_H_
