// Data-parallel helpers for the compiled exec backend.
//
// ParallelFor(total, fn, config) partitions [0, total) into contiguous chunks and
// runs `fn(begin, end)` on each, using a process-wide ThreadPool shared by
// all queries. The calling thread always participates: pool tasks are
// optional helpers claimed from a shared atomic cursor, so a full pool (or
// nested parallelism) degrades to the caller running every chunk itself —
// never a deadlock, never a refusal.
//
// Contract:
//   - fn must write only to disjoint state per [begin, end) range;
//     the row-major output placement of tabulation makes that natural.
//   - Worker tasks run under the caller's CancelToken (re-installed via
//     ExecScope), so deadlines and cancellation bite inside chunks too.
//   - The returned Status is the first non-OK status in *chunk order*,
//     which for a lowest-index-wins error discipline equals the error the
//     sequential loop would have produced.
//
// Thread count comes from AQL_EXEC_THREADS (default: hardware
// concurrency) and AQL_EXEC_PAR_THRESHOLD overrides the minimum element
// count below which loops stay sequential. Callers snapshot both with
// ParConfig::FromEnv — the compiled backend once per Program::Run, for
// every loop of that run — so tests can flip the knobs between runs.

#ifndef AQL_EXEC_PARALLEL_H_
#define AQL_EXEC_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "base/status.h"

namespace aql {
namespace exec {

// Effective worker count for data-parallel loops (>= 1).
int ExecThreads();

// Minimum element count for going parallel (AQL_EXEC_PAR_THRESHOLD,
// default 4096).
uint64_t ParThreshold();

// A snapshot of the two parallelism knobs.
struct ParConfig {
  int threads = 1;          // >= 1
  uint64_t threshold = 1;   // >= 1

  static ParConfig FromEnv();  // ExecThreads() and ParThreshold()
  // True iff a loop over `total` elements should run in parallel
  // (threads > 1 and total >= threshold).
  bool ShouldParallelize(uint64_t total) const {
    return threads > 1 && total >= threshold;
  }
};

// Runs fn over contiguous chunks covering [0, total). Blocks until every
// chunk has finished (even on error or cancellation: later chunks see the
// failure flag and return early, but are still accounted for). fn must be
// safe to call concurrently from multiple threads.
Status ParallelFor(uint64_t total, const std::function<Status(uint64_t, uint64_t)>& fn,
                   const ParConfig& config);

// Monotonic counters for the service metrics bridge (exec cannot depend on
// service, so service polls these). Relaxed ordering: they are statistics,
// not synchronization.
struct ExecStats {
  std::atomic<uint64_t> par_tasks{0};      // ParallelFor invocations that went parallel
  std::atomic<uint64_t> par_chunks{0};     // chunks executed by parallel loops
  std::atomic<uint64_t> unboxed_arrays{0};  // arrays materialized with an unboxed payload
  std::atomic<uint64_t> unchecked_kernels{0};  // tabulations run without per-cell checks
  std::atomic<uint64_t> tab_pushdowns{0};  // tabs served by one bulk tile-store range read
  // Set pipelines (compiled.cc): comprehension loops that visited only
  // the elements a hash probe or a sorted range admitted, and set
  // builders whose appended elements already ascended (no sort).
  std::atomic<uint64_t> set_probes{0};
  std::atomic<uint64_t> set_ranges{0};
  std::atomic<uint64_t> sorts_skipped{0};
  // Aggregates (compiled.cc): Sums folded by a typed kernel (standalone,
  // or inside a tabulation kernel, counted once per tabulation run), and
  // index_k runs whose comprehension filed its pairs straight into the
  // buckets.
  std::atomic<uint64_t> sum_kernels{0};
  std::atomic<uint64_t> index_fused{0};
};
ExecStats& GlobalExecStats();

}  // namespace exec
}  // namespace aql

#endif  // AQL_EXEC_PARALLEL_H_
