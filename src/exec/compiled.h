// Compiled execution backend (the "code generator" of §3's efficiency
// discussion).
//
// The tree-walking evaluator (src/eval) resolves every variable by name
// against a linked-list environment — simple, but each lookup is a string
// comparison chain. This backend compiles a core-calculus expression once
// into an executable graph in which
//
//   - every variable is a FRAME SLOT index assigned at compile time,
//   - every lambda is compiled to a capture list (the slots of its free
//     variables) plus a code pointer; applying it copies the captured
//     values into a fresh frame,
//   - loop constructs (big union, sum, tabulation) push their binder
//     slots once and overwrite them per iteration,
//   - external primitives are resolved to their implementations at
//     compile time, not per evaluation.
//
// Semantics are identical to the evaluator (same bottom propagation, same
// canonical sets); exec_test cross-checks the two on random programs, and
// bench_exec measures the speedup.
//
// Set comprehensions run as pipelines (docs/EXEC.md, "Set pipelines"):
// a big union's body appends its elements straight into one SetBuilder
// per comprehension, `x in gen(n)` runs as a counted loop, and a body
// guarded by an equality on a key of the binder, or by a comparison of the
// binder itself, visits only the elements a hash probe or a binary-searched
// range admits.
//
// Like the evaluator, loop constructs poll base/cancel.h's CheckInterrupt(),
// so a Program::Run under an ExecScope respects deadlines/cancellation.
// A compiled Program is immutable and safe to Run() from many threads
// concurrently (each Run builds its own Frame) — the plan cache
// (src/service) shares one Program across all workers.

#ifndef AQL_EXEC_COMPILED_H_
#define AQL_EXEC_COMPILED_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/affine.h"
#include "base/result.h"
#include "core/expr.h"
#include "exec/parallel.h"
#include "object/value.h"

namespace aql {
namespace exec {

// The exec knobs, read from the environment once per Program::Run and
// carried by every frame of that run (closures copy them from the frame
// that created them).
struct ExecKnobs {
  ParConfig par;           // AQL_EXEC_THREADS, AQL_EXEC_PAR_THRESHOLD
  bool pushdown = true;    // AQL_EXEC_PUSHDOWN (0 disables tile pushdowns)
  bool unchecked = true;   // AQL_EXEC_UNCHECKED (0 disables unchecked kernels)

  static ExecKnobs FromEnv();
};

struct ProbeIndex;  // a hash index of one probed source (compiled.cc)

// What one probing loop remembers about the source set it last saw: the
// set (kept alive, so its identity cannot be recycled), how often it was
// visited, whether the probe can serve it, and the hash index built for it
// on the second visit.
struct ProbeMemo {
  ProbeMemo(const void* site_in, Value source_in)
      : site(site_in), source(std::move(source_in)) {}

  const void* site;  // the probing loop node
  Value source;
  uint64_t visits = 0;
  bool usable = true;  // false: some element defeats the probe; scan instead
  std::shared_ptr<const ProbeIndex> index;
};

// Mutable register file for one activation.
struct Frame {
  std::vector<Value> slots;
  ExecKnobs knobs;
  // Per-activation probe memos. Worker frames of a parallel loop start
  // from a copy; built indexes are immutable, so only shared_ptr copies
  // cross threads.
  std::vector<ProbeMemo> probes;
};

// The sinks a set comprehension emits into (compiled.cc): a SetBuilder
// accumulates its elements and canonicalizes them once at the end; an
// IndexSink files the (key, value) pairs of index_k's argument straight
// into their buckets.
class SetBuilder;
class IndexSink;

// A compiled expression node.
class Node {
 public:
  virtual ~Node() = default;
  virtual Result<Value> Run(Frame* frame) const = 0;
  // Appends the elements of this set-valued node to `out` instead of
  // materializing a set. Returns false when the node is ⊥ (the partial
  // contents of `out` are then meaningless). The default runs the node
  // and appends the resulting set.
  virtual Result<bool> Emit(Frame* frame, SetBuilder* out) const;
  virtual Result<bool> Emit(Frame* frame, IndexSink* out) const;
};

using NodePtr = std::unique_ptr<const Node>;

class Program {
 public:
  Program(NodePtr root, size_t frame_size, analysis::Proof proof = {})
      : root_(std::move(root)),
        frame_size_(frame_size),
        proof_(std::move(proof)) {}

  // Executes the program; `args` (if any) pre-populate the first slots —
  // used when compiling open expressions whose free variables are
  // supplied by the host.
  Result<Value> Run(std::vector<Value> args = {}) const;

  size_t frame_size() const { return frame_size_; }

  // The proof certificate accumulated at compile time: which affine /
  // absint facts justified which plan optimizations (pushdowns, pruned
  // aggregates, unchecked kernels). Surfaced by REPL `:explain` and the
  // `?trace=1` profile.
  const analysis::Proof& proof() const { return proof_; }

 private:
  NodePtr root_;
  size_t frame_size_;
  analysis::Proof proof_;
};

// Resolves a registered external primitive name, or nullptr.
using ExternalResolver =
    std::function<std::shared_ptr<const FuncValue>(const std::string&)>;

// Compiles a core expression. Free variables listed in `params` become
// argument slots (in order); any other free variable is an error.
Result<Program> Compile(const ExprPtr& e, const ExternalResolver& externals,
                        const std::vector<std::string>& params = {});

}  // namespace exec
}  // namespace aql

#endif  // AQL_EXEC_COMPILED_H_
