// Fused scalar kernels for tabulation bodies.
//
// A tabulation [[ e | i1<d1, ..., ik<dk ]] whose body is a scalar
// expression over the loop indices, scalar frame slots, and subscripts of
// unboxed array slots can run as a tight typed loop that writes straight
// into the result's unboxed buffer — no per-element Value boxing, no
// Result<Value> allocation, no virtual Run() dispatch.
//
// Two stages keep this sound:
//
//   1. Compile time (BuildKernelSpec): a structural scan of the body Expr
//      admits only the closed kernel fragment — constants, binders, frame
//      slots, arithmetic, comparisons, if/then/else, and subscripts whose
//      array is a plain slot. Anything else (lambdas, sets, nested
//      tabulations, externals, ...) returns nullptr and the tabulation
//      uses the generic node interpreter.
//
//   2. Run time (Kernel::Instantiate): the spec is typed against the
//      concrete frame. Scalar slots freeze into constants; array slots
//      must hold an unboxed payload of matching rank. Type mismatches
//      (e.g. a slot holding a set, a boxed array, mixed arith operands)
//      reject instantiation, and the tabulation falls back to the generic
//      path — representation never changes semantics, only speed.
//
// Kernel evaluation returns false when the body value is ⊥ at some index
// (nat division/modulo by zero, out-of-bounds subscript). The caller then
// re-runs the whole tabulation generically, producing the partial array
// with per-point ⊥ holes that the semantics require.
//
// The fragment includes Sum: `Sum{ b | s in src }` with a kernel body b
// and a source that is a counted gen(e) (e a kernel nat expression) or a
// slot or literal holding a set of nats (copied once, at instantiation,
// into a flat buffer). It folds exactly like the generic SumFold: nat
// addition wraps, real addition runs left to right from 0.0, and an
// empty source is Nat(0) — which a real-typed Sum cannot hold, so it
// reports ⊥ there and the caller's generic re-run produces the Nat(0).
// The same kernel runs a standalone Sum's body (exec/compiled.cc), with
// the Sum's own binder as binder 0.
//
// A third stage removes even those per-cell tests: AnnotateKernelSpec
// attaches static proofs (subscript in-range, divisor nonzero) from the
// abstract-interpretation framework (src/analysis/absint.h), and
// Instantiate re-validates them against the concrete frame. When every ⊥
// source is discharged the kernel reports unchecked() and exposes total
// Eval*Unchecked entry points — the §5 bound-check elimination, performed
// with a proof instead of a prayer. AQL_EXEC_UNCHECKED=0 disables the
// unchecked path at run time (docs/EXEC.md).

#ifndef AQL_EXEC_KERNEL_H_
#define AQL_EXEC_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/expr.h"
#include "exec/compiled.h"
#include "object/value.h"

namespace aql {
namespace exec {

// Compile-time shape of a kernelizable tabulation body.
struct KernelSpec {
  enum class Op : uint8_t {
    kNatConst,
    kRealConst,
    kBoolConst,
    kBinder,     // loop index j (value in `index`)
    kSlot,       // frame slot (value in `index`); type resolved at run time
    kArith,      // kids[0] op kids[1]
    kCmp,        // kids[0] op kids[1]
    kIf,          // kids[0] ? kids[1] : kids[2]
    kSubscript,   // kids[0] is the array (kSlot or kLiteralArr); kids[1..] nat indices
    kLiteralArr,  // inlined literal array (value in `literal`)
    kDimOf,       // extent `index` of the rank-`nat` array kids[0]
    kSum,         // Sum{ kids[1] | binder `index` in kids[0] }; `boolean`: the
                  // source is a counted gen and kids[0] its nat count, else
                  // kids[0] is a kSlot or kLiteralSet holding a set of nats
    kLiteralSet,  // inlined literal set (value in `literal`), a kSum source
  };

  Op op;
  uint64_t nat = 0;
  double real = 0;
  bool boolean = false;
  size_t index = 0;  // binder position (kBinder, kSum), frame slot (kSlot), dim (kDimOf)
  ArithOp arith = ArithOp::kAdd;
  CmpOp cmp = CmpOp::kEq;
  Value literal;  // kLiteralArr only (vals inline as literals, §4 openness)
  std::vector<KernelSpec> kids;

  // Static proofs attached by AnnotateKernelSpec (analysis/absint.h),
  // consulted at instantiation to admit the unchecked evaluators:
  //   div_safe     kArith div/mod whose divisor is provably nonzero
  //   idx_proven   kSubscript, per dimension: index proven < extent
  //   idx_ub       kSubscript, per dimension: exclusive constant upper
  //                bound of the index (0 = none; a real bound is >= 1),
  //                checked against the concrete extent at instantiation
  bool div_safe = false;
  std::vector<uint8_t> idx_proven;
  std::vector<uint64_t> idx_ub;
};

// Maps a free-variable name to its frame slot (mirrors the compiler's
// scope lookup at the point of the tabulation body).
using SlotLookup = std::function<Result<size_t>(const std::string&)>;

// Builds the kernel spec for `body`, or nullptr if the body leaves the
// kernel fragment. `binder_slots` are the tabulation's index slots in
// binder order; variables bound to other slots become kSlot leaves. Each
// Sum in the body gets the next binder position after them.
std::unique_ptr<KernelSpec> BuildKernelSpec(const Expr& body,
                                            const std::vector<size_t>& binder_slots,
                                            const SlotLookup& lookup);

// Attaches bound/definedness proofs to a spec built from the body of
// `loop` — a tabulation, or a Sum whose body the spec is — (div_safe,
// idx_proven, idx_ub above), using the shared symbolic prover:
// tabulation binders are below their bounds, a Sum binder over gen(n) is
// below n, a conditional's test holds in its then-branch. A Sum inside
// the body kills the facts that mention its binder (analysis::
// KillShadowed) before adding its own, and the loop extents are the
// evaluated bounds. Called once at compile time.
// The relational affine domain (analysis/affine.h) tightens idx_ub and
// proves in-bounds where the syntactic provers give up (cancellation,
// exact division); when an affine fact is what closed the proof, an
// "unchecked-kernel-bounds" certificate is appended to `proof`.
void AnnotateKernelSpec(const Expr& loop, KernelSpec* spec,
                        analysis::Proof* proof = nullptr);

// A spec instantiated against one concrete frame: fully typed, slot
// scalars frozen to constants, subscript targets resolved to raw unboxed
// buffers (the backing Values are pinned for the kernel's lifetime).
class Kernel {
 public:
  enum class Type : uint8_t { kNat, kReal, kBool };

  // nullptr when the frame's values do not fit the spec (non-scalar slot,
  // boxed or rank-mismatched array, mixed operand types, ...).
  static std::unique_ptr<Kernel> Instantiate(const KernelSpec& spec, const Frame& frame);

  Type result_type() const { return root_.type; }

  // True when instantiation discharged every ⊥ source in the body — all
  // subscripts proven in-range against the concrete extents, all nat
  // div/mod divisors proven nonzero — so the Eval*Unchecked evaluators
  // below are total and the per-cell ⊥ protocol can be skipped.
  bool unchecked() const { return unchecked_; }

  // Number of binder positions evaluation reads and writes: the loop's own
  // binders, then one per Sum. `idx` below must have at least this many
  // entries; the Sums use theirs as scratch, so each thread needs its own.
  size_t binders() const { return binders_; }
  // Number of Sums folded inside the kernel.
  size_t sums() const { return sums_; }

  // Evaluate the body at multi-index `idx` (binder order). Exactly one of
  // these matches result_type(); all return false when the value is ⊥.
  // A Sum polls CheckInterrupt() every 4096 elements and, when the query
  // was interrupted, stops early with a meaningless value: callers poll
  // CheckInterrupt() once more after their loop and return its status.
  bool EvalNat(uint64_t* idx, uint64_t* out) const;
  bool EvalReal(uint64_t* idx, double* out) const;
  bool EvalBool(uint64_t* idx, uint8_t* out) const;

  // Checkless evaluation: no per-cell bounds tests, no ⊥ signalling.
  // Callers must hold unchecked() == true.
  uint64_t EvalNatUnchecked(uint64_t* idx) const;
  double EvalRealUnchecked(uint64_t* idx) const;
  uint8_t EvalBoolUnchecked(uint64_t* idx) const;

 private:
  struct RtNode {
    KernelSpec::Op op;
    Type type;
    uint64_t nat = 0;
    double real = 0;
    uint8_t boolean = 0;
    size_t binder = 0;
    ArithOp arith = ArithOp::kAdd;
    CmpOp cmp = CmpOp::kEq;
    const ArrayRep* arr = nullptr;  // kSubscript: dims + unboxed buffer
    // kSum: kids[0] is the trip count, kids[1] the body; the binder takes
    // the values of `elems` (a set source) or 0, 1, ... (a counted gen).
    std::vector<uint64_t> elems;
    std::vector<RtNode> kids;
  };

  Kernel() = default;

  bool Build(const KernelSpec& spec, const Frame& frame, RtNode* out);

  static bool NatAt(const RtNode& n, uint64_t* idx, uint64_t* out);
  static bool RealAt(const RtNode& n, uint64_t* idx, double* out);
  static bool BoolAt(const RtNode& n, uint64_t* idx, uint8_t* out);
  static bool SubscriptFlat(const RtNode& n, uint64_t* idx, uint64_t* flat);
  template <typename T, typename Part>
  static bool Fold(const RtNode& n, uint64_t trips, uint64_t* idx, T* out, const Part& part);

  static uint64_t NatAtU(const RtNode& n, uint64_t* idx);
  static double RealAtU(const RtNode& n, uint64_t* idx);
  static uint8_t BoolAtU(const RtNode& n, uint64_t* idx);
  static uint64_t FlatU(const RtNode& n, uint64_t* idx);

  RtNode root_;
  std::vector<Value> pinned_;  // keeps subscripted arrays alive
  bool unchecked_ = true;      // cleared by Build at each undischarged ⊥ source
  size_t binders_ = 0;
  size_t sums_ = 0;
};

}  // namespace exec
}  // namespace aql

#endif  // AQL_EXEC_KERNEL_H_
