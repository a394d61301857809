#include "exec/compiled.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

#include "analysis/affine.h"
#include "base/cancel.h"
#include "base/env.h"
#include "base/strings.h"
#include "base/sync.h"
#include "core/expr_ops.h"
#include "exec/kernel.h"
#include "exec/parallel.h"
#include "obs/trace.h"

namespace aql {
namespace exec {

namespace {

// Upper bounds on eagerly allocated result buffers. Tabulations larger
// than these run the legacy incremental loop (clamped reserve +
// push_back), which stays cancellable long before the allocation would
// hurt; the limits exist so a huge-but-under-the-cap bound does not turn
// into one giant up-front allocation.
constexpr uint64_t kUnboxedAllocLimit = uint64_t{1} << 26;  // 8B scalars
constexpr uint64_t kBoxedAllocLimit = uint64_t{1} << 24;    // boxed Values

// Multi-index helpers for row-major chunked loops.
std::vector<uint64_t> DecodeIndex(uint64_t flat, const std::vector<uint64_t>& dims) {
  std::vector<uint64_t> idx(dims.size());
  for (size_t j = dims.size(); j-- > 0;) {
    idx[j] = flat % dims[j];
    flat /= dims[j];
  }
  return idx;
}

void IncrementIndex(std::vector<uint64_t>& idx, const std::vector<uint64_t>& dims) {
  for (size_t j = dims.size(); j-- > 0;) {
    if (++idx[j] < dims[j]) return;
    idx[j] = 0;
  }
}

// ---------- runtime nodes ----------

class ConstNode : public Node {
 public:
  explicit ConstNode(Value v) : value_(std::move(v)) {}
  Result<Value> Run(Frame*) const override { return value_; }

 private:
  Value value_;
};

class SlotNode : public Node {
 public:
  explicit SlotNode(size_t slot) : slot_(slot) {}
  Result<Value> Run(Frame* f) const override { return f->slots[slot_]; }

 private:
  size_t slot_;
};

// Closure: captured values + code compiled against a fresh frame laid out
// as [captures..., param, scratch...]. Carries the knobs of the run that
// created it, so applying it later (from a primitive) reads no env vars.
class CompiledClosure : public FuncValue {
 public:
  CompiledClosure(std::vector<Value> captured, const Node* body, size_t frame_size,
                  const ExecKnobs& knobs)
      : captured_(std::move(captured)), body_(body), frame_size_(frame_size), knobs_(knobs) {}

  Result<Value> Apply(const Value& arg) const override {
    Frame frame;
    frame.knobs = knobs_;
    frame.slots.resize(frame_size_);
    std::copy(captured_.begin(), captured_.end(), frame.slots.begin());
    frame.slots[captured_.size()] = arg;
    return body_->Run(&frame);
  }

  std::string name() const override { return "<compiled fn>"; }

 private:
  std::vector<Value> captured_;
  const Node* body_;
  size_t frame_size_;
  ExecKnobs knobs_;
};

// Creates a closure, capturing the listed slots of the current frame.
// Owns the compiled body (shared among all closures it creates).
class LambdaNode : public Node {
 public:
  LambdaNode(std::vector<size_t> capture_slots, NodePtr body, size_t frame_size)
      : capture_slots_(std::move(capture_slots)),
        body_(std::move(body)),
        frame_size_(frame_size) {}

  Result<Value> Run(Frame* f) const override {
    std::vector<Value> captured;
    captured.reserve(capture_slots_.size());
    for (size_t s : capture_slots_) captured.push_back(f->slots[s]);
    return Value::MakeFunc(std::make_shared<CompiledClosure>(
        std::move(captured), body_.get(), frame_size_, f->knobs));
  }

 private:
  std::vector<size_t> capture_slots_;
  NodePtr body_;
  size_t frame_size_;
};

class ApplyNode : public Node {
 public:
  ApplyNode(NodePtr fn, NodePtr arg) : fn_(std::move(fn)), arg_(std::move(arg)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value fn, fn_->Run(f));
    if (fn.is_bottom()) return Value::Bottom();
    if (fn.kind() != ValueKind::kFunc) {
      return Status::EvalError("applying a non-function value");
    }
    AQL_ASSIGN_OR_RETURN(Value arg, arg_->Run(f));
    if (arg.is_bottom()) return Value::Bottom();
    return fn.func().Apply(arg);
  }

 private:
  NodePtr fn_, arg_;
};

class TupleNode : public Node {
 public:
  explicit TupleNode(std::vector<NodePtr> fields) : fields_(std::move(fields)) {}
  Result<Value> Run(Frame* f) const override {
    std::vector<Value> vals;
    vals.reserve(fields_.size());
    for (const NodePtr& n : fields_) {
      AQL_ASSIGN_OR_RETURN(Value v, n->Run(f));
      if (v.is_bottom()) return Value::Bottom();
      vals.push_back(std::move(v));
    }
    return Value::MakeTuple(std::move(vals));
  }

 private:
  std::vector<NodePtr> fields_;
};

class ProjNode : public Node {
 public:
  ProjNode(size_t index, size_t arity, NodePtr inner)
      : index_(index), arity_(arity), inner_(std::move(inner)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value v, inner_->Run(f));
    if (v.is_bottom()) return Value::Bottom();
    if (v.kind() != ValueKind::kTuple || v.tuple_fields().size() != arity_) {
      return Status::EvalError("projection arity mismatch");
    }
    return v.tuple_fields()[index_ - 1];
  }

 private:
  size_t index_, arity_;
  NodePtr inner_;
};

// ---------- set pipelines ----------

// True iff <_t orders values like `v` strictly and HashValue agrees with
// it: no NaN (which compares equal to everything), no ⊥ or function, no
// tiled array (its content needs I/O; its hash is by provenance). The
// probes rely on both properties; anything else makes the loop scan.
// `strict` also refuses -0.0, which <_t equates with 0.0 although it
// prints differently: which of two such duplicates a set keeps is then up
// to Value::MakeSet's sort, so the set builder must not pre-empt it.
bool Orderly(const Value& v, bool strict = false) {
  auto all = [strict](const std::vector<Value>& xs) {
    return std::all_of(xs.begin(), xs.end(),
                       [strict](const Value& x) { return Orderly(x, strict); });
  };
  auto real_ok = [strict](double d) {
    return !std::isnan(d) && !(strict && d == 0 && std::signbit(d));
  };
  switch (v.kind()) {
    case ValueKind::kBool:
    case ValueKind::kNat:
    case ValueKind::kString:
      return true;
    case ValueKind::kReal:
      return real_ok(v.real_value());
    case ValueKind::kTuple:
      return all(v.tuple_fields());
    case ValueKind::kSet:
      return all(v.set().elems);
    case ValueKind::kArray: {
      const ArrayRep& a = v.array();
      switch (a.payload) {
        case ArrayRep::Payload::kBoxed:
          return all(a.elems);
        case ArrayRep::Payload::kReals:
          return std::all_of(a.reals.begin(), a.reals.end(), real_ok);
        case ArrayRep::Payload::kNats:
        case ArrayRep::Payload::kBools:
          return true;
        case ArrayRep::Payload::kTiled:
          return false;
      }
      return false;
    }
    case ValueKind::kBottom:
    case ValueKind::kFunc:
      return false;
  }
  return false;
}

}  // namespace

// The elements of one set comprehension, in emission order. Finish()
// canonicalizes them (sorted under <_t, deduplicated) with the least
// work the order they arrived in allows: nothing when they ascended,
// dropping adjacent duplicates when they ascended with repeats, and
// Value::MakeSet's sort only otherwise. Comprehensions over sorted
// sources emit in ascending order far more often than not. Elements <_t
// cannot order strictly (Orderly) always take the sort, so the result is
// the one MakeSet gives even where the order is broken.
class SetBuilder {
 public:
  void Append(Value v) {
    Note(v);
    elems_.push_back(std::move(v));
  }
  // The element {(k, v)} of a pair comprehension. (The fields are moved
  // in: an initializer list would copy them.)
  void AppendPair(Value k, Value v) {
    std::vector<Value> fields;
    fields.reserve(2);
    fields.push_back(std::move(k));
    fields.push_back(std::move(v));
    Append(Value::MakeTuple(std::move(fields)));
  }
  // A canonical set ascends internally, so only its first element is
  // compared; every element must still be Orderly.
  void AppendSet(const SetRep& s) {
    if (s.elems.empty()) return;
    Note(s.elems.front());
    for (size_t i = 1; ascending_ && i < s.elems.size(); ++i) {
      ascending_ = Orderly(s.elems[i], /*strict=*/true);
    }
    elems_.insert(elems_.end(), s.elems.begin(), s.elems.end());
  }

  // Loop-driver protocol (DriveLoop): a parallel chunk collects into its
  // own builder, and chunks are absorbed in source order.
  SetBuilder ForChunk() const { return SetBuilder(); }
  Status Absorb(SetBuilder&& chunk) {
    if (chunk.elems_.empty()) return Status::OK();
    Note(chunk.elems_.front());
    ascending_ = ascending_ && chunk.ascending_;
    duplicates_ = duplicates_ || chunk.duplicates_;
    elems_.insert(elems_.end(), std::make_move_iterator(chunk.elems_.begin()),
                  std::make_move_iterator(chunk.elems_.end()));
    return Status::OK();
  }

  Value Finish() && {
    if (!ascending_) return Value::MakeSet(std::move(elems_));
    if (duplicates_) {
      elems_.erase(std::unique(elems_.begin(), elems_.end(),
                               [](const Value& a, const Value& b) {
                                 return Value::Compare(a, b) == 0;
                               }),
                   elems_.end());
    }
    if (elems_.size() > 1) {
      GlobalExecStats().sorts_skipped.fetch_add(1, std::memory_order_relaxed);
    }
    return Value::MakeSetCanonical(std::move(elems_));
  }

 private:
  void Note(const Value& next) {
    if (!ascending_) return;
    ascending_ = Orderly(next, /*strict=*/true);
    if (!ascending_ || elems_.empty()) return;
    const int c = Value::Compare(elems_.back(), next);
    if (c > 0) {
      ascending_ = false;
    } else if (c == 0) {
      duplicates_ = true;
    }
  }

  std::vector<Value> elems_;
  bool ascending_ = true;
  bool duplicates_ = false;
};

// The argument of index_k, filed as its loop emits it (docs/EXEC.md §7):
// each value goes to the bucket of its key, with no pair tuple, no pair
// set and no sort of the pairs, and each bucket is finished like a
// SetBuilder. A bucket of the canonical pair set holds its values in
// ascending order, so the array is the one IndexNode builds from that
// set, byte for byte — provided <_t orders every value strictly
// (Orderly) and every key has an extent. An emission that breaks this (a
// value that is not strictly Orderly, a key that is not a nat or a rank-k
// tuple of nats, a coordinate 2^64-1) leaves the sink unfiled, and so
// does a volume CheckedVolume refuses: IndexNode then re-runs the loop
// into a set, and its own code raises any key error after the loop, as
// before.
class IndexSink {
 public:
  explicit IndexSink(size_t rank) : dims_(rank, 0) {}

  void Append(const Value& pair) {
    if (pair.kind() != ValueKind::kTuple || pair.tuple_fields().size() != 2) {
      unfiled_ = true;
      return;
    }
    AppendPair(pair.tuple_fields()[0], pair.tuple_fields()[1]);
  }
  void AppendSet(const SetRep& s) {
    for (const Value& pair : s.elems) Append(pair);
  }
  void AppendPair(const Value& key, Value value) {
    if (unfiled_) return;
    const size_t rank = dims_.size();
    const Value* coords = &key;
    if (rank > 1) {
      if (key.kind() != ValueKind::kTuple || key.tuple_fields().size() != rank) {
        unfiled_ = true;
        return;
      }
      coords = key.tuple_fields().data();
    }
    for (size_t j = 0; j < rank; ++j) {
      if (coords[j].kind() != ValueKind::kNat || coords[j].nat_value() == UINT64_MAX) {
        unfiled_ = true;
        return;
      }
    }
    if (!Orderly(value, /*strict=*/true)) {
      unfiled_ = true;
      return;
    }
    for (size_t j = 0; j < rank; ++j) {
      keys_.push_back(coords[j].nat_value());
      dims_[j] = std::max(dims_[j], keys_.back() + 1);
    }
    values_.push_back(std::move(value));
  }

  // Loop-driver protocol (DriveLoop), as SetBuilder's.
  IndexSink ForChunk() const { return IndexSink(dims_.size()); }
  Status Absorb(IndexSink&& chunk) {
    unfiled_ = unfiled_ || chunk.unfiled_;
    if (unfiled_) return Status::OK();
    for (size_t j = 0; j < dims_.size(); ++j) dims_[j] = std::max(dims_[j], chunk.dims_[j]);
    keys_.insert(keys_.end(), chunk.keys_.begin(), chunk.keys_.end());
    values_.insert(values_.end(), std::make_move_iterator(chunk.values_.begin()),
                   std::make_move_iterator(chunk.values_.end()));
    return Status::OK();
  }

  // The index array, or nullopt when some emission could not be filed.
  Result<std::optional<Value>> Finish() && {
    if (unfiled_) return std::optional<Value>();
    Result<uint64_t> volume = CheckedVolume(dims_);
    if (!volume.ok()) return std::optional<Value>();
    const uint64_t total = *volume;
    const size_t rank = dims_.size();
    // Counting sort on the flat key, stable, so each bucket keeps the
    // emission order; afterwards end[b] is where bucket b ends.
    std::vector<uint64_t> flat(values_.size());
    std::vector<uint64_t> end(total, 0);
    for (size_t i = 0; i < values_.size(); ++i) {
      uint64_t f = 0;
      for (size_t j = 0; j < rank; ++j) f = f * dims_[j] + keys_[i * rank + j];
      flat[i] = f;
      ++end[f];
    }
    uint64_t begin = 0;
    for (uint64_t& e : end) begin += std::exchange(e, begin);
    std::vector<Value> sorted(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) sorted[end[flat[i]]++] = std::move(values_[i]);
    std::vector<Value> elems;
    elems.reserve(total);
    begin = 0;
    for (uint64_t b = 0; b < total; ++b) {
      SetBuilder bucket;
      for (; begin < end[b]; ++begin) bucket.Append(std::move(sorted[begin]));
      elems.push_back(std::move(bucket).Finish());
    }
    auto arr = Value::MakeArray(dims_, std::move(elems));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    return std::optional<Value>(std::move(arr).value());
  }

 private:
  std::vector<uint64_t> dims_;   // largest key + 1, per dimension
  std::vector<uint64_t> keys_;   // rank coordinates per filed value
  std::vector<Value> values_;    // in emission order
  bool unfiled_ = false;
};

namespace {

// Node::Emit's default: run the node and append the resulting set.
template <typename Sink>
Result<bool> EmitRun(const Node& node, Frame* frame, Sink* out) {
  AQL_ASSIGN_OR_RETURN(Value v, node.Run(frame));
  if (v.is_bottom()) return false;
  out->AppendSet(v.set());
  return true;
}

}  // namespace

Result<bool> Node::Emit(Frame* frame, SetBuilder* out) const {
  return EmitRun(*this, frame, out);
}
Result<bool> Node::Emit(Frame* frame, IndexSink* out) const {
  return EmitRun(*this, frame, out);
}

// A hash index of one probed source: element i's key and, sorted, the
// (hash of key, i) pairs, so the matches of one probe come out in
// ascending element order.
struct ProbeIndex {
  std::vector<const Value*> keys;  // into the memo's source set
  std::vector<std::pair<uint64_t, uint32_t>> by_hash;
};

namespace {

class SingletonNode : public Node {
 public:
  explicit SingletonNode(NodePtr inner) : inner_(std::move(inner)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value v, inner_->Run(f));
    if (v.is_bottom()) return Value::Bottom();
    return Value::MakeSetCanonical({std::move(v)});
  }
  Result<bool> Emit(Frame* f, SetBuilder* out) const override { return EmitTo(f, out); }
  Result<bool> Emit(Frame* f, IndexSink* out) const override { return EmitTo(f, out); }

 private:
  template <typename Sink>
  Result<bool> EmitTo(Frame* f, Sink* out) const {
    AQL_ASSIGN_OR_RETURN(Value v, inner_->Run(f));
    if (v.is_bottom()) return false;
    out->Append(std::move(v));
    return true;
  }

  NodePtr inner_;
};

// {(K, V)}: emits the pair through the sink's pair path, so an IndexSink
// files V under K without building the tuple.
class PairNode : public Node {
 public:
  PairNode(NodePtr key, NodePtr value) : key_(std::move(key)), value_(std::move(value)) {}
  Result<Value> Run(Frame* f) const override {
    SetBuilder out;
    AQL_ASSIGN_OR_RETURN(bool defined, EmitTo(f, &out));
    if (!defined) return Value::Bottom();
    return std::move(out).Finish();
  }
  Result<bool> Emit(Frame* f, SetBuilder* out) const override { return EmitTo(f, out); }
  Result<bool> Emit(Frame* f, IndexSink* out) const override { return EmitTo(f, out); }

 private:
  // The fields in order, as TupleNode evaluates them.
  template <typename Sink>
  Result<bool> EmitTo(Frame* f, Sink* out) const {
    AQL_ASSIGN_OR_RETURN(Value k, key_->Run(f));
    if (k.is_bottom()) return false;
    AQL_ASSIGN_OR_RETURN(Value v, value_->Run(f));
    if (v.is_bottom()) return false;
    out->AppendPair(std::move(k), std::move(v));
    return true;
  }

  NodePtr key_, value_;
};

class UnionNode : public Node {
 public:
  UnionNode(NodePtr a, NodePtr b) : a_(std::move(a)), b_(std::move(b)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value a, a_->Run(f));
    if (a.is_bottom()) return Value::Bottom();
    AQL_ASSIGN_OR_RETURN(Value b, b_->Run(f));
    if (b.is_bottom()) return Value::Bottom();
    return Value::SetUnion(a, b);
  }
  Result<bool> Emit(Frame* f, SetBuilder* out) const override { return EmitTo(f, out); }
  Result<bool> Emit(Frame* f, IndexSink* out) const override { return EmitTo(f, out); }

 private:
  // Both operands in order, as Run evaluates them; the sink merges.
  template <typename Sink>
  Result<bool> EmitTo(Frame* f, Sink* out) const {
    AQL_ASSIGN_OR_RETURN(bool defined, a_->Emit(f, out));
    if (!defined) return false;
    return b_->Emit(f, out);
  }

  NodePtr a_, b_;
};

// The Sum fold. Sequentially it adds each part as it comes; in a parallel
// chunk it keeps the parts, and absorbing the chunks in source order
// replays the sequential left-to-right addition (real rounding and the
// first mixed-kind error included).
class SumFold {
 public:
  Status Add(Value part) {
    if (deferred_) {
      parts_.push_back(std::move(part));
      return Status::OK();
    }
    if (first_) {
      is_real_ = part.kind() == ValueKind::kReal;
      first_ = false;
    }
    if (is_real_) {
      if (part.kind() != ValueKind::kReal) {
        return Status::EvalError("Sum body mixed nat and real");
      }
      real_total_ += part.real_value();
    } else {
      if (part.kind() != ValueKind::kNat) {
        return Status::EvalError("Sum body must be nat or real");
      }
      nat_total_ += part.nat_value();
    }
    return Status::OK();
  }
  SumFold ForChunk() const {
    SumFold chunk;
    chunk.deferred_ = true;
    return chunk;
  }
  Status Absorb(SumFold&& chunk) {
    for (Value& part : chunk.parts_) AQL_RETURN_IF_ERROR(Add(std::move(part)));
    return Status::OK();
  }
  Value Total() const {
    if (first_) return Value::Nat(0);  // empty source: nat 0 coerces either way
    return is_real_ ? Value::Real(real_total_) : Value::Nat(nat_total_);
  }

 private:
  uint64_t nat_total_ = 0;
  double real_total_ = 0;
  bool is_real_ = false;
  bool first_ = true;
  bool deferred_ = false;
  std::vector<Value> parts_;
};

// The elements one loop visits, by position: a materialized set or a
// counted gen(n) (element i is Nat(i)), narrowed to a contiguous element
// range or to a probe's matching elements.
struct LoopView {
  const std::vector<Value>* elems = nullptr;  // null: counted gen
  uint64_t lo = 0, hi = 0;                    // visited element range
  bool probed = false;                        // visit `picks` instead
  std::vector<uint32_t> picks;                // ascending element indices

  uint64_t size() const { return probed ? picks.size() : hi - lo; }
  Value At(uint64_t pos) const {
    const uint64_t i = probed ? picks[pos] : lo + pos;
    return elems != nullptr ? (*elems)[i] : Value::Nat(i);
  }
};

// The one loop driver of the set-driven loops (big union, sum). Binds the
// binder slot to each element of `view` in turn and runs `step(frame,
// acc)`, which evaluates the body and folds it into `acc`; step returns
// false when the body came out ⊥. Returns false on the first ⊥, the first
// error as a status, true otherwise.
//
// At or above the run's parallel threshold the positions after the first
// kWarmPositions are split into chunks over private Frame copies, each
// folding into acc->ForChunk(); the chunks before the lowest failing
// position are then absorbed into `acc` in source order, and that
// position's ⊥ or error is returned — exactly what the sequential loop
// stops at. The first positions run in the caller's frame: a probe in the
// body scans on its first visit and builds its index on the second, so
// every chunk's frame copy starts with that index instead of building its
// own. Loops above the boxed allocation limit stay sequential, since
// chunks may buffer one value per element. A non-OK status from the
// parallel machinery itself is an interrupt.
constexpr uint64_t kWarmPositions = 2;

template <typename Acc, typename Step>
Result<bool> DriveLoop(Frame* f, size_t binder_slot, const LoopView& view, Acc* acc,
                       const Step& step) {
  const uint64_t n = view.size();
  const bool parallel = f->knobs.par.ShouldParallelize(n) && n <= kBoxedAllocLimit;
  const uint64_t sequential = parallel ? std::min(n, kWarmPositions) : n;
  for (uint64_t i = 0; i < sequential; ++i) {
    AQL_RETURN_IF_ERROR(CheckInterrupt());
    f->slots[binder_slot] = view.At(i);
    AQL_ASSIGN_OR_RETURN(bool defined, step(f, acc));
    if (!defined) return false;
  }
  if (sequential == n) return true;
  struct Chunk {
    uint64_t begin;
    Acc acc;
  };
  std::vector<Chunk> chunks;
  std::atomic<uint64_t> terminal{UINT64_MAX};
  Mutex mu("exec.par.terminal", lock_rank::kExecTerminal);
  bool terminal_bottom = false;
  Status terminal_status;
  Status ps = ParallelFor(
      n - sequential,
      [&](uint64_t b, uint64_t e) -> Status {
        b += sequential;
        e += sequential;
        Frame local = *f;  // private register file per chunk
        Acc part = acc->ForChunk();
        for (uint64_t i = b; i < e; ++i) {
          if (((i - b) & 0x3FF) == 0) {
            AQL_RETURN_IF_ERROR(CheckInterrupt());
            if (terminal.load(std::memory_order_relaxed) < i) break;
          }
          local.slots[binder_slot] = view.At(i);
          Result<bool> r = step(&local, &part);
          if (!r.ok() || !r.value()) {
            MutexLock lock(&mu);
            if (i < terminal.load(std::memory_order_relaxed)) {
              terminal.store(i, std::memory_order_relaxed);
              terminal_bottom = r.ok();
              terminal_status = r.ok() ? Status::OK() : r.status();
            }
            break;
          }
        }
        MutexLock lock(&mu);
        chunks.push_back(Chunk{b, std::move(part)});
        return Status::OK();
      },
      f->knobs.par);
  AQL_RETURN_IF_ERROR(ps);
  std::sort(chunks.begin(), chunks.end(),
            [](const Chunk& a, const Chunk& b) { return a.begin < b.begin; });
  const uint64_t stop = terminal.load(std::memory_order_relaxed);
  for (Chunk& c : chunks) {
    if (c.begin > stop) break;
    AQL_RETURN_IF_ERROR(acc->Absorb(std::move(c.acc)));
  }
  if (stop == UINT64_MAX) return true;
  if (terminal_bottom) return false;
  return terminal_status;
}

// Where a comprehension's elements come from: a set-valued node, or the
// count n of a `gen(n)` source, which then runs as a counted loop without
// materializing the set.
struct LoopSource {
  NodePtr node;
  bool counted = false;

  // Evaluates the source into `view` (`*held` keeps a set alive). False
  // when it is ⊥; a non-nat count fails as GenNode does.
  Result<bool> Open(Frame* f, Value* held, LoopView* view) const {
    AQL_ASSIGN_OR_RETURN(*held, node->Run(f));
    if (held->is_bottom()) return false;
    if (counted) {
      if (held->kind() != ValueKind::kNat) return Status::EvalError("gen of non-nat");
      view->hi = held->nat_value();
    } else {
      view->elems = &held->set().elems;
      view->hi = view->elems->size();
    }
    return true;
  }
};

// The guard a comprehension body was admitted under (chosen at compile
// time by Compiler::CompileUnionBody). For a body `if C then B else {}`:
//   kProbe: C is K(x) = O with K a projection path of the binder x, O free
//           of x, the source loop-invariant — a hash probe of the source;
//   kRange: C is x op O (or O op x) with op one of < <= > >= =, O free of
//           x — the contiguous range of the ascending source where C holds.
// `outer` (O) and `then` (B) are owned by the loop's full body node, which
// the loop still runs whenever it has to scan.
struct LoopGuard {
  enum class Kind { kNone, kProbe, kRange };
  Kind kind = Kind::kNone;
  CmpOp op = CmpOp::kEq;  // kRange: normalized to `x op O`
  std::vector<std::pair<size_t, size_t>> key_path;  // kProbe: (index, arity), innermost first
  const Node* outer = nullptr;
  const Node* then = nullptr;

  // K(x), mirroring ProjNode; null when the path does not apply.
  const Value* KeyOf(const Value& x) const {
    const Value* v = &x;
    for (const auto& [index, arity] : key_path) {
      if (v->kind() != ValueKind::kTuple || v->tuple_fields().size() != arity) return nullptr;
      v = &v->tuple_fields()[index - 1];
    }
    return v;
  }
};

// The memo of `site` in this frame for source `src`, reset when the
// source is a different set than last time.
ProbeMemo* MemoFor(Frame* f, const void* site, const Value& src) {
  for (ProbeMemo& m : f->probes) {
    if (m.site != site) continue;
    if (&m.source.set() != &src.set()) m = ProbeMemo(site, src);
    return &m;
  }
  f->probes.emplace_back(site, src);
  return &f->probes.back();
}

class BigUnionNode : public Node {
 public:
  BigUnionNode(size_t binder_slot, NodePtr body, LoopSource source, LoopGuard guard)
      : binder_slot_(binder_slot),
        body_(std::move(body)),
        source_(std::move(source)),
        guard_(std::move(guard)) {}

  Result<Value> Run(Frame* f) const override {
    SetBuilder out;
    AQL_ASSIGN_OR_RETURN(bool defined, Emit(f, &out));
    if (!defined) return Value::Bottom();
    return std::move(out).Finish();
  }

  Result<bool> Emit(Frame* f, SetBuilder* out) const override { return EmitTo(f, out); }
  Result<bool> Emit(Frame* f, IndexSink* out) const override { return EmitTo(f, out); }

 private:
  template <typename Sink>
  Result<bool> EmitTo(Frame* f, Sink* out) const {
    Value src;
    LoopView view;
    AQL_ASSIGN_OR_RETURN(bool defined, source_.Open(f, &src, &view));
    if (!defined) return false;
    const Node* body = body_.get();
    if (guard_.kind != LoopGuard::Kind::kNone && view.size() > 0) {
      AQL_ASSIGN_OR_RETURN(Narrowing n, guard_.kind == LoopGuard::Kind::kRange
                                            ? NarrowToRange(f, src, &view)
                                            : NarrowByProbe(f, src, &view));
      if (n == Narrowing::kBottom) return false;
      if (n == Narrowing::kNarrowed) body = guard_.then;
    }
    return DriveLoop(f, binder_slot_, view, out,
                     [body](Frame* fr, Sink* acc) { return body->Emit(fr, acc); });
  }

  // kNarrowed: the view holds exactly the elements the guard admits, and
  // the loop runs the guarded branch only. kScan: the guard cannot be
  // used on this source or outer value; the loop runs the full body over
  // every element. kBottom: the outer term is ⊥, which the scan would
  // have hit at the first element.
  enum class Narrowing { kNarrowed, kScan, kBottom };

  // Evaluates O, once. The scan would evaluate it at the first element,
  // after a key or binder that cannot fail, so its ⊥ or error is the one
  // the scan reports.
  Result<Narrowing> Outer(Frame* f, Value* o) const {
    AQL_ASSIGN_OR_RETURN(*o, guard_.outer->Run(f));
    if (o->is_bottom()) return Narrowing::kBottom;
    return Orderly(*o) ? Narrowing::kNarrowed : Narrowing::kScan;
  }

  Result<Narrowing> NarrowToRange(Frame* f, const Value& src, LoopView* view) const {
    if (view->elems != nullptr) {
      ProbeMemo* memo = MemoFor(f, this, src);
      if (memo->visits++ == 0) {
        memo->usable = std::all_of(view->elems->begin(), view->elems->end(),
                                   [](const Value& x) { return Orderly(x); });
      }
      if (!memo->usable) return Narrowing::kScan;
    }
    Value o;
    AQL_ASSIGN_OR_RETURN(Narrowing n, Outer(f, &o));
    if (n != Narrowing::kNarrowed) return n;
    // The view is the whole source here (lo == 0). First position whose
    // element is >= o (upper: > o).
    auto bound = [&](bool upper) {
      uint64_t lo = 0, hi = view->size();
      while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        const int c = Value::Compare(view->At(mid), o);
        if (upper ? c <= 0 : c < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    };
    uint64_t lo = 0, hi = view->size();
    switch (guard_.op) {
      case CmpOp::kLt: hi = bound(false); break;
      case CmpOp::kLe: hi = bound(true); break;
      case CmpOp::kGt: lo = bound(true); break;
      case CmpOp::kGe: lo = bound(false); break;
      case CmpOp::kEq:
        lo = bound(false);
        hi = bound(true);
        break;
      case CmpOp::kNe: return Narrowing::kScan;  // not admitted at compile time
    }
    view->lo = lo;
    view->hi = hi;
    GlobalExecStats().set_ranges.fetch_add(1, std::memory_order_relaxed);
    return Narrowing::kNarrowed;
  }

  Result<Narrowing> NarrowByProbe(Frame* f, const Value& src, LoopView* view) const {
    std::shared_ptr<const ProbeIndex> index;
    {
      ProbeMemo* memo = MemoFor(f, this, src);
      if (!memo->usable) return Narrowing::kScan;
      // A source probed once is cheaper to scan than to index.
      if (memo->index == nullptr && memo->visits++ == 0) return Narrowing::kScan;
      if (memo->index == nullptr) {
        AQL_ASSIGN_OR_RETURN(memo->index, BuildIndex(*view->elems));
        if (memo->index == nullptr) {
          memo->usable = false;
          return Narrowing::kScan;
        }
      }
      index = memo->index;  // O may run loops that grow f->probes
    }
    Value o;
    AQL_ASSIGN_OR_RETURN(Narrowing n, Outer(f, &o));
    if (n != Narrowing::kNarrowed) return n;
    const uint64_t h = HashValue(o);
    auto it = std::lower_bound(index->by_hash.begin(), index->by_hash.end(),
                               std::pair<uint64_t, uint32_t>{h, 0});
    view->probed = true;
    for (; it != index->by_hash.end() && it->first == h; ++it) {
      if (Value::Compare(*index->keys[it->second], o) == 0) view->picks.push_back(it->second);
    }
    GlobalExecStats().set_probes.fetch_add(1, std::memory_order_relaxed);
    return Narrowing::kNarrowed;
  }

  // Null when some element's key is missing or not Orderly: the scan then
  // meets that element exactly as the tree walker does.
  Result<std::shared_ptr<const ProbeIndex>> BuildIndex(const std::vector<Value>& xs) const {
    if (xs.size() > UINT32_MAX) return std::shared_ptr<const ProbeIndex>();
    auto index = std::make_shared<ProbeIndex>();
    index->keys.reserve(xs.size());
    index->by_hash.reserve(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
      if ((i & 0x3FF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
      const Value* key = guard_.KeyOf(xs[i]);
      if (key == nullptr || !Orderly(*key)) return std::shared_ptr<const ProbeIndex>();
      index->keys.push_back(key);
      index->by_hash.emplace_back(HashValue(*key), static_cast<uint32_t>(i));
    }
    std::sort(index->by_hash.begin(), index->by_hash.end());
    return std::shared_ptr<const ProbeIndex>(std::move(index));
  }

  size_t binder_slot_;
  NodePtr body_;
  LoopSource source_;
  LoopGuard guard_;
};

class GetNode : public Node {
 public:
  explicit GetNode(NodePtr inner) : inner_(std::move(inner)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value v, inner_->Run(f));
    if (v.is_bottom()) return Value::Bottom();
    if (v.set().elems.size() != 1) return Value::Bottom();
    return v.set().elems[0];
  }

 private:
  NodePtr inner_;
};

class IfNode : public Node {
 public:
  IfNode(NodePtr cond, NodePtr then_n, NodePtr else_n)
      : cond_(std::move(cond)), then_(std::move(then_n)), else_(std::move(else_n)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value c, cond_->Run(f));
    if (c.is_bottom()) return Value::Bottom();
    return (c.bool_value() ? then_ : else_)->Run(f);
  }
  Result<bool> Emit(Frame* f, SetBuilder* out) const override { return EmitTo(f, out); }
  Result<bool> Emit(Frame* f, IndexSink* out) const override { return EmitTo(f, out); }

 private:
  template <typename Sink>
  Result<bool> EmitTo(Frame* f, Sink* out) const {
    AQL_ASSIGN_OR_RETURN(Value c, cond_->Run(f));
    if (c.is_bottom()) return false;
    return (c.bool_value() ? then_ : else_)->Emit(f, out);
  }

  NodePtr cond_, then_, else_;
};

class CmpNode : public Node {
 public:
  CmpNode(CmpOp op, NodePtr a, NodePtr b) : op_(op), a_(std::move(a)), b_(std::move(b)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value a, a_->Run(f));
    if (a.is_bottom()) return Value::Bottom();
    AQL_ASSIGN_OR_RETURN(Value b, b_->Run(f));
    if (b.is_bottom()) return Value::Bottom();
    int c = Value::Compare(a, b);
    switch (op_) {
      case CmpOp::kEq: return Value::Bool(c == 0);
      case CmpOp::kNe: return Value::Bool(c != 0);
      case CmpOp::kLt: return Value::Bool(c < 0);
      case CmpOp::kLe: return Value::Bool(c <= 0);
      case CmpOp::kGt: return Value::Bool(c > 0);
      case CmpOp::kGe: return Value::Bool(c >= 0);
    }
    return Status::Internal("bad cmp op");
  }

 private:
  CmpOp op_;
  NodePtr a_, b_;
};

class ArithNode : public Node {
 public:
  ArithNode(ArithOp op, NodePtr a, NodePtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value a, a_->Run(f));
    if (a.is_bottom()) return Value::Bottom();
    AQL_ASSIGN_OR_RETURN(Value b, b_->Run(f));
    if (b.is_bottom()) return Value::Bottom();
    if (a.kind() == ValueKind::kNat && b.kind() == ValueKind::kNat) {
      uint64_t x = a.nat_value(), y = b.nat_value();
      switch (op_) {
        case ArithOp::kAdd: return Value::Nat(x + y);
        case ArithOp::kMonus: return Value::Nat(x >= y ? x - y : 0);
        case ArithOp::kMul: return Value::Nat(x * y);
        case ArithOp::kDiv: return y == 0 ? Value::Bottom() : Value::Nat(x / y);
        case ArithOp::kMod: return y == 0 ? Value::Bottom() : Value::Nat(x % y);
      }
    }
    if (a.kind() == ValueKind::kReal && b.kind() == ValueKind::kReal) {
      double x = a.real_value(), y = b.real_value();
      switch (op_) {
        case ArithOp::kAdd: return Value::Real(x + y);
        case ArithOp::kMonus: return Value::Real(x - y);
        case ArithOp::kMul: return Value::Real(x * y);
        case ArithOp::kDiv: return Value::Real(x / y);
        case ArithOp::kMod: return Value::Real(std::fmod(x, y));
      }
    }
    return Status::EvalError("arithmetic on non-numeric values");
  }

 private:
  ArithOp op_;
  NodePtr a_, b_;
};

class GenNode : public Node {
 public:
  explicit GenNode(NodePtr inner) : inner_(std::move(inner)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value n, inner_->Run(f));
    if (n.is_bottom()) return Value::Bottom();
    if (n.kind() != ValueKind::kNat) return Status::EvalError("gen of non-nat");
    std::vector<Value> elems;
    // Clamped so a huge bound reaches the interrupt checks below rather
    // than dying up front in one giant allocation.
    elems.reserve(std::min<uint64_t>(n.nat_value(), uint64_t{1} << 20));
    for (uint64_t i = 0; i < n.nat_value(); ++i) {
      if ((i & 0xFFF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
      elems.push_back(Value::Nat(i));
    }
    return Value::MakeSetCanonical(std::move(elems));
  }

 private:
  NodePtr inner_;
};

// Compile-time aggregate pruning: a sum nest of the shape
//   sum i1 < e1. ... sum ik < ek. S[i1+lo1, ..., ik+lok]
// over a tiled-array literal reads row-by-row instead of materializing,
// and skips the read entirely for any leading row a zone map proves
// constant (LazyRealSlab::ConstantRowRun) — the fold is replayed on the
// constant with the exact same left-to-right addition order, so results
// stay bit-identical to the generic nested SumNode path.
struct SumPushdown {
  Value base;                    // the tiled-array literal (keeps the slab alive)
  std::vector<uint64_t> lower;   // per-dimension constant offsets
  std::vector<uint64_t> extent;  // per-binder trip counts e1..ek
  uint64_t row_volume = 1;       // product(extent[1..]) — one leading row
};

// The base both pushdowns read: a tiled-array LITERAL of rank k — how a
// resolved out-of-core readval appears in a plan, so the region is known
// to come straight from storage. nullptr for anything else.
const Value* TiledLiteral(const ExprPtr& base, size_t k) {
  if (!base->is(ExprKind::kLiteral)) return nullptr;
  const Value& v = base->literal();
  if (v.kind() != ValueKind::kArray || v.array().payload != ArrayRep::Payload::kTiled ||
      v.array().dims.size() != k) {
    return nullptr;
  }
  return &v;
}

// Matches the whole nest rooted at `e`: each level must be a sum over
// `gen(const)`, and the innermost body a unit-stride slab access
// (analysis::MatchSlab over the nest binders, outermost first) of a tiled
// literal. The compile-time fits check makes every iteration provably in
// range, so the body is total and the pruned fold needs no per-point ⊥
// handling. Records an aggregate-prune proof certificate naming the
// per-dimension range facts.
std::unique_ptr<const SumPushdown> TryMatchSumPushdown(const ExprPtr& e,
                                                       analysis::Proof* proof) {
  auto nat_of = [](const ExprPtr& x, uint64_t* out) {
    if (x->is(ExprKind::kNatConst)) {
      *out = x->nat_const();
      return true;
    }
    if (x->is(ExprKind::kLiteral) && x->literal().kind() == ValueKind::kNat) {
      *out = x->literal().nat_value();
      return true;
    }
    return false;
  };
  std::vector<std::string> binders;
  std::vector<uint64_t> extents;
  ExprPtr cur = e;
  while (cur->is(ExprKind::kSum)) {
    const ExprPtr& src = cur->child(1);
    uint64_t n = 0;
    if (!src->is(ExprKind::kGen) || !nat_of(src->child(0), &n)) return nullptr;
    binders.push_back(cur->binder());
    extents.push_back(n);
    cur = cur->child(0);
  }
  const size_t k = binders.size();
  if (k == 0) return nullptr;
  std::optional<analysis::SlabAccess> slab = analysis::MatchSlab(cur, binders);
  if (!slab) return nullptr;
  const Value* v = TiledLiteral(slab->base, k);
  if (v == nullptr) return nullptr;
  for (size_t j = 0; j < k; ++j) {
    if (slab->stride[j] != 1) return nullptr;
    // Every touched coordinate must be in range: lo + (e-1) < dim.
    const uint64_t dim = v->array().dims[j];
    if (extents[j] > dim || slab->offset[j] > dim - extents[j]) return nullptr;
  }
  auto pd = std::make_unique<SumPushdown>();
  pd->base = *v;
  pd->lower = std::move(slab->offset);
  pd->extent = extents;
  for (size_t j = 1; j < k; ++j) {
    if (extents[j] != 0 && pd->row_volume > kUnboxedAllocLimit / extents[j]) {
      return nullptr;  // a single row would blow the buffer budget
    }
    pd->row_volume *= extents[j];
  }
  if (proof != nullptr) {
    std::vector<std::string> facts;
    for (size_t j = 0; j < k; ++j) {
      facts.push_back(StrCat("dim ", j, ": ", binders[j], " + ", pd->lower[j],
                             " sweeps [", pd->lower[j], ", ",
                             pd->lower[j] + (extents[j] == 0 ? 0 : extents[j] - 1),
                             "] inside extent ", v->array().dims[j]));
    }
    proof->Add("aggregate-prune",
               StrCat("sum over ", analysis::RenderArrayExpr(slab->base)),
               std::move(facts));
  }
  return pd;
}

// The fewest elements a standalone Sum folds with its kernel: below this
// the kernel's instantiation costs more than the boxed loop it replaces,
// which matters for a Sum run once per element of an enclosing generic
// loop.
constexpr uint64_t kSumKernelMinTrips = 32;

class SumNode : public Node {
 public:
  SumNode(size_t binder_slot, NodePtr body, LoopSource source,
          std::unique_ptr<const KernelSpec> kernel_spec,
          std::unique_ptr<const SumPushdown> pushdown)
      : binder_slot_(binder_slot),
        body_(std::move(body)),
        source_(std::move(source)),
        kernel_spec_(std::move(kernel_spec)),
        pushdown_(std::move(pushdown)) {}
  Result<Value> Run(Frame* f) const override {
    if (pushdown_ != nullptr && f->knobs.pushdown) return RunPruned();
    Value src;
    LoopView view;
    AQL_ASSIGN_OR_RETURN(bool defined, source_.Open(f, &src, &view));
    if (!defined) return Value::Bottom();
    if (kernel_spec_ != nullptr && view.size() >= kSumKernelMinTrips) {
      AQL_ASSIGN_OR_RETURN(std::optional<Value> total, RunKernel(f, view));
      if (total) {
        GlobalExecStats().sum_kernels.fetch_add(1, std::memory_order_relaxed);
        return *std::move(total);
      }
    }
    SumFold fold;
    AQL_ASSIGN_OR_RETURN(
        defined, DriveLoop(f, binder_slot_, view, &fold,
                           [this](Frame* fr, SumFold* acc) -> Result<bool> {
                             AQL_ASSIGN_OR_RETURN(Value part, body_->Run(fr));
                             if (part.is_bottom()) return false;
                             AQL_RETURN_IF_ERROR(acc->Add(std::move(part)));
                             return true;
                           }));
    if (!defined) return Value::Bottom();
    return fold.Total();
  }

 private:
  // The typed fold of an admitted body: binder 0 of the kernel is the
  // Sum's binder. Nat addition wraps, so a nat fold may be chunked; a real
  // fold runs left to right from 0.0, as SumFold adds. nullopt sends the
  // Sum down the generic path: the source holds a non-nat, the frame does
  // not fit the spec, the body is bool (SumFold's error), or a part is ⊥
  // (the generic loop then reports the first ⊥ or error in source order).
  Result<std::optional<Value>> RunKernel(Frame* f, const LoopView& view) const {
    std::vector<uint64_t> elems;  // a set source's elements; empty: counted
    if (view.elems != nullptr) {
      elems.reserve(view.size());
      for (const Value& x : *view.elems) {
        if (x.kind() != ValueKind::kNat) return std::optional<Value>();
        elems.push_back(x.nat_value());
      }
    }
    std::unique_ptr<Kernel> kernel = Kernel::Instantiate(*kernel_spec_, *f);
    if (kernel == nullptr) return std::optional<Value>();
    const Kernel& k = *kernel;
    const bool unchecked = k.unchecked() && f->knobs.unchecked;
    const size_t width = std::max<size_t>(1, k.binders());
    const uint64_t n = view.size();
    auto element = [&elems](uint64_t i) { return elems.empty() ? i : elems[i]; };
    std::optional<Value> total;
    switch (k.result_type()) {
      case Kernel::Type::kNat: {
        std::atomic<uint64_t> sum{0};
        std::atomic<bool> bottom{false};
        Status ps = ParallelFor(n, [&](uint64_t begin, uint64_t end) -> Status {
          std::vector<uint64_t> idx(width);
          uint64_t part = 0;
          for (uint64_t i = begin; i < end; ++i) {
            if (((i - begin) & 0xFFF) == 0) {
              AQL_RETURN_IF_ERROR(CheckInterrupt());
              if (bottom.load(std::memory_order_relaxed)) return Status::OK();
            }
            idx[0] = element(i);
            uint64_t v;
            if (unchecked) {
              v = k.EvalNatUnchecked(idx.data());
            } else if (!k.EvalNat(idx.data(), &v)) {
              bottom.store(true, std::memory_order_relaxed);
              return Status::OK();
            }
            part += v;
          }
          sum.fetch_add(part, std::memory_order_relaxed);
          return Status::OK();
        }, f->knobs.par);
        AQL_RETURN_IF_ERROR(ps);
        if (bottom.load(std::memory_order_relaxed)) return std::optional<Value>();
        total = Value::Nat(sum.load(std::memory_order_relaxed));
        break;
      }
      case Kernel::Type::kReal: {
        std::vector<uint64_t> idx(width);
        double sum = 0;
        for (uint64_t i = 0; i < n; ++i) {
          if ((i & 0xFFF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
          idx[0] = element(i);
          double v;
          if (unchecked) {
            v = k.EvalRealUnchecked(idx.data());
          } else if (!k.EvalReal(idx.data(), &v)) {
            return std::optional<Value>();
          }
          sum += v;
        }
        total = Value::Real(sum);
        break;
      }
      case Kernel::Type::kBool:
        return std::optional<Value>();
    }
    // A Sum nested in the body stops early when interrupted.
    AQL_RETURN_IF_ERROR(CheckInterrupt());
    return total;
  }

  // The pruned fold: row-by-row over the leading dimension, consulting the
  // slab's zone maps first. Mirrors the generic nest exactly — each leading
  // row contributes its own inner left-to-right fold, and rows accumulate
  // left-to-right — so a run of constant rows adds the SAME inner sub-sum
  // once per row instead of re-reading the tile.
  Result<Value> RunPruned() const {
    const SumPushdown& pd = *pushdown_;
    for (uint64_t ext : pd.extent) {
      // An empty trip count anywhere makes every (nested) fold start and
      // stay at the nat identity, exactly like the generic path.
      if (ext == 0) return Value::Nat(0);
    }
    const LazyRealSlab& slab = *pd.base.array().tiled;
    const size_t k = pd.extent.size();
    std::vector<double> row(pd.row_volume);
    std::vector<uint64_t> start(k), count(k);
    for (size_t j = 1; j < k; ++j) {
      start[j] = pd.lower[j];
      count[j] = pd.extent[j];
    }
    double total = 0;
    for (uint64_t i = 0; i < pd.extent[0];) {
      AQL_RETURN_IF_ERROR(CheckInterrupt());
      const uint64_t r = pd.lower[0] + i;
      double c = 0;
      const uint64_t run = slab.ConstantRowRun(r, &c);
      if (run > 0) {
        const double sub = FoldConst(c, 1);
        const uint64_t cover = std::min<uint64_t>(run, pd.extent[0] - i);
        for (uint64_t t = 0; t < cover; ++t) total += sub;
        i += cover;
        continue;
      }
      start[0] = r;
      count[0] = 1;
      AQL_RETURN_IF_ERROR(slab.ReadInto(start, count, row.data()));
      size_t pos = 0;
      total += FoldRow(row.data(), &pos, 1);
      ++i;
    }
    return Value::Real(total);
  }

  // Inner fold of one leading row, replicating the nested SumNode
  // addition order (level j sums extent[j] sub-folds left-to-right).
  double FoldRow(const double* row, size_t* pos, size_t level) const {
    if (level == pushdown_->extent.size()) return row[(*pos)++];
    double s = 0;
    for (uint64_t t = 0; t < pushdown_->extent[level]; ++t) {
      s += FoldRow(row, pos, level + 1);
    }
    return s;
  }
  double FoldConst(double c, size_t level) const {
    if (level == pushdown_->extent.size()) return c;
    double s = 0;
    for (uint64_t t = 0; t < pushdown_->extent[level]; ++t) {
      s += FoldConst(c, level + 1);
    }
    return s;
  }

  size_t binder_slot_;
  NodePtr body_;
  LoopSource source_;
  std::unique_ptr<const KernelSpec> kernel_spec_;
  std::unique_ptr<const SumPushdown> pushdown_;
};

// Compile-time subslab pushdown: a tabulation of the shape
//   [[ S[i1+lo1, ..., ik+lok] | i1 < e1, ..., ik < ek ]]
// where S is a tiled-array literal (a resolved out-of-core readval) turns
// into ONE bulk range read against the tile store — the optimizer's
// subscript-range constraints pushed down into TileStore instead of
// materializing the whole variable and gathering point-wise.
struct TabPushdown {
  Value base;                    // the tiled-array literal (keeps the slab alive)
  std::vector<uint64_t> lower;   // per-dimension constant offsets
  std::vector<uint64_t> stride;  // per-dimension strides (>= 1)
};

// Detects the pushdown-eligible tabulation shape at compile time: the body
// is a slab access (analysis::MatchSlab over the tab binders, any strides)
// of a tiled literal of the tab's rank.
std::unique_ptr<const TabPushdown> TryMatchPushdown(const ExprPtr& e,
                                                    analysis::Proof* proof) {
  const size_t k = e->tab_rank();
  const std::vector<std::string>& binders = e->binders();
  std::optional<analysis::SlabAccess> slab = analysis::MatchSlab(e->tab_body(), binders);
  if (!slab) return nullptr;
  const Value* v = TiledLiteral(slab->base, k);
  if (v == nullptr) return nullptr;
  auto pd = std::make_unique<TabPushdown>();
  pd->base = *v;
  pd->lower = std::move(slab->offset);
  pd->stride = std::move(slab->stride);
  if (proof != nullptr) {
    bool unit = true;
    std::vector<std::string> facts;
    for (size_t j = 0; j < k; ++j) {
      if (pd->stride[j] != 1) unit = false;
      facts.push_back(StrCat("dim ", j, ": index = ", pd->lower[j], " + ",
                             pd->stride[j], "*", binders[j], " (affine in ",
                             binders[j], ")"));
    }
    proof->Add(unit ? "subslab-pushdown" : "strided-pushdown",
               StrCat("tab over ", analysis::RenderArrayExpr(slab->base)),
               std::move(facts));
  }
  return pd;
}

class TabNode : public Node {
 public:
  TabNode(std::vector<size_t> binder_slots, NodePtr body, std::vector<NodePtr> bounds,
          std::unique_ptr<const KernelSpec> kernel_spec,
          std::unique_ptr<const TabPushdown> pushdown)
      : binder_slots_(std::move(binder_slots)),
        body_(std::move(body)),
        bounds_(std::move(bounds)),
        kernel_spec_(std::move(kernel_spec)),
        pushdown_(std::move(pushdown)) {}

  Result<Value> Run(Frame* f) const override {
    size_t k = binder_slots_.size();
    std::vector<uint64_t> dims(k);
    for (size_t j = 0; j < k; ++j) {
      AQL_ASSIGN_OR_RETURN(Value b, bounds_[j]->Run(f));
      if (b.is_bottom()) return Value::Bottom();
      if (b.kind() != ValueKind::kNat) {
        return Status::EvalError("tabulation bound is not a nat");
      }
      dims[j] = b.nat_value();
    }
    AQL_ASSIGN_OR_RETURN(uint64_t total, CheckedVolume(dims));
    if (total == 0) {
      auto arr = Value::MakeArray(std::move(dims), {});
      if (!arr.ok()) return Status::Internal(arr.status().message());
      return std::move(arr).value();
    }

    // Subslab pushdown: one bulk tile-store range read replaces the whole
    // gather loop. Only when the requested region fits inside the base —
    // an out-of-range region must fall through so each out-of-bounds
    // point keeps its ⊥ hole (bit-identical to the generic path; in-range
    // elements are decoded by the very same tile reads either way).
    if (pushdown_ != nullptr && total <= kUnboxedAllocLimit && f->knobs.pushdown) {
      const ArrayRep& base = pushdown_->base.array();
      bool fits = base.dims.size() == k;
      bool unit = true;
      for (size_t j = 0; fits && j < k; ++j) {
        // Every touched coordinate lower+stride*(dims[j]-1) must be in
        // range (dims[j] >= 1 here: total > 0), without overflowing.
        const uint64_t s = pushdown_->stride[j];
        if (s != 1) unit = false;
        fits = s >= 1 && dims[j] - 1 <= UINT64_MAX / s;
        if (fits) {
          const uint64_t span = s * (dims[j] - 1);
          fits = span <= base.dims[j] - 1 &&
                 pushdown_->lower[j] <= base.dims[j] - 1 - span;
        }
      }
      if (fits && unit) {
        std::vector<double> buf(total);
        // An I/O failure here is the query's error: the generic path would
        // hit the same failing read element-wise.
        AQL_RETURN_IF_ERROR(base.tiled->ReadInto(pushdown_->lower, dims, buf.data()));
        auto arr = Value::MakeRealArray(dims, std::move(buf));
        if (!arr.ok()) return Status::Internal(arr.status().message());
        GlobalExecStats().tab_pushdowns.fetch_add(1, std::memory_order_relaxed);
        GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
        return std::move(arr).value();
      }
      if (fits) {
        AQL_ASSIGN_OR_RETURN(Value arr, RunStridedPushdown(dims, total));
        GlobalExecStats().tab_pushdowns.fetch_add(1, std::memory_order_relaxed);
        GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
        return arr;
      }
    }

    // Fused kernel: scalar body over an unboxed result buffer. A ⊥ at any
    // point aborts the kernel and re-runs generically (the partial array
    // keeps per-point ⊥ holes, which the unboxed payloads cannot hold).
    // When instantiation discharges every ⊥ source statically, the loop
    // drops the per-cell checks entirely (the kill switch is read once per
    // run, so tests and benchmarks can toggle it in-process).
    if (kernel_spec_ != nullptr && total <= kUnboxedAllocLimit) {
      if (std::unique_ptr<Kernel> kernel = Kernel::Instantiate(*kernel_spec_, *f)) {
        ExecStats& stats = GlobalExecStats();
        if (kernel->unchecked() && f->knobs.unchecked) {
          AQL_ASSIGN_OR_RETURN(Value arr,
                               RunKernelUnchecked(*kernel, dims, total, f->knobs.par));
          stats.unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
          stats.unchecked_kernels.fetch_add(1, std::memory_order_relaxed);
          stats.sum_kernels.fetch_add(kernel->sums(), std::memory_order_relaxed);
          return arr;
        }
        bool bottom_seen = false;
        AQL_ASSIGN_OR_RETURN(Value arr,
                             RunKernel(*kernel, dims, total, f->knobs.par, &bottom_seen));
        if (!bottom_seen) {
          stats.unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
          stats.sum_kernels.fetch_add(kernel->sums(), std::memory_order_relaxed);
          return arr;
        }
      }
    }

    // Generic parallel: chunked body interpretation over private frames,
    // elements written straight into their row-major slots.
    if (f->knobs.par.ShouldParallelize(total) && total <= kBoxedAllocLimit) {
      std::vector<Value> elems(total);
      Status ps = ParallelFor(total, [&](uint64_t begin, uint64_t end) -> Status {
        Frame local = *f;
        std::vector<uint64_t> index = DecodeIndex(begin, dims);
        for (uint64_t flat = begin; flat < end; ++flat) {
          if (((flat - begin) & 0x3FF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
          for (size_t j = 0; j < k; ++j) {
            local.slots[binder_slots_[j]] = Value::Nat(index[j]);
          }
          AQL_ASSIGN_OR_RETURN(Value v, body_->Run(&local));
          elems[flat] = std::move(v);  // bottom stays per-point (partial arrays)
          IncrementIndex(index, dims);
        }
        return Status::OK();
      }, f->knobs.par);
      AQL_RETURN_IF_ERROR(ps);
      return Finish(std::move(dims), std::move(elems));
    }

    // Sequential fallback; also the only path for totals beyond the eager
    // allocation limits, so oversized tabulations stay cancellable.
    std::vector<Value> elems;
    elems.reserve(std::min<uint64_t>(total, uint64_t{1} << 20));
    std::vector<uint64_t> index(k, 0);
    for (uint64_t flat = 0; flat < total; ++flat) {
      AQL_RETURN_IF_ERROR(CheckInterrupt());
      for (size_t j = 0; j < k; ++j) f->slots[binder_slots_[j]] = Value::Nat(index[j]);
      AQL_ASSIGN_OR_RETURN(Value v, body_->Run(f));
      elems.push_back(std::move(v));  // bottom stays per-point (partial arrays)
      IncrementIndex(index, dims);
    }
    return Finish(std::move(dims), std::move(elems));
  }

 private:
  // Strided bulk read: one output row at a time, decimating covering
  // range reads on the last dimension. Bit-identical to the generic
  // gather (the same tile decode serves both); strides and bounds were
  // validated by the caller's fits check.
  Result<Value> RunStridedPushdown(const std::vector<uint64_t>& dims,
                                   uint64_t total) const {
    const ArrayRep& base = pushdown_->base.array();
    const LazyRealSlab& slab = *base.tiled;
    const size_t k = dims.size();
    std::vector<double> buf(total);
    const uint64_t lastn = dims[k - 1];
    const uint64_t lasts = pushdown_->stride[k - 1];
    const uint64_t rows = total / lastn;  // lastn >= 1 (total > 0)
    std::vector<uint64_t> outer(k > 1 ? k - 1 : 0, 0);
    std::vector<uint64_t> start(k), count(k, 1);
    std::vector<double> tmp;
    for (uint64_t r = 0; r < rows; ++r) {
      AQL_RETURN_IF_ERROR(CheckInterrupt());
      for (size_t j = 0; j + 1 < k; ++j) {
        start[j] = pushdown_->lower[j] + pushdown_->stride[j] * outer[j];
      }
      double* out = &buf[r * lastn];
      if (lasts == 1) {
        start[k - 1] = pushdown_->lower[k - 1];
        count[k - 1] = lastn;
        AQL_RETURN_IF_ERROR(slab.ReadInto(start, count, out));
        count[k - 1] = 1;
      } else {
        // Covering reads: fetch [first, last] of each chunk contiguously
        // and keep every lasts-th element. Chunked so the scratch buffer
        // stays small for huge strides.
        constexpr uint64_t kChunk = uint64_t{1} << 16;
        uint64_t done = 0;
        while (done < lastn) {
          const uint64_t take =
              std::min<uint64_t>(lastn - done, std::max<uint64_t>(1, kChunk / lasts));
          start[k - 1] = pushdown_->lower[k - 1] + lasts * done;
          count[k - 1] = lasts * (take - 1) + 1;
          tmp.resize(count[k - 1]);
          AQL_RETURN_IF_ERROR(slab.ReadInto(start, count, tmp.data()));
          for (uint64_t t = 0; t < take; ++t) out[done + t] = tmp[t * lasts];
          done += take;
          count[k - 1] = 1;
        }
      }
      for (size_t j = k > 1 ? k - 1 : 0; j-- > 0;) {
        if (++outer[j] < dims[j]) break;
        outer[j] = 0;
      }
    }
    auto arr = Value::MakeRealArray(dims, std::move(buf));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    return std::move(arr).value();
  }

  static Result<Value> Finish(std::vector<uint64_t> dims, std::vector<Value> elems) {
    auto arr = Value::MakeArray(std::move(dims), std::move(elems));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    if (arr.value().array().unboxed()) {
      GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(arr).value();
  }

  // `width` is the kernel's binders(): the index vector also holds the
  // binders of the Sums in the body, which they overwrite as they fold.
  // After the loop, one more interrupt poll: such a Sum stops early, with
  // a meaningless value, when the query is interrupted.
  template <typename T, typename EvalFn>
  static Result<Value> KernelLoop(const std::vector<uint64_t>& dims, uint64_t total,
                                  size_t width, const ParConfig& par, bool* bottom_seen,
                                  EvalFn&& eval,
                                  Result<Value> (*make)(std::vector<uint64_t>,
                                                        std::vector<T>)) {
    std::vector<T> buf(total);
    std::atomic<bool> bottom{false};
    Status ps = ParallelFor(total, [&](uint64_t begin, uint64_t end) -> Status {
      std::vector<uint64_t> index = DecodeIndex(begin, dims);
      index.resize(std::max(index.size(), width));
      for (uint64_t flat = begin; flat < end; ++flat) {
        if (((flat - begin) & 0xFFF) == 0) {
          AQL_RETURN_IF_ERROR(CheckInterrupt());
          if (bottom.load(std::memory_order_relaxed)) return Status::OK();
        }
        if (!eval(index.data(), &buf[flat])) {
          bottom.store(true, std::memory_order_relaxed);
          return Status::OK();
        }
        IncrementIndex(index, dims);
      }
      return Status::OK();
    }, par);
    AQL_RETURN_IF_ERROR(ps);
    AQL_RETURN_IF_ERROR(CheckInterrupt());
    if (bottom.load(std::memory_order_relaxed)) {
      *bottom_seen = true;
      return Value::Bottom();  // placeholder; caller re-runs generically
    }
    auto arr = make(dims, std::move(buf));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    return std::move(arr).value();
  }

  // The unchecked loop: evaluation is total, so there is no ⊥ flag to
  // poll and no per-cell branch on the eval result — just index decode,
  // body, store. Interrupt polling stays (deadlines must still bite).
  template <typename T, typename EvalFn>
  static Result<Value> KernelLoopU(const std::vector<uint64_t>& dims, uint64_t total,
                                   size_t width, const ParConfig& par, EvalFn&& eval,
                                   Result<Value> (*make)(std::vector<uint64_t>,
                                                         std::vector<T>)) {
    std::vector<T> buf(total);
    Status ps = ParallelFor(total, [&](uint64_t begin, uint64_t end) -> Status {
      std::vector<uint64_t> index = DecodeIndex(begin, dims);
      index.resize(std::max(index.size(), width));
      for (uint64_t flat = begin; flat < end; ++flat) {
        if (((flat - begin) & 0xFFF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
        buf[flat] = eval(index.data());
        IncrementIndex(index, dims);
      }
      return Status::OK();
    }, par);
    AQL_RETURN_IF_ERROR(ps);
    AQL_RETURN_IF_ERROR(CheckInterrupt());
    auto arr = make(dims, std::move(buf));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    return std::move(arr).value();
  }

  static Result<Value> RunKernelUnchecked(const Kernel& kernel,
                                          const std::vector<uint64_t>& dims,
                                          uint64_t total, const ParConfig& par) {
    switch (kernel.result_type()) {
      case Kernel::Type::kNat:
        return KernelLoopU<uint64_t>(
            dims, total, kernel.binders(), par,
            [&kernel](uint64_t* idx) { return kernel.EvalNatUnchecked(idx); },
            &Value::MakeNatArray);
      case Kernel::Type::kReal:
        return KernelLoopU<double>(
            dims, total, kernel.binders(), par,
            [&kernel](uint64_t* idx) { return kernel.EvalRealUnchecked(idx); },
            &Value::MakeRealArray);
      case Kernel::Type::kBool:
        return KernelLoopU<uint8_t>(
            dims, total, kernel.binders(), par,
            [&kernel](uint64_t* idx) { return kernel.EvalBoolUnchecked(idx); },
            &Value::MakeBoolArray);
    }
    return Status::Internal("bad kernel result type");
  }

  static Result<Value> RunKernel(const Kernel& kernel, const std::vector<uint64_t>& dims,
                                 uint64_t total, const ParConfig& par, bool* bottom_seen) {
    switch (kernel.result_type()) {
      case Kernel::Type::kNat:
        return KernelLoop<uint64_t>(
            dims, total, kernel.binders(), par, bottom_seen,
            [&kernel](uint64_t* idx, uint64_t* out) {
              return kernel.EvalNat(idx, out);
            },
            &Value::MakeNatArray);
      case Kernel::Type::kReal:
        return KernelLoop<double>(
            dims, total, kernel.binders(), par, bottom_seen,
            [&kernel](uint64_t* idx, double* out) {
              return kernel.EvalReal(idx, out);
            },
            &Value::MakeRealArray);
      case Kernel::Type::kBool:
        return KernelLoop<uint8_t>(
            dims, total, kernel.binders(), par, bottom_seen,
            [&kernel](uint64_t* idx, uint8_t* out) {
              return kernel.EvalBool(idx, out);
            },
            &Value::MakeBoolArray);
    }
    return Status::Internal("bad kernel result type");
  }

  std::vector<size_t> binder_slots_;
  NodePtr body_;
  std::vector<NodePtr> bounds_;
  std::unique_ptr<const KernelSpec> kernel_spec_;
  std::unique_ptr<const TabPushdown> pushdown_;
};

bool ExtractIndexValue(const Value& v, std::vector<uint64_t>* out) {
  out->clear();
  if (v.kind() == ValueKind::kNat) {
    out->push_back(v.nat_value());
    return true;
  }
  if (v.kind() == ValueKind::kTuple) {
    for (const Value& f : v.tuple_fields()) {
      if (f.kind() != ValueKind::kNat) return false;
      out->push_back(f.nat_value());
    }
    return out->size() >= 2;
  }
  return false;
}

class SubscriptNode : public Node {
 public:
  SubscriptNode(NodePtr arr, NodePtr idx) : arr_(std::move(arr)), idx_(std::move(idx)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value arr, arr_->Run(f));
    if (arr.is_bottom()) return Value::Bottom();
    if (arr.kind() != ValueKind::kArray) {
      return Status::EvalError("subscript of non-array");
    }
    AQL_ASSIGN_OR_RETURN(Value idx, idx_->Run(f));
    if (idx.is_bottom()) return Value::Bottom();
    const ArrayRep& a = arr.array();
    if (idx.kind() == ValueKind::kNat && a.dims.size() == 1) {
      // The common rank-1 case, without the index vector.
      if (idx.nat_value() >= a.dims[0]) return Value::Bottom();
      return a.At(idx.nat_value());
    }
    std::vector<uint64_t> index;
    if (!ExtractIndexValue(idx, &index)) {
      return Status::EvalError("array index is not a nat or tuple of nats");
    }
    if (!a.InBounds(index)) return Value::Bottom();
    return a.At(a.Flatten(index));
  }

 private:
  NodePtr arr_, idx_;
};

class DimNode : public Node {
 public:
  DimNode(size_t rank, NodePtr arr) : rank_(rank), arr_(std::move(arr)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value arr, arr_->Run(f));
    if (arr.is_bottom()) return Value::Bottom();
    if (arr.kind() != ValueKind::kArray) return Status::EvalError("dim of non-array");
    const ArrayRep& a = arr.array();
    if (a.dims.size() != rank_) return Status::EvalError("dim rank mismatch");
    if (rank_ == 1) return Value::Nat(a.dims[0]);
    std::vector<Value> fields;
    fields.reserve(rank_);
    for (uint64_t d : a.dims) fields.push_back(Value::Nat(d));
    return Value::MakeTuple(std::move(fields));
  }

 private:
  size_t rank_;
  NodePtr arr_;
};

class IndexNode : public Node {
 public:
  // `fused`: the source is a comprehension, whose loop emits straight
  // into an IndexSink.
  IndexNode(size_t rank, NodePtr source, bool fused)
      : rank_(rank), source_(std::move(source)), fused_(fused) {}
  Result<Value> Run(Frame* f) const override {
    if (fused_) {
      IndexSink sink(rank_);
      AQL_ASSIGN_OR_RETURN(bool defined, source_->Emit(f, &sink));
      if (!defined) return Value::Bottom();
      AQL_ASSIGN_OR_RETURN(std::optional<Value> arr, std::move(sink).Finish());
      if (arr) {
        GlobalExecStats().index_fused.fetch_add(1, std::memory_order_relaxed);
        return *std::move(arr);
      }
      // Unfiled: the loop runs again into a set, as it always did.
    }
    AQL_ASSIGN_OR_RETURN(Value src, source_->Run(f));
    if (src.is_bottom()) return Value::Bottom();
    std::vector<uint64_t> dims(rank_, 0);
    std::vector<std::pair<std::vector<uint64_t>, const Value*>> entries;
    entries.reserve(src.set().elems.size());
    for (const Value& pair : src.set().elems) {
      if (pair.kind() != ValueKind::kTuple || pair.tuple_fields().size() != 2) {
        return Status::EvalError("index expects (key, value) pairs");
      }
      const Value& key = pair.tuple_fields()[0];
      std::vector<uint64_t> idx;
      if (rank_ == 1) {
        if (key.kind() != ValueKind::kNat) return Status::EvalError("bad index key");
        idx.push_back(key.nat_value());
      } else if (!ExtractIndexValue(key, &idx) || idx.size() != rank_) {
        return Status::EvalError("bad index key shape");
      }
      for (size_t j = 0; j < rank_; ++j) {
        // The extent is key + 1, so the largest nat has no extent.
        if (idx[j] == UINT64_MAX) return Status::EvalError("index key overflows the extent");
        dims[j] = std::max(dims[j], idx[j] + 1);
      }
      entries.emplace_back(std::move(idx), &pair.tuple_fields()[1]);
    }
    AQL_ASSIGN_OR_RETURN(uint64_t total, CheckedVolume(dims));
    std::vector<std::vector<Value>> buckets(total);
    ArrayRep shape{dims, {}};
    for (auto& [idx, value] : entries) buckets[shape.Flatten(idx)].push_back(*value);
    std::vector<Value> elems;
    elems.reserve(total);
    for (auto& bucket : buckets) {
      elems.push_back(Value::MakeSetCanonical(std::move(bucket)));
    }
    auto arr = Value::MakeArray(std::move(dims), std::move(elems));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    return std::move(arr).value();
  }

 private:
  size_t rank_;
  NodePtr source_;
  bool fused_;
};

class DenseNode : public Node {
 public:
  DenseNode(size_t rank, std::vector<NodePtr> dims, std::vector<NodePtr> values)
      : rank_(rank), dims_(std::move(dims)), values_(std::move(values)) {}
  Result<Value> Run(Frame* f) const override {
    std::vector<uint64_t> dims(rank_);
    for (size_t j = 0; j < rank_; ++j) {
      AQL_ASSIGN_OR_RETURN(Value d, dims_[j]->Run(f));
      if (d.is_bottom()) return Value::Bottom();
      if (d.kind() != ValueKind::kNat) return Status::EvalError("dense dim non-nat");
      dims[j] = d.nat_value();
    }
    uint64_t total = 1;
    for (uint64_t d : dims) total *= d;
    if (total != values_.size()) return Value::Bottom();
    std::vector<Value> elems;
    elems.reserve(total);
    for (const NodePtr& v : values_) {
      AQL_ASSIGN_OR_RETURN(Value val, v->Run(f));
      elems.push_back(std::move(val));
    }
    auto arr = Value::MakeArray(std::move(dims), std::move(elems));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    if (arr.value().array().unboxed()) {
      GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(arr).value();
  }

 private:
  size_t rank_;
  std::vector<NodePtr> dims_, values_;
};

// A dense literal whose dims and elements were all compile-time constants:
// the array — with its canonical (usually unboxed) payload — is selected
// once at compile time instead of being rediscovered cell-by-cell on every
// run. Keeps DenseNode's observable counter: an unboxed materialization
// still counts per run.
class FoldedDenseNode : public Node {
 public:
  explicit FoldedDenseNode(Value v) : value_(std::move(v)) {}
  Result<Value> Run(Frame*) const override {
    if (value_.kind() == ValueKind::kArray && value_.array().unboxed()) {
      GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
    }
    return value_;
  }

 private:
  Value value_;
};

// ---------- compiler ----------

class Compiler {
 public:
  explicit Compiler(const ExternalResolver& externals) : externals_(externals) {}

  Result<Program> CompileProgram(const ExprPtr& e, const std::vector<std::string>& params) {
    scope_ = params;
    loop_bound_.assign(params.size(), false);
    high_water_ = params.size();
    AQL_ASSIGN_OR_RETURN(NodePtr root, CompileNode(e));
    return Program(std::move(root), high_water_, std::move(proof_));
  }

 private:
  // `loop`: the slot is a loop binder (big union, sum, tabulation), which
  // changes per iteration; other slots hold one value per activation.
  size_t Push(const std::string& name, bool loop = false) {
    scope_.push_back(name);
    loop_bound_.push_back(loop);
    high_water_ = std::max(high_water_, scope_.size());
    return scope_.size() - 1;
  }
  void Pop(size_t n = 1) {
    scope_.resize(scope_.size() - n);
    loop_bound_.resize(scope_.size());
  }

  Result<size_t> Lookup(const std::string& name) const {
    for (size_t i = scope_.size(); i-- > 0;) {
      if (scope_[i] == name) return i;
    }
    return Status::EvalError(StrCat("unbound variable ", name, " at compile time"));
  }

  // A compile-time constant scalar expression, or nullopt.
  static std::optional<Value> ConstScalar(const ExprPtr& e) {
    switch (e->kind()) {
      case ExprKind::kNatConst: return Value::Nat(e->nat_const());
      case ExprKind::kRealConst: return Value::Real(e->real_const());
      case ExprKind::kBoolConst: return Value::Bool(e->bool_const());
      case ExprKind::kStrConst: return Value::Str(e->str_const());
      case ExprKind::kBottom: return Value::Bottom();
      case ExprKind::kLiteral: return e->literal();
      default: return std::nullopt;
    }
  }

  // Folds a dense literal with constant dims and elements into its array
  // value at compile time, selecting the canonical payload (unboxed when
  // the definedness analysis would prove it hole-free) up front. Mirrors
  // DenseNode::Run exactly: the wrapping dims product, the count-mismatch
  // ⊥, the per-point ⊥ holes. nullptr when not fully constant (or when
  // materialization must stay a runtime error, e.g. the volume cap).
  static NodePtr TryFoldDense(const ExprPtr& e) {
    std::vector<uint64_t> dims(e->dense_rank());
    for (size_t j = 0; j < e->dense_rank(); ++j) {
      const ExprPtr& d = e->dense_dim(j);
      if (d->is(ExprKind::kNatConst)) {
        dims[j] = d->nat_const();
      } else if (d->is(ExprKind::kLiteral) &&
                 d->literal().kind() == ValueKind::kNat) {
        dims[j] = d->literal().nat_value();
      } else {
        return nullptr;
      }
    }
    std::vector<Value> elems;
    elems.reserve(e->dense_value_count());
    for (size_t j = 0; j < e->dense_value_count(); ++j) {
      std::optional<Value> v = ConstScalar(e->dense_value(j));
      if (!v) return nullptr;
      elems.push_back(std::move(*v));
    }
    uint64_t total = 1;
    for (uint64_t d : dims) total *= d;  // wraps, like DenseNode::Run
    if (total != elems.size()) return NodePtr(new ConstNode(Value::Bottom()));
    auto arr = Value::MakeArray(std::move(dims), std::move(elems));
    if (!arr.ok()) return nullptr;  // keep cap/overflow errors at run time
    return NodePtr(new FoldedDenseNode(std::move(arr).value()));
  }

  // A comprehension source: `gen(n)` becomes a counted loop over n.
  Result<LoopSource> CompileLoopSource(const ExprPtr& src) {
    LoopSource source;
    source.counted = src->is(ExprKind::kGen);
    AQL_ASSIGN_OR_RETURN(source.node, CompileNode(source.counted ? src->child(0) : src));
    return source;
  }

  // True when `src` is the same set on every iteration of the enclosing
  // loops of this activation: a literal, or a variable that no loop binds.
  bool LoopInvariant(const ExprPtr& src) const {
    if (src->is(ExprKind::kLiteral)) return true;
    if (!src->is(ExprKind::kVar)) return false;
    Result<size_t> slot = Lookup(src->var_name());
    return slot.ok() && !loop_bound_[*slot];
  }

  // K(x): one or more projections applied to the variable x. Fills the
  // path innermost projection first.
  static bool KeyPath(const ExprPtr& k, const std::string& x,
                      std::vector<std::pair<size_t, size_t>>* path) {
    std::vector<std::pair<size_t, size_t>> rev;
    const Expr* cur = k.get();
    while (cur->is(ExprKind::kProj)) {
      rev.emplace_back(cur->proj_index(), cur->proj_arity());
      cur = cur->child(0).get();
    }
    if (rev.empty() || !cur->is(ExprKind::kVar) || cur->var_name() != x) return false;
    path->assign(rev.rbegin(), rev.rend());
    return true;
  }

  static CmpOp Flip(CmpOp op) {
    switch (op) {
      case CmpOp::kLt: return CmpOp::kGt;
      case CmpOp::kLe: return CmpOp::kGe;
      case CmpOp::kGt: return CmpOp::kLt;
      case CmpOp::kGe: return CmpOp::kLe;
      default: return op;
    }
  }

  // Compiles the body of big union `e` (binder already pushed). A body
  // `if C then B else {}` whose guard C has a LoopGuard shape compiles
  // piecewise, so the loop can run B alone over the admitted elements and
  // still run the whole body when it has to scan; the admission is
  // recorded in the proof certificate.
  Result<NodePtr> CompileUnionBody(const ExprPtr& e, bool counted, bool invariant,
                                   LoopGuard* guard) {
    const ExprPtr& body = e->child(0);
    const std::string& x = e->binder();
    if (!body->is(ExprKind::kIf) || !body->child(2)->is(ExprKind::kEmptySet) ||
        !body->child(0)->is(ExprKind::kCmp) || body->child(0)->cmp_op() == CmpOp::kNe) {
      return CompileNode(body);
    }
    const ExprPtr& cond = body->child(0);
    const ExprPtr& a = cond->child(0);
    const ExprPtr& b = cond->child(1);
    auto free_of_x = [&x](const ExprPtr& t) { return FreeVars(t).count(x) == 0; };
    auto is_x = [&x](const ExprPtr& t) { return t->is(ExprKind::kVar) && t->var_name() == x; };
    LoopGuard g;
    bool binder_left = true;
    if (is_x(a) && free_of_x(b)) {
      g.kind = LoopGuard::Kind::kRange;
      g.op = cond->cmp_op();
    } else if (is_x(b) && free_of_x(a)) {
      g.kind = LoopGuard::Kind::kRange;
      g.op = Flip(cond->cmp_op());
      binder_left = false;
    } else if (cond->cmp_op() == CmpOp::kEq && !counted && invariant) {
      if (KeyPath(a, x, &g.key_path) && free_of_x(b)) {
        g.kind = LoopGuard::Kind::kProbe;
      } else if (KeyPath(b, x, &g.key_path) && free_of_x(a)) {
        g.kind = LoopGuard::Kind::kProbe;
        binder_left = false;
      }
    }
    if (g.kind == LoopGuard::Kind::kNone) return CompileNode(body);

    AQL_ASSIGN_OR_RETURN(NodePtr ca, CompileNode(a));
    AQL_ASSIGN_OR_RETURN(NodePtr cb, CompileNode(b));
    AQL_ASSIGN_OR_RETURN(NodePtr then_n, CompileNode(body->child(1)));
    AQL_ASSIGN_OR_RETURN(NodePtr else_n, CompileNode(body->child(2)));
    g.outer = binder_left ? cb.get() : ca.get();
    g.then = then_n.get();

    const std::string key = analysis::RenderArrayExpr(binder_left ? a : b);
    const std::string outer = analysis::RenderArrayExpr(binder_left ? b : a);
    const std::string src = analysis::RenderArrayExpr(e->child(1));
    const std::string guard_text = StrCat("guard ", analysis::RenderArrayExpr(cond));
    const std::string outer_fact = StrCat(outer, " does not mention ", x,
                                          ": evaluated once per visit");
    const std::string site = StrCat("U{ ... | ", x, " in ", src, " }");
    if (g.kind == LoopGuard::Kind::kProbe) {
      proof_.Add("hash-probe", site,
                 {StrCat(guard_text, ": key ", key, " is a projection path of ", x), outer_fact,
                  StrCat("source ", src, " is loop-invariant: hash-indexed once per run")});
    } else {
      proof_.Add("range-probe", site,
                 {StrCat(guard_text, ": ", x, " compared with ", outer), outer_fact,
                  "source ascends under <_t: the admitted elements are one contiguous "
                  "range, found by binary search"});
    }
    *guard = std::move(g);
    return NodePtr(new IfNode(NodePtr(new CmpNode(cond->cmp_op(), std::move(ca), std::move(cb))),
                              std::move(then_n), std::move(else_n)));
  }

  Result<NodePtr> CompileNode(const ExprPtr& e) {
    switch (e->kind()) {
      case ExprKind::kVar: {
        AQL_ASSIGN_OR_RETURN(size_t slot, Lookup(e->var_name()));
        return NodePtr(new SlotNode(slot));
      }
      case ExprKind::kLambda:
        return CompileLambda(e);
      case ExprKind::kApply: {
        AQL_ASSIGN_OR_RETURN(NodePtr fn, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr arg, CompileNode(e->child(1)));
        return NodePtr(new ApplyNode(std::move(fn), std::move(arg)));
      }
      case ExprKind::kTuple: {
        std::vector<NodePtr> fields;
        for (const ExprPtr& c : e->children()) {
          AQL_ASSIGN_OR_RETURN(NodePtr n, CompileNode(c));
          fields.push_back(std::move(n));
        }
        return NodePtr(new TupleNode(std::move(fields)));
      }
      case ExprKind::kProj: {
        AQL_ASSIGN_OR_RETURN(NodePtr inner, CompileNode(e->child(0)));
        return NodePtr(new ProjNode(e->proj_index(), e->proj_arity(), std::move(inner)));
      }
      case ExprKind::kEmptySet:
        return NodePtr(new ConstNode(Value::EmptySet()));
      case ExprKind::kSingleton: {
        const ExprPtr& elem = e->child(0);
        if (elem->is(ExprKind::kTuple) && elem->children().size() == 2) {
          AQL_ASSIGN_OR_RETURN(NodePtr k, CompileNode(elem->child(0)));
          AQL_ASSIGN_OR_RETURN(NodePtr v, CompileNode(elem->child(1)));
          return NodePtr(new PairNode(std::move(k), std::move(v)));
        }
        AQL_ASSIGN_OR_RETURN(NodePtr inner, CompileNode(elem));
        return NodePtr(new SingletonNode(std::move(inner)));
      }
      case ExprKind::kUnion: {
        AQL_ASSIGN_OR_RETURN(NodePtr a, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(e->child(1)));
        return NodePtr(new UnionNode(std::move(a), std::move(b)));
      }
      case ExprKind::kBigUnion: {
        const bool invariant = LoopInvariant(e->child(1));
        AQL_ASSIGN_OR_RETURN(LoopSource src, CompileLoopSource(e->child(1)));
        size_t slot = Push(e->binder(), /*loop=*/true);
        LoopGuard guard;
        auto body = CompileUnionBody(e, src.counted, invariant, &guard);
        Pop();
        AQL_RETURN_IF_ERROR(body.status());
        return NodePtr(new BigUnionNode(slot, std::move(body).value(), std::move(src),
                                        std::move(guard)));
      }
      case ExprKind::kGet: {
        AQL_ASSIGN_OR_RETURN(NodePtr inner, CompileNode(e->child(0)));
        return NodePtr(new GetNode(std::move(inner)));
      }
      case ExprKind::kBoolConst:
        return NodePtr(new ConstNode(Value::Bool(e->bool_const())));
      case ExprKind::kIf: {
        AQL_ASSIGN_OR_RETURN(NodePtr c, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr t, CompileNode(e->child(1)));
        AQL_ASSIGN_OR_RETURN(NodePtr f, CompileNode(e->child(2)));
        return NodePtr(new IfNode(std::move(c), std::move(t), std::move(f)));
      }
      case ExprKind::kCmp: {
        AQL_ASSIGN_OR_RETURN(NodePtr a, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(e->child(1)));
        return NodePtr(new CmpNode(e->cmp_op(), std::move(a), std::move(b)));
      }
      case ExprKind::kNatConst:
        return NodePtr(new ConstNode(Value::Nat(e->nat_const())));
      case ExprKind::kRealConst:
        return NodePtr(new ConstNode(Value::Real(e->real_const())));
      case ExprKind::kStrConst:
        return NodePtr(new ConstNode(Value::Str(e->str_const())));
      case ExprKind::kArith: {
        AQL_ASSIGN_OR_RETURN(NodePtr a, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(e->child(1)));
        return NodePtr(new ArithNode(e->arith_op(), std::move(a), std::move(b)));
      }
      case ExprKind::kGen: {
        AQL_ASSIGN_OR_RETURN(NodePtr inner, CompileNode(e->child(0)));
        return NodePtr(new GenNode(std::move(inner)));
      }
      case ExprKind::kSum: {
        AQL_ASSIGN_OR_RETURN(LoopSource src, CompileLoopSource(e->child(1)));
        size_t slot = Push(e->binder(), /*loop=*/true);
        auto body = CompileNode(e->child(0));
        std::unique_ptr<KernelSpec> spec = KernelSpecOf(e, {slot});
        // Inside a kernel tabulation's body the tabulation's annotation
        // certifies this Sum's subscripts, with more facts.
        if (spec != nullptr) {
          AnnotateKernelSpec(*e, spec.get(), kernel_tabs_ == 0 ? &proof_ : nullptr);
        }
        Pop();
        AQL_RETURN_IF_ERROR(body.status());
        return NodePtr(new SumNode(slot, std::move(body).value(), std::move(src),
                                   std::move(spec), TryMatchSumPushdown(e, &proof_)));
      }
      case ExprKind::kTab: {
        std::vector<NodePtr> bounds;
        for (size_t j = 0; j < e->tab_rank(); ++j) {
          AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(e->tab_bound(j)));
          bounds.push_back(std::move(b));
        }
        std::vector<size_t> slots;
        for (const std::string& v : e->binders()) slots.push_back(Push(v, /*loop=*/true));
        std::unique_ptr<KernelSpec> spec = KernelSpecOf(e, slots);
        if (spec != nullptr) ++kernel_tabs_;
        auto body = CompileNode(e->tab_body());
        if (spec != nullptr) {
          --kernel_tabs_;
          // Attach in-range/nonzero proofs so instantiation can admit the
          // unchecked evaluators (analysis/absint.h; once per compile).
          if (body.ok()) AnnotateKernelSpec(*e, spec.get(), &proof_);
        }
        Pop(e->tab_rank());
        AQL_RETURN_IF_ERROR(body.status());
        return NodePtr(new TabNode(std::move(slots), std::move(body).value(),
                                   std::move(bounds), std::move(spec),
                                   TryMatchPushdown(e, &proof_)));
      }
      case ExprKind::kSubscript: {
        AQL_ASSIGN_OR_RETURN(NodePtr arr, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr idx, CompileNode(e->child(1)));
        return NodePtr(new SubscriptNode(std::move(arr), std::move(idx)));
      }
      case ExprKind::kDim: {
        AQL_ASSIGN_OR_RETURN(NodePtr arr, CompileNode(e->child(0)));
        return NodePtr(new DimNode(e->rank(), std::move(arr)));
      }
      case ExprKind::kIndex: {
        AQL_ASSIGN_OR_RETURN(NodePtr src, CompileNode(e->child(0)));
        return NodePtr(new IndexNode(e->rank(), std::move(src),
                                     e->child(0)->is(ExprKind::kBigUnion)));
      }
      case ExprKind::kDense: {
        if (NodePtr folded = TryFoldDense(e)) return folded;
        std::vector<NodePtr> dims, values;
        for (size_t j = 0; j < e->dense_rank(); ++j) {
          AQL_ASSIGN_OR_RETURN(NodePtr d, CompileNode(e->dense_dim(j)));
          dims.push_back(std::move(d));
        }
        for (size_t j = 0; j < e->dense_value_count(); ++j) {
          AQL_ASSIGN_OR_RETURN(NodePtr v, CompileNode(e->dense_value(j)));
          values.push_back(std::move(v));
        }
        return NodePtr(new DenseNode(e->dense_rank(), std::move(dims), std::move(values)));
      }
      case ExprKind::kBottom:
        return NodePtr(new ConstNode(Value::Bottom()));
      case ExprKind::kLiteral:
        return NodePtr(new ConstNode(e->literal()));
      case ExprKind::kExternal: {
        std::shared_ptr<const FuncValue> fn =
            externals_ ? externals_(e->var_name()) : nullptr;
        if (!fn) {
          return Status::EvalError(
              StrCat("unknown external primitive ", e->var_name()));
        }
        return NodePtr(new ConstNode(Value::MakeFunc(std::move(fn))));
      }
    }
    return Status::Internal("unknown expression kind in compiler");
  }

  // The kernel spec of loop `e`'s body (a tabulation or a Sum, binders
  // already pushed at `slots`), or nullptr when it leaves the fragment.
  std::unique_ptr<KernelSpec> KernelSpecOf(const ExprPtr& e, const std::vector<size_t>& slots) {
    return BuildKernelSpec(*e->child(0), slots,
                           [this](const std::string& name) { return Lookup(name); });
  }

  // Lambdas compile against a fresh frame [captures..., param, scratch].
  Result<NodePtr> CompileLambda(const ExprPtr& e) {
    std::set<std::string> fv = FreeVars(e);
    std::vector<size_t> capture_slots;
    std::vector<std::string> inner_scope;
    capture_slots.reserve(fv.size());
    for (const std::string& name : fv) {
      AQL_ASSIGN_OR_RETURN(size_t slot, Lookup(name));
      capture_slots.push_back(slot);
      inner_scope.push_back(name);
    }
    Compiler inner(externals_);
    inner.scope_ = std::move(inner_scope);
    inner.scope_.push_back(e->binder());
    inner.loop_bound_.assign(inner.scope_.size(), false);
    inner.high_water_ = inner.scope_.size();
    AQL_ASSIGN_OR_RETURN(NodePtr body, inner.CompileNode(e->child(0)));
    // Proof entries produced inside the lambda body belong to the whole
    // program's certificate.
    for (analysis::ProofEntry& pe : inner.proof_.entries) {
      proof_.entries.push_back(std::move(pe));
    }
    return NodePtr(
        new LambdaNode(std::move(capture_slots), std::move(body), inner.high_water_));
  }

  const ExternalResolver& externals_;
  std::vector<std::string> scope_;
  std::vector<bool> loop_bound_;  // parallel to scope_
  size_t high_water_ = 0;
  int kernel_tabs_ = 0;  // enclosing tabulations with a kernel spec
  analysis::Proof proof_;
};

}  // namespace

ExecKnobs ExecKnobs::FromEnv() {
  ExecKnobs knobs;
  knobs.par = ParConfig::FromEnv();
  knobs.pushdown = EnvU64("AQL_EXEC_PUSHDOWN", 1) != 0;
  knobs.unchecked = EnvU64("AQL_EXEC_UNCHECKED", 1) != 0;
  return knobs;
}

Result<Value> Program::Run(std::vector<Value> args) const {
  obs::Span span("exec", "exec.run");
  Frame frame;
  frame.knobs = ExecKnobs::FromEnv();
  frame.slots.resize(frame_size_);
  for (size_t i = 0; i < args.size() && i < frame.slots.size(); ++i) {
    frame.slots[i] = std::move(args[i]);
  }
  return root_->Run(&frame);
}

Result<Program> Compile(const ExprPtr& e, const ExternalResolver& externals,
                        const std::vector<std::string>& params) {
  obs::Span span("exec", "exec.compile");
  Compiler compiler(externals);
  return compiler.CompileProgram(e, params);
}

}  // namespace exec
}  // namespace aql
