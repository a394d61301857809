#include "service/result_cache.h"

#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/affine.h"
#include "core/expr_ops.h"

namespace aql {
namespace service {

namespace {

// A lookup key a cached slab can answer by slicing:
//   [[ base[i1+lower1, ..., ik+lowerk] | i1 < e1, ..., ik < ek ]]
// i.e. analysis::MatchSlab over the tab binders with every stride 1 (a
// strided access is a slab, but not a rectangular slice). Purely
// syntactic and cheap; the extents are proven separately.
std::optional<analysis::SlabAccess> SliceableSlab(const ExprPtr& resolved) {
  if (!resolved->is(ExprKind::kTab)) return std::nullopt;
  std::optional<analysis::SlabAccess> slab =
      analysis::MatchSlab(resolved->tab_body(), resolved->binders());
  if (!slab) return std::nullopt;
  for (uint64_t s : slab->stride) {
    if (s != 1) return std::nullopt;
  }
  return slab;
}

// Extents: the shape domain's verdict on the whole tabulation. This is
// the proof obligation — serve the slice only when the analysis pins
// every extent to a constant (bounds need not be literal NatConsts).
// Deferred until a base entry is found so the exact-hit and plain-miss
// paths never pay for an abstract interpretation.
bool ProveExtents(const ExprPtr& resolved, size_t k, std::vector<uint64_t>* extents) {
  analysis::AbsVal abs = analysis::AnalyzeAbs(resolved);
  if (abs.shape.kind != analysis::ShapeVal::Kind::kArray ||
      abs.shape.extents.size() != k) {
    return false;
  }
  extents->resize(k);
  for (size_t j = 0; j < k; ++j) {
    const analysis::Extent& ext = abs.shape.extents[j];
    if (ext.kind != analysis::Extent::Kind::kConst) return false;
    (*extents)[j] = ext.value;
  }
  return true;
}

uint64_t EntryBytes(const ExprPtr& key, const Value& value) {
  constexpr uint64_t kEntryOverhead = 256;  // list/index nodes, Node itself
  return kEntryOverhead + ApproxExprBytes(key) + ApproxValueBytes(value);
}

}  // namespace

ResultCache::ResultCache(uint64_t max_bytes, HashFn hash_for_test)
    : max_bytes_(max_bytes),
      hash_(hash_for_test ? std::move(hash_for_test)
                          : [](const ExprPtr& e) { return HashExpr(e); }) {}

ResultCache::LruList::iterator ResultCache::FindLocked(const ExprPtr& resolved,
                                                       uint64_t hash) {
  auto [begin, end] = index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (AlphaEqual(it->second->key, resolved)) return it->second;
  }
  return lru_.end();
}

std::optional<Value> ResultCache::Lookup(const ExprPtr& resolved, uint64_t epoch) {
  if (!enabled()) return std::nullopt;
  uint64_t hash = hash_(resolved);
  // Syntactic pattern match outside the lock; pure over the immutable term.
  std::optional<analysis::SlabAccess> slab = SliceableSlab(resolved);
  uint64_t base_hash = slab ? hash_(slab->base) : 0;

  MutexLock lock(&mu_);
  FlushIfStaleLocked(epoch);

  auto it = FindLocked(resolved, hash);
  if (it != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, it);
    ++stats_.hits;
    return it->value;
  }

  if (slab) {
    auto base_it = FindLocked(slab->base, base_hash);
    const size_t k = slab->offset.size();
    std::vector<uint64_t> extents;
    if (base_it != lru_.end() && base_it->value.kind() == ValueKind::kArray &&
        ProveExtents(resolved, k, &extents)) {
      const ArrayRep& arr = base_it->value.array();
      bool fits = arr.dims.size() == k;
      for (size_t j = 0; fits && j < k; ++j) {
        // Double-check the analysis against the concrete dims: the slice
        // must lie fully inside the cached slab.
        fits = extents[j] <= arr.dims[j] && slab->offset[j] <= arr.dims[j] - extents[j];
      }
      if (fits) {
        Result<Value> slice = SliceArray(arr, slab->offset, extents);
        if (slice.ok()) {
          lru_.splice(lru_.begin(), lru_, base_it);  // the slab stays hot
          ++stats_.subsumptions;
          // Memoize the slice under its own key: the repeat is an exact hit.
          InsertLocked(resolved, hash, *slice);
          return *std::move(slice);
        }
      }
    }
  }

  ++stats_.misses;
  return std::nullopt;
}

void ResultCache::Insert(const ExprPtr& resolved, Value value, uint64_t epoch) {
  if (!enabled()) return;
  uint64_t hash = hash_(resolved);
  MutexLock lock(&mu_);
  FlushIfStaleLocked(epoch);
  InsertLocked(resolved, hash, std::move(value));
}

void ResultCache::InsertLocked(const ExprPtr& resolved, uint64_t hash,
                               Value value) {
  uint64_t bytes = EntryBytes(resolved, value);
  if (bytes > max_bytes_) return;  // would evict everything and still not fit
  auto it = FindLocked(resolved, hash);
  if (it != lru_.end()) {
    bytes_ += bytes - it->bytes;
    it->bytes = bytes;
    it->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it);
  } else {
    lru_.push_front(Node{hash, bytes, resolved, std::move(value)});
    index_.emplace(hash, lru_.begin());
    bytes_ += bytes;
  }
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void ResultCache::FlushIfStaleLocked(uint64_t epoch) {
  if (epoch == valid_epoch_) return;
  stats_.invalidations += lru_.size();
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  valid_epoch_ = epoch;
}

void ResultCache::EraseLocked(LruList::iterator it) {
  auto [begin, end] = index_.equal_range(it->hash);
  for (auto idx = begin; idx != end; ++idx) {
    if (idx->second == it) {
      index_.erase(idx);
      break;
    }
  }
  bytes_ -= it->bytes;
  lru_.erase(it);
}

void ResultCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

ResultCache::Stats ResultCache::stats() const {
  MutexLock lock(&mu_);
  Stats s = stats_;
  s.bytes = bytes_;
  s.entries = lru_.size();
  return s;
}

}  // namespace service
}  // namespace aql
