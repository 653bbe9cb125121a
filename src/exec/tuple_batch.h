// TupleBatch: the unit of transport of the batched execution pipeline
// (DESIGN.md §9).
//
// A reusable, arena-backed container of tuples. Per-tuple metadata (id,
// label) and feature data live in contiguous arrays owned by the batch;
// appending copies a tuple's features into the arena (from a Tuple, another
// batch, or a wire-format record), and Clear() keeps the arena capacity so
// a steady-state pipeline performs no allocation.
//
// Dense fast path: while every appended tuple is dense with the same nnz,
// the value arena is one contiguous row-major [size() × uniform_dim()]
// matrix (structure-of-arrays), which the mini-batch kernels in src/ml/
// consume directly. Sparse tuples store their key spans in a parallel key
// arena; mixed batches are fully supported, they just lose the uniform
// layout.
//
// Pointer-validity contract: spans returned by values(i)/keys(i) and the
// row views are valid until the next Append/Clear/Reserve on this batch —
// i.e. for the consumer, until it requests the next batch.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/tuple.h"

namespace corgipile {

class TupleBatch {
 public:
  /// Default transport batch size; large enough to amortize per-batch
  /// virtual-call and bookkeeping overhead, small enough to stay cache
  /// resident for the paper's feature widths.
  static constexpr size_t kDefaultTargetTuples = 256;

  explicit TupleBatch(size_t target_tuples = kDefaultTargetTuples)
      : target_tuples_(target_tuples == 0 ? 1 : target_tuples) {}

  /// Producers fill until size() == target_tuples() (or the epoch ends).
  size_t target_tuples() const { return target_tuples_; }
  void set_target_tuples(size_t n) { target_tuples_ = n == 0 ? 1 : n; }
  bool full() const { return ids_.size() >= target_tuples_; }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Drops the tuples but keeps every arena's capacity.
  void Clear() {
    ids_.clear();
    labels_.clear();
    values_.clear();
    keys_.clear();
    value_offsets_.assign(1, 0);
    key_offsets_.assign(1, 0);
    uniform_dense_ = true;
    uniform_dim_ = 0;
  }

  void Reserve(size_t tuples, size_t values_per_tuple) {
    ids_.reserve(tuples);
    labels_.reserve(tuples);
    value_offsets_.reserve(tuples + 1);
    key_offsets_.reserve(tuples + 1);
    values_.reserve(tuples * values_per_tuple);
  }

  void Append(const Tuple& t) {
    if (t.sparse()) {
      AppendSparse(t.id, t.label, t.feature_keys.data(),
                   t.feature_values.data(), t.feature_values.size());
    } else {
      AppendDense(t.id, t.label, t.feature_values.data(),
                  t.feature_values.size());
    }
  }

  void AppendDense(uint64_t id, double label, const float* values, size_t n) {
    NoteRowShape(/*sparse=*/false, n, /*first=*/empty());
    ids_.push_back(id);
    labels_.push_back(label);
    values_.insert(values_.end(), values, values + n);
    value_offsets_.push_back(static_cast<uint32_t>(values_.size()));
    key_offsets_.push_back(key_offsets_.back());
  }

  /// Appends row i of another batch (span copy, no Tuple round trip).
  void AppendFrom(const TupleBatch& src, size_t i) {
    if (src.sparse(i)) {
      AppendSparse(src.id(i), src.label(i), src.keys(i), src.values(i),
                   src.nnz(i));
    } else {
      AppendDense(src.id(i), src.label(i), src.values(i), src.nnz(i));
    }
  }

  void AppendSparse(uint64_t id, double label, const uint32_t* keys,
                    const float* values, size_t nnz) {
    uniform_dense_ = false;
    ids_.push_back(id);
    labels_.push_back(label);
    values_.insert(values_.end(), values, values + nnz);
    keys_.insert(keys_.end(), keys, keys + nnz);
    value_offsets_.push_back(static_cast<uint32_t>(values_.size()));
    key_offsets_.push_back(static_cast<uint32_t>(keys_.size()));
  }

  /// Appends one wire-format record (storage/tuple.h), copying its key and
  /// value spans straight into the arenas without building a Tuple. The
  /// row equals Append(Tuple::Deserialize(...)). On error the batch is
  /// unchanged.
  Status AppendWire(const uint8_t* data, size_t size) {
    TupleWire w;
    CORGI_RETURN_NOT_OK(ParseTupleWire(data, size, &w));
    const bool is_sparse = w.keys != nullptr;
    NoteRowShape(is_sparse, w.nnz, /*first=*/empty());
    ids_.push_back(w.id);
    labels_.push_back(w.label);
    AppendUnaligned(&values_, w.values, w.nnz);
    if (is_sparse) AppendUnaligned(&keys_, w.keys, w.nnz);
    value_offsets_.push_back(static_cast<uint32_t>(values_.size()));
    key_offsets_.push_back(static_cast<uint32_t>(keys_.size()));
    return Status::OK();
  }

  /// Appends rows [begin, end) of `src` (another batch) with one bulk copy
  /// per arena. Equal to AppendFrom(src, i) for each i in order.
  void AppendRange(const TupleBatch& src, size_t begin, size_t end) {
    if (begin >= end) return;
    const bool was_empty = empty();
    for (size_t i = begin; i < end && uniform_dense_; ++i) {
      NoteRowShape(src.sparse(i), src.nnz(i), was_empty && i == begin);
    }
    const uint32_t v_first = src.value_offsets_[begin];
    const uint32_t k_first = src.key_offsets_[begin];
    const uint32_t v_base = value_offsets_.back();
    const uint32_t k_base = key_offsets_.back();
    for (size_t i = begin + 1; i <= end; ++i) {
      value_offsets_.push_back(v_base + (src.value_offsets_[i] - v_first));
      key_offsets_.push_back(k_base + (src.key_offsets_[i] - k_first));
    }
    ids_.insert(ids_.end(), src.ids_.begin() + begin, src.ids_.begin() + end);
    labels_.insert(labels_.end(), src.labels_.begin() + begin,
                   src.labels_.begin() + end);
    values_.insert(values_.end(), src.values_.begin() + v_first,
                   src.values_.begin() + src.value_offsets_[end]);
    keys_.insert(keys_.end(), src.keys_.begin() + k_first,
                 src.keys_.begin() + src.key_offsets_[end]);
  }

  uint64_t id(size_t i) const { return ids_[i]; }
  double label(size_t i) const { return labels_[i]; }
  bool sparse(size_t i) const {
    return key_offsets_[i + 1] != key_offsets_[i];
  }
  size_t nnz(size_t i) const {
    return value_offsets_[i + 1] - value_offsets_[i];
  }
  const float* values(size_t i) const {
    return values_.data() + value_offsets_[i];
  }
  /// nullptr when row i is dense.
  const uint32_t* keys(size_t i) const {
    return sparse(i) ? keys_.data() + key_offsets_[i] : nullptr;
  }

  /// True while every row is dense with the same width: the value arena is
  /// then one contiguous [size() × uniform_dim()] row-major matrix.
  bool uniform_dense() const { return uniform_dense_ && !empty(); }
  size_t uniform_dim() const { return uniform_dense() ? uniform_dim_ : 0; }
  const float* dense_data() const { return values_.data(); }
  const double* labels_data() const { return labels_.data(); }
  const uint64_t* ids_data() const { return ids_.data(); }

  /// Copies row i into *out, reusing out's vector capacity. The compat
  /// shim for callers that still need a materialized Tuple.
  void MaterializeTo(size_t i, Tuple* out) const {
    out->id = ids_[i];
    out->label = labels_[i];
    const size_t n = nnz(i);
    if (sparse(i)) {
      const uint32_t* k = keys_.data() + key_offsets_[i];
      out->feature_keys.assign(k, k + n);
    } else {
      out->feature_keys.clear();
    }
    const float* v = values(i);
    out->feature_values.assign(v, v + n);
  }

  Tuple ToTuple(size_t i) const {
    Tuple t;
    MaterializeTo(i, &t);
    return t;
  }

 private:
  /// Tracks the uniform-dense layout for a row about to be appended;
  /// `first` says the batch holds no rows yet.
  void NoteRowShape(bool sparse, size_t n, bool first) {
    if (sparse) {
      uniform_dense_ = false;
    } else if (first) {
      uniform_dim_ = n;
    } else if (n != uniform_dim_) {
      uniform_dense_ = false;
    }
  }

  /// Appends n elements stored at a possibly unaligned address.
  template <typename T>
  static void AppendUnaligned(std::vector<T>* arena, const uint8_t* src,
                              size_t n) {
    if (n == 0) return;
    const size_t old = arena->size();
    arena->resize(old + n);
    std::memcpy(arena->data() + old, src, n * sizeof(T));
  }

  size_t target_tuples_;
  std::vector<uint64_t> ids_;
  std::vector<double> labels_;
  /// Row i's values are values_[value_offsets_[i] .. value_offsets_[i+1]);
  /// likewise keys_ for sparse rows (empty span for dense rows).
  std::vector<uint32_t> value_offsets_{0};
  std::vector<uint32_t> key_offsets_{0};
  std::vector<float> values_;
  std::vector<uint32_t> keys_;
  bool uniform_dense_ = true;
  size_t uniform_dim_ = 0;
};

}  // namespace corgipile
