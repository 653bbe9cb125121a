// Training tuple: id, (sparse or dense) feature vector, label.

#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace corgipile {

/// One training example. Dense tuples leave `feature_keys` empty and use
/// `feature_values[i]` as the value of dimension i. Sparse tuples store the
/// nonzero dimensions in `feature_keys` (strictly increasing) with matching
/// `feature_values`.
struct Tuple {
  uint64_t id = 0;
  double label = 0.0;
  std::vector<uint32_t> feature_keys;
  std::vector<float> feature_values;

  bool sparse() const { return !feature_keys.empty(); }
  size_t nnz() const { return feature_values.size(); }

  /// Dot product with a dense weight vector. For dense tuples `w` must have
  /// at least nnz() entries; for sparse tuples at least max(key)+1.
  double Dot(const std::vector<double>& w) const;

  /// w += scale * x (gradient scatter).
  void AxpyInto(double scale, std::vector<double>* w) const;

  /// Squared L2 norm of the feature vector.
  double SquaredNorm() const;

  // --- Serialization (little-endian, varint-free fixed layout) ---
  //
  // [u64 id][f64 label][u32 nnz][u8 sparse]
  //   if sparse: nnz * u32 keys
  //   nnz * f32 values

  size_t SerializedSize() const;
  /// Appends the wire form to *out.
  void SerializeTo(std::vector<uint8_t>* out) const;
  /// Parses one tuple starting at data; sets *consumed to the bytes used.
  static Result<Tuple> Deserialize(const uint8_t* data, size_t size,
                                   size_t* consumed);

  bool operator==(const Tuple& o) const {
    return id == o.id && label == o.label && feature_keys == o.feature_keys &&
           feature_values == o.feature_values;
  }
};

/// One parsed wire record (layout above Tuple::SerializedSize). `keys` and
/// `values` point into the parsed bytes and may be unaligned, so read them
/// with memcpy. `keys` is null for a dense record and for a record with the
/// sparse flag and nnz 0, which reads back as a dense row of width 0.
struct TupleWire {
  uint64_t id = 0;
  double label = 0.0;
  uint32_t nnz = 0;
  const uint8_t* keys = nullptr;
  const uint8_t* values = nullptr;
  /// Bytes the record occupies.
  size_t size = 0;
};

/// Bounds-checked parse of the record at data[0, size); kCorruption if it
/// is truncated. The one wire parser: Tuple::Deserialize and
/// TupleBatch::AppendWire both build on it.
Status ParseTupleWire(const uint8_t* data, size_t size, TupleWire* out);

/// Builds a dense tuple.
Tuple MakeDenseTuple(uint64_t id, double label, std::vector<float> values);

/// Builds a sparse tuple; keys must be strictly increasing.
Tuple MakeSparseTuple(uint64_t id, double label, std::vector<uint32_t> keys,
                      std::vector<float> values);

}  // namespace corgipile
