#include "storage/tuple.h"

#include <cstring>

namespace corgipile {

namespace {

template <typename T>
void AppendRaw(std::vector<uint8_t>* out, const T& v) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
bool ReadRaw(const uint8_t* data, size_t size, size_t* pos, T* v) {
  if (*pos + sizeof(T) > size) return false;
  std::memcpy(v, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

double Tuple::Dot(const std::vector<double>& w) const {
  double acc = 0.0;
  if (sparse()) {
    for (size_t i = 0; i < feature_keys.size(); ++i) {
      acc += w[feature_keys[i]] * static_cast<double>(feature_values[i]);
    }
  } else {
    for (size_t i = 0; i < feature_values.size(); ++i) {
      acc += w[i] * static_cast<double>(feature_values[i]);
    }
  }
  return acc;
}

void Tuple::AxpyInto(double scale, std::vector<double>* w) const {
  if (sparse()) {
    for (size_t i = 0; i < feature_keys.size(); ++i) {
      (*w)[feature_keys[i]] += scale * static_cast<double>(feature_values[i]);
    }
  } else {
    for (size_t i = 0; i < feature_values.size(); ++i) {
      (*w)[i] += scale * static_cast<double>(feature_values[i]);
    }
  }
}

double Tuple::SquaredNorm() const {
  double acc = 0.0;
  for (float v : feature_values) acc += static_cast<double>(v) * v;
  return acc;
}

size_t Tuple::SerializedSize() const {
  size_t n = sizeof(uint64_t) + sizeof(double) + sizeof(uint32_t) + 1;
  if (sparse()) n += feature_keys.size() * sizeof(uint32_t);
  n += feature_values.size() * sizeof(float);
  return n;
}

void Tuple::SerializeTo(std::vector<uint8_t>* out) const {
  AppendRaw(out, id);
  AppendRaw(out, label);
  AppendRaw(out, static_cast<uint32_t>(feature_values.size()));
  AppendRaw(out, static_cast<uint8_t>(sparse() ? 1 : 0));
  if (sparse()) {
    for (uint32_t k : feature_keys) AppendRaw(out, k);
  }
  for (float v : feature_values) AppendRaw(out, v);
}

Status ParseTupleWire(const uint8_t* data, size_t size, TupleWire* out) {
  size_t pos = 0;
  uint8_t is_sparse = 0;
  if (!ReadRaw(data, size, &pos, &out->id) ||
      !ReadRaw(data, size, &pos, &out->label) ||
      !ReadRaw(data, size, &pos, &out->nnz) ||
      !ReadRaw(data, size, &pos, &is_sparse)) {
    return Status::Corruption("truncated tuple header");
  }
  const size_t span = static_cast<size_t>(out->nnz) * sizeof(uint32_t);
  out->keys = nullptr;
  if (is_sparse) {
    if (size - pos < span) return Status::Corruption("truncated tuple keys");
    if (out->nnz > 0) out->keys = data + pos;
    pos += span;
  }
  if (size - pos < static_cast<size_t>(out->nnz) * sizeof(float)) {
    return Status::Corruption("truncated tuple values");
  }
  out->values = data + pos;
  out->size = pos + static_cast<size_t>(out->nnz) * sizeof(float);
  return Status::OK();
}

Result<Tuple> Tuple::Deserialize(const uint8_t* data, size_t size,
                                 size_t* consumed) {
  TupleWire w;
  CORGI_RETURN_NOT_OK(ParseTupleWire(data, size, &w));
  Tuple t;
  t.id = w.id;
  t.label = w.label;
  if (w.keys != nullptr) {
    t.feature_keys.resize(w.nnz);
    std::memcpy(t.feature_keys.data(), w.keys, w.nnz * sizeof(uint32_t));
  }
  t.feature_values.resize(w.nnz);
  if (w.nnz > 0) {
    std::memcpy(t.feature_values.data(), w.values, w.nnz * sizeof(float));
  }
  *consumed = w.size;
  return t;
}

Tuple MakeDenseTuple(uint64_t id, double label, std::vector<float> values) {
  Tuple t;
  t.id = id;
  t.label = label;
  t.feature_values = std::move(values);
  return t;
}

Tuple MakeSparseTuple(uint64_t id, double label, std::vector<uint32_t> keys,
                      std::vector<float> values) {
  Tuple t;
  t.id = id;
  t.label = label;
  t.feature_keys = std::move(keys);
  t.feature_values = std::move(values);
  return t;
}

}  // namespace corgipile
