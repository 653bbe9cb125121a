#include "ml/checkpoint.h"

#include <sys/stat.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "iosim/fault_plane.h"
#include "ml/model.h"
#include "ml/serialize.h"
#include "util/crc32c.h"

namespace corgipile {

namespace {

constexpr char kMagic[] = "corgickpt_v1";

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutDoubles(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  if (!v.empty()) {
    out->append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(double));
  }
}

bool GetU64(const uint8_t* data, size_t len, size_t* pos, uint64_t* v) {
  if (*pos + sizeof(*v) > len) return false;
  std::memcpy(v, data + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

bool GetF64(const uint8_t* data, size_t len, size_t* pos, double* v) {
  if (*pos + sizeof(*v) > len) return false;
  std::memcpy(v, data + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

bool GetDoubles(const uint8_t* data, size_t len, size_t* pos,
                std::vector<double>* v) {
  uint64_t n = 0;
  if (!GetU64(data, len, pos, &n)) return false;
  if (n > (len - *pos) / sizeof(double)) return false;  // overflow-safe
  v->resize(n);
  if (n != 0) {
    std::memcpy(v->data(), data + *pos, n * sizeof(double));
    *pos += n * sizeof(double);
  }
  return true;
}

}  // namespace

Status SaveCheckpoint(const TrainCheckpoint& ckpt, const std::string& path) {
  CORGI_INJECT_POINT("checkpoint.save");
  std::string body;
  body.append(kMagic);
  body.push_back('\n');
  PutU64(&body, ckpt.model_name.size());
  body.append(ckpt.model_name);
  PutU64(&body, ckpt.next_epoch);
  PutDoubles(&body, ckpt.params);
  PutDoubles(&body, ckpt.avg_params);
  PutF64(&body, ckpt.weight_sum);
  PutU64(&body, ckpt.total_tuples);
  PutF64(&body, ckpt.best_test_metric);
  PutU64(&body, ckpt.total_quarantined_blocks);
  PutU64(&body, ckpt.total_skipped_tuples);
  const uint32_t crc = Crc32cForStorage(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return AtomicWriteFile(path, body.data(), body.size());
}

Result<TrainCheckpoint> LoadCheckpoint(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("no checkpoint at " + path);
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string body = ss.str();

  const size_t magic_len = sizeof(kMagic) - 1;  // excluding NUL
  if (body.size() < magic_len + 1 + sizeof(uint32_t)) {
    return Status::Corruption("checkpoint too small: " + path);
  }
  if (body.compare(0, magic_len, kMagic) != 0 || body[magic_len] != '\n') {
    return Status::Corruption("bad checkpoint magic in " + path);
  }
  const size_t payload_len = body.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, body.data() + payload_len, sizeof(stored_crc));
  if (stored_crc != Crc32cForStorage(body.data(), payload_len)) {
    return Status::Corruption("checkpoint crc mismatch in " + path);
  }

  const auto* data = reinterpret_cast<const uint8_t*>(body.data());
  size_t pos = magic_len + 1;
  TrainCheckpoint ckpt;
  uint64_t name_len = 0;
  uint64_t next_epoch = 0;
  bool ok = GetU64(data, payload_len, &pos, &name_len);
  if (ok && name_len <= payload_len - pos) {
    ckpt.model_name.assign(body, pos, name_len);
    pos += name_len;
  } else {
    ok = false;
  }
  ok = ok && GetU64(data, payload_len, &pos, &next_epoch);
  ok = ok && GetDoubles(data, payload_len, &pos, &ckpt.params);
  ok = ok && GetDoubles(data, payload_len, &pos, &ckpt.avg_params);
  ok = ok && GetF64(data, payload_len, &pos, &ckpt.weight_sum);
  ok = ok && GetU64(data, payload_len, &pos, &ckpt.total_tuples);
  ok = ok && GetF64(data, payload_len, &pos, &ckpt.best_test_metric);
  ok = ok && GetU64(data, payload_len, &pos, &ckpt.total_quarantined_blocks);
  ok = ok && GetU64(data, payload_len, &pos, &ckpt.total_skipped_tuples);
  if (!ok || pos != payload_len) {
    return Status::Corruption("malformed checkpoint body in " + path);
  }
  ckpt.next_epoch = static_cast<uint32_t>(next_epoch);
  return ckpt;
}

Result<std::optional<TrainCheckpoint>> LoadResumeCheckpoint(
    const std::string& path, const Model& model) {
  auto loaded = LoadCheckpoint(path);
  if (!loaded.ok()) {
    if (loaded.status().IsNotFound()) return std::optional<TrainCheckpoint>();
    return loaded.status();  // corrupt/unreadable checkpoint: surface it
  }
  TrainCheckpoint ckpt = std::move(loaded).ValueOrDie();
  if (ckpt.model_name != model.name()) {
    return Status::InvalidArgument("checkpoint model '" + ckpt.model_name +
                                   "' does not match '" + model.name() + "'");
  }
  if (ckpt.params.size() != model.num_params()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(ckpt.params.size()) +
        " params, model expects " + std::to_string(model.num_params()));
  }
  return std::optional<TrainCheckpoint>(std::move(ckpt));
}

}  // namespace corgipile
