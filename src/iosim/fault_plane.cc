#include "iosim/fault_plane.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/rng.h"

namespace corgipile {

namespace {

// Distinct per-site decision channels of the media rules.
constexpr uint64_t kSaltTransient = 0x71;
constexpr uint64_t kSaltTransientCount = 0x72;
constexpr uint64_t kSaltPermanent = 0x73;
constexpr uint64_t kSaltBitFlip = 0x74;
constexpr uint64_t kSaltBitPos = 0x75;
constexpr uint64_t kSaltTorn = 0x76;
constexpr uint64_t kSaltTornLen = 0x77;
constexpr uint64_t kSaltLatency = 0x78;

bool IsMedia(ChaosAction a) { return a >= ChaosAction::kReadError; }

// SplitMix64 finalizer — the mixing idiom of the media draws (MediaHash),
// so probability-gated chaos rules are pure functions of (seed, point, hit).
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashPoint(const char* point) {
  // FNV-1a over the point name; stable across platforms.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const char* p = point; *p; ++p) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
    h *= 0x100000001B3ULL;
  }
  return h;
}

double UnitDraw(uint64_t seed, const char* point, uint64_t hit) {
  const uint64_t h = Mix64(seed ^ Mix64(HashPoint(point) ^ Mix64(hit)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* ChaosActionToString(ChaosAction a) {
  switch (a) {
    case ChaosAction::kFail: return "fail";
    case ChaosAction::kKill: return "kill";
    case ChaosAction::kStall: return "stall";
    case ChaosAction::kReadError: return "read_error";
    case ChaosAction::kBitFlip: return "bit_flip";
    case ChaosAction::kTornWrite: return "torn_write";
    case ChaosAction::kLatencySpike: return "latency_spike";
  }
  return "?";
}

std::string ChaosCrash::ToString() const {
  std::ostringstream os;
  os << "ChaosCrash at point '" << point << "' hit #" << hit
     << " (scenario=" << scenario << " seed=" << seed << ")";
  return os.str();
}

FaultPlane* FaultPlane::Process() {
  static FaultPlane* plane = new FaultPlane();  // intentionally leaked
  return plane;
}

std::atomic<bool>& FaultPlane::internal_armed() {
  static std::atomic<bool> armed{false};
  return armed;
}

void FaultPlane::Arm(std::string scenario, uint64_t seed,
                     std::vector<ChaosRule> rules, SimClock* clock) {
  MutexLock lock(mu_);
  scenario_ = std::move(scenario);
  seed_ = seed;
  rules_ = std::move(rules);
  rule_consumed_.assign(rules_.size(), false);
  clock_ = clock;
  armed_thread_ = std::this_thread::get_id();
  hits_.clear();
  stats_ = FaultPlaneStats{};
  transient_remaining_.clear();
  internal_armed().store(true, std::memory_order_release);
}

void FaultPlane::Disarm() {
  MutexLock lock(mu_);
  internal_armed().store(false, std::memory_order_release);
  rules_.clear();
  rule_consumed_.clear();
  clock_ = nullptr;
}

bool FaultPlane::armed() const { return ProcessArmed(); }

bool FaultPlane::RuleFires(const ChaosRule& rule, uint64_t hit) const {
  if (hit < rule.from_hit) return false;
  if (rule.repeat != 0 && hit >= rule.from_hit + rule.repeat) return false;
  if (rule.probability > 0.0) {
    return UnitDraw(seed_, rule.point.c_str(), hit) < rule.probability;
  }
  return true;
}

FaultPlane::Decision FaultPlane::Resolve(const char* point,
                                         bool fail_allowed) {
  Decision d;
  MutexLock lock(mu_);
  if (!internal_armed().load(std::memory_order_acquire)) return d;
  const uint64_t hit = hits_[point]++;
  const bool on_arming_thread = std::this_thread::get_id() == armed_thread_;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const ChaosRule& rule = rules_[i];
    if (rule_consumed_[i] || IsMedia(rule.action) || rule.point != point) {
      continue;
    }
    if (!RuleFires(rule, hit)) continue;
    switch (rule.action) {
      case ChaosAction::kStall:
        d.stall_seconds += rule.stall_seconds;
        ++d.stall_count;
        ++stats_.stalls;
        stats_.stalled_seconds += rule.stall_seconds;
        break;
      case ChaosAction::kKill:
        if (!on_arming_thread) {
          ++stats_.suppressed_kills;
          break;
        }
        rule_consumed_[i] = true;  // one-shot: restarts run past the point
        d.kill = true;
        d.kill_hit = hit;
        ++stats_.kills;
        break;
      case ChaosAction::kFail: {
        if (!fail_allowed) {
          ++stats_.dropped_failures;
          break;
        }
        if (!d.fail.ok()) break;  // first matching fail rule wins
        std::ostringstream os;
        if (rule.message.empty()) {
          os << "injected failure at '" << point << "' hit #" << hit;
        } else {
          os << rule.message;
        }
        os << " (scenario=" << scenario_ << " seed=" << seed_ << ")";
        d.fail = Status(rule.code, os.str());
        ++stats_.injected_failures;
        break;
      }
      default:
        break;  // media rules act in the media hooks
    }
    if (d.kill) break;  // a crash preempts later rules at this hit
  }
  return d;
}

Status FaultPlane::Apply(const char* point, bool fail_allowed) {
  Decision d = Resolve(point, fail_allowed);
  if (d.stall_seconds > 0.0) {
    MutexLock lock(mu_);
    if (clock_ != nullptr) {
      SimClock* clock = clock_;
      lock.Unlock();
      clock->Advance(TimeCategory::kChaosStall, d.stall_seconds);
    }
  }
  if (d.kill) {
    ChaosCrash crash;
    crash.point = point;
    crash.hit = d.kill_hit;
    {
      MutexLock lock(mu_);
      crash.seed = seed_;
      crash.scenario = scenario_;
    }
    throw crash;
  }
  return d.fail;
}

Status FaultPlane::OnPoint(const char* point) {
  return Apply(point, /*fail_allowed=*/true);
}

void FaultPlane::OnPointVoid(const char* point) {
  // Kill/stall semantics are identical to OnPoint; fail rules are counted
  // as dropped inside Resolve, so the returned Status is always OK here.
  Status st = Apply(point, /*fail_allowed=*/false);
  (void)st;  // always OK with fail_allowed=false
}

double RetryPolicy::BackoffSeconds(uint32_t failure_index) const {
  return initial_backoff_s *
         std::pow(backoff_multiplier, static_cast<double>(failure_index));
}

double RetryPolicy::MaxTotalBackoffSeconds() const {
  double total = 0.0;
  for (uint32_t i = 0; i < max_retries; ++i) total += BackoffSeconds(i);
  return total;
}

uint64_t FaultPlane::TagForPath(const std::string& path) {
  uint64_t state = 0xC0861D09A17E5ULL;
  for (char c : path) {
    state ^= static_cast<uint64_t>(static_cast<uint8_t>(c));
    SplitMix64(state);
  }
  return SplitMix64(state);
}

uint64_t FaultPlane::MediaHash(uint64_t tag, uint64_t offset,
                               uint64_t salt) const {
  uint64_t state = seed_ ^ (tag * 0x9E3779B97F4A7C15ULL) ^
                   (offset * 0xBF58476D1CE4E5B9ULL) ^
                   (salt * 0x94D049BB133111EBULL);
  SplitMix64(state);
  return SplitMix64(state);
}

const ChaosRule* FaultPlane::FiringMediaRule(const char* point,
                                             ChaosAction action, uint64_t salt,
                                             uint64_t tag,
                                             uint64_t offset) const {
  for (const ChaosRule& rule : rules_) {
    if (rule.action != action || rule.point != point) continue;
    // Dead-sector and flaky read errors draw on their own channels.
    if (action == ChaosAction::kReadError &&
        (rule.repeat == 0) != (salt == kSaltPermanent)) {
      continue;
    }
    if (rule.probability <= 0.0) return &rule;
    const double draw =
        static_cast<double>(MediaHash(tag, offset, salt) >> 11) * 0x1.0p-53;
    if (draw < rule.probability) return &rule;
  }
  return nullptr;
}

Status FaultPlane::OnMediaRead(const char* point, uint64_t tag,
                               uint64_t offset) {
  MutexLock lock(mu_);
  // Dead sectors first: a dead site never spends a flaky budget.
  if (FiringMediaRule(point, ChaosAction::kReadError, kSaltPermanent, tag,
                      offset) != nullptr) {
    ++stats_.injected_permanent_errors;
    return Status::IoError("injected permanent read error at offset " +
                           std::to_string(offset));
  }
  const ChaosRule* flaky = FiringMediaRule(point, ChaosAction::kReadError,
                                           kSaltTransient, tag, offset);
  if (flaky == nullptr) return Status::OK();
  const uint64_t site = MediaHash(tag, offset, kSaltTransientCount);
  uint64_t& left =
      transient_remaining_.emplace(site, 1 + site % flaky->repeat)
          .first->second;
  if (left == 0) return Status::OK();
  --left;
  ++stats_.injected_transient_errors;
  return Status::IoError("injected transient read error at offset " +
                         std::to_string(offset));
}

double FaultPlane::OnMediaData(const char* point, uint64_t tag,
                               uint64_t offset, uint8_t* data, size_t len) {
  MutexLock lock(mu_);
  if (len > 0 && FiringMediaRule(point, ChaosAction::kBitFlip, kSaltBitFlip,
                                 tag, offset) != nullptr) {
    const uint64_t bit = MediaHash(tag, offset, kSaltBitPos) % (len * 8);
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ++stats_.injected_bit_flips;
  }
  const ChaosRule* spike = FiringMediaRule(point, ChaosAction::kLatencySpike,
                                          kSaltLatency, tag, offset);
  if (spike == nullptr) return 0.0;
  ++stats_.injected_latency_spikes;
  return spike->stall_seconds;
}

void FaultPlane::TearWrite(const char* point, uint64_t tag, uint64_t offset,
                           uint8_t* data, size_t len) {
  MutexLock lock(mu_);
  if (len == 0 || FiringMediaRule(point, ChaosAction::kTornWrite, kSaltTorn,
                                  tag, offset) == nullptr) {
    return;
  }
  ++stats_.injected_torn_writes;
  // A strict prefix persists: at least 0, at most len-1 bytes survive.
  const uint64_t persist = MediaHash(tag, offset, kSaltTornLen) % len;
  std::memset(data + persist, 0, len - persist);
}

void FaultPlane::CountRead(uint32_t retries, bool ok) {
  MutexLock lock(mu_);
  stats_.retries += retries;
  if (!ok) {
    ++stats_.permanent_failures;
  } else if (retries > 0) {
    ++stats_.recovered;
  }
}

Status ReadWithRetry(int fd, const char* point, uint64_t tag, uint64_t offset,
                     uint8_t* buf, size_t len, size_t unit,
                     const RetryPolicy& retry,
                     const std::function<void(TimeCategory, double)>& charge) {
  // Chaos point: a scripted kill here models a process death mid-read; a
  // scripted fail models a catastrophic (non-retryable path) I/O error.
  CORGI_INJECT_POINT(point);
  FaultPlane* plane =
      FaultPlane::ProcessArmed() ? FaultPlane::Process() : nullptr;
  Status st;
  for (uint32_t attempt = 0; attempt <= retry.max_retries; ++attempt) {
    if (attempt > 0) {
      charge(TimeCategory::kRetryBackoff, retry.BackoffSeconds(attempt - 1));
    }
    st = plane != nullptr ? plane->OnMediaRead(point, tag, offset)
                          : Status::OK();
    if (st.ok() && ::pread(fd, buf, len, static_cast<off_t>(offset)) !=
                       static_cast<ssize_t>(len)) {
      st = Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (!st.ok()) continue;
    if (plane != nullptr) {
      for (size_t p = 0; p < len; p += unit) {
        const double spike = plane->OnMediaData(
            point, tag, offset + p, buf + p, std::min(unit, len - p));
        if (spike > 0) charge(TimeCategory::kIoRead, spike);
      }
      plane->CountRead(attempt, /*ok=*/true);
    }
    return Status::OK();
  }
  if (plane != nullptr) plane->CountRead(retry.max_retries, /*ok=*/false);
  return Status::IoError("read failed after " +
                         std::to_string(retry.max_retries) + " retries: " +
                         st.message());
}

uint64_t FaultPlane::Hits(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = hits_.find(point);
  return it == hits_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t> FaultPlane::HitSnapshot() const {
  MutexLock lock(mu_);
  return hits_;
}

FaultPlaneStats FaultPlane::StatsSnapshot() const {
  MutexLock lock(mu_);
  return stats_;
}

std::string FaultPlane::scenario() const {
  MutexLock lock(mu_);
  return scenario_;
}

uint64_t FaultPlane::seed() const {
  MutexLock lock(mu_);
  return seed_;
}

}  // namespace corgipile
