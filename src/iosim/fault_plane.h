// Process-wide deterministic fault plane (DESIGN.md §6, §12).
//
// One fault surface for every subsystem. Code in storage, shuffle,
// trainer, checkpoint, db, and serve declares *named points* with
// CORGI_CRASH_POINT / CORGI_INJECT_POINT, and a scenario arms the plane
// with a seeded rule list describing what happens there. Rules come in two
// kinds:
//
// Chaos rules act at a hit of a point; every decision is a pure function of
// (scenario seed, point name, hit index):
//  * kFail  — the point returns an injected non-OK Status (channel-send
//             failures, allocation failures, serve-resolution failures).
//  * kStall — the point charges simulated seconds to the armed SimClock
//             (TimeCategory::kChaosStall); never a real sleep.
//  * kKill  — the point throws ChaosCrash, tearing the workload down
//             mid-flight. Only the arming thread is killed (throwing
//             across a worker thread's start function would terminate the
//             process); non-arming threads count the rule as suppressed.
//
// Media rules model the storage medium under the heap and record files
// (paper §5–§6: PostgreSQL heap pages, TFRecord-style files). They attach
// to the storage read/append points and act on a file *site* — its path
// tag and byte offset — so every decision is a pure function of
// (seed, file tag, byte offset, salt) and never moves a hit counter:
//  * kReadError    — a read attempt fails with kIoError: a dead sector
//                    (repeat = 0) on every attempt, a flaky one for
//                    1 + site % repeat attempts and then never again;
//                    healed or surfaced by ReadWithRetry's backoff loop.
//  * kBitFlip      — sticky bad media: every read of the site comes back
//                    with one deterministic bit flipped (caught by the
//                    page / record CRC, never retried).
//  * kTornWrite    — a write persists only a strict prefix, the tail reads
//                    back as zeros; silent until the next checksummed read.
//  * kLatencySpike — stall_seconds charged to the file's SimClock as
//                    kIoRead.
//
// The plane is disarmed by default and the hooks compile to a single
// relaxed atomic load in that state, so points are cheap enough for hot
// paths; a same-seed rerun replays every fault bit-for-bit.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "iosim/sim_clock.h"
#include "util/mutex.h"
#include "util/status.h"

namespace corgipile {

/// What a matched rule does at a point.
enum class ChaosAction : int {
  kFail = 0,  ///< return an injected Status (ignored at void points)
  kKill,      ///< throw ChaosCrash on the arming thread
  kStall,     ///< charge stall_seconds to the armed SimClock
  // Media actions, drawn per file site (see the file comment).
  kReadError,     ///< fail read attempts; repeat 0 = dead sector
  kBitFlip,       ///< flip one bit of every read of the site
  kTornWrite,     ///< persist only a prefix of the write
  kLatencySpike,  ///< charge stall_seconds to the file's clock as kIoRead
};

const char* ChaosActionToString(ChaosAction a);

/// One scripted fault. A chaos rule fires when its point's 0-based hit
/// counter lands in [from_hit, from_hit + repeat) — or, when `probability`
/// > 0, when additionally the seeded per-hit draw (a pure function of
/// scenario seed × point × hit index) falls below `probability`. kKill
/// rules are one-shot regardless of `repeat`: after the first crash they
/// are consumed so a restarted attempt can run past the point.
///
/// A media rule ignores hits: `probability` is its per-site rate (0 = every
/// site), `repeat` a kReadError's failure budget and `stall_seconds` a
/// kLatencySpike's duration. Per point and action the first firing rule
/// acts; dead-sector rules are checked before flaky ones.
struct ChaosRule {
  std::string point;
  ChaosAction action = ChaosAction::kFail;

  uint64_t from_hit = 0;
  uint64_t repeat = 1;  ///< 0 = every hit from from_hit onward
  double probability = 0.0;  ///< 0 = fire unconditionally inside the window

  /// kFail payload.
  StatusCode code = StatusCode::kIoError;
  std::string message;  ///< defaulted to a descriptive one when empty

  /// kStall payload, charged as TimeCategory::kChaosStall; kLatencySpike
  /// payload, charged as TimeCategory::kIoRead.
  double stall_seconds = 0.0;
};

/// Thrown by a kKill rule on the arming thread. Deliberately not derived
/// from std::exception: generic catch(const std::exception&) recovery
/// blocks must not swallow a scripted crash.
struct ChaosCrash {
  std::string point;
  uint64_t hit = 0;
  uint64_t seed = 0;
  std::string scenario;

  std::string ToString() const;
};

/// Counters describing plane activity since the last Arm().
struct FaultPlaneStats {
  uint64_t kills = 0;              ///< ChaosCrash thrown
  uint64_t suppressed_kills = 0;   ///< kill matched off the arming thread
  uint64_t injected_failures = 0;  ///< kFail statuses returned
  uint64_t dropped_failures = 0;   ///< kFail matched at a void point
  uint64_t stalls = 0;             ///< kStall charges
  double stalled_seconds = 0.0;

  // Media faults, one per injected event (a bit flip per corrupted read).
  uint64_t injected_transient_errors = 0;
  uint64_t injected_permanent_errors = 0;
  uint64_t injected_bit_flips = 0;
  uint64_t injected_torn_writes = 0;
  uint64_t injected_latency_spikes = 0;
  // ReadWithRetry outcomes while armed.
  uint64_t retries = 0;             ///< read attempts repeated after failure
  uint64_t recovered = 0;           ///< reads that succeeded after >=1 retry
  uint64_t permanent_failures = 0;  ///< reads surfaced as errors
};

/// Bounded exponential backoff applied to failed read attempts. Backoff
/// time is charged on the SimClock (TimeCategory::kRetryBackoff), not slept
/// for real, so fault experiments stay fast.
struct RetryPolicy {
  uint32_t max_retries = 3;  ///< total attempts = 1 + max_retries
  double initial_backoff_s = 1e-3;
  double backoff_multiplier = 2.0;

  double BackoffSeconds(uint32_t failure_index) const;  ///< 0-based

  /// Upper bound on the backoff one read can charge to the SimClock: the
  /// sum of BackoffSeconds over the full retry budget. Property-tested
  /// against randomized fault schedules in tests/property_test.cc.
  double MaxTotalBackoffSeconds() const;
};

/// The process-wide fault plane. Disarmed by default; a ChaosRunner (or a
/// test) arms it with a scenario's rules for the duration of one workload.
/// Thread-safe; hit counting and media draws are serialized under one
/// mutex, which is fine because armed runs are short, scripted test
/// workloads.
class FaultPlane {
 public:
  /// The singleton consulted by the CORGI_*_POINT hooks.
  static FaultPlane* Process();
  /// Cheap disarmed-check for the hooks' fast path.
  static bool ProcessArmed() {
    return internal_armed().load(std::memory_order_acquire);
  }

  /// Arms the plane. `clock` (optional) receives kStall charges; without
  /// one, stall rules only count. Replaces any previous arming.
  void Arm(std::string scenario, uint64_t seed, std::vector<ChaosRule> rules,
           SimClock* clock = nullptr);
  void Disarm();
  bool armed() const;

  /// Full-semantics hook for Status-returning contexts: counts the hit,
  /// applies stall / kill / fail rules in rule order. Called via
  /// CORGI_INJECT_POINT; safe (and a cheap no-op) while disarmed.
  Status OnPoint(const char* point);

  /// Stall/kill-only hook for void contexts (CORGI_CRASH_POINT). A kFail
  /// rule matching here is counted as dropped, never silently lost.
  void OnPointVoid(const char* point);

  // --- media hooks: pure in (seed, tag, offset), never count a hit ---

  /// Stable tag for a file path, so a path faults identically across
  /// open/close cycles.
  static uint64_t TagForPath(const std::string& path);
  /// kReadError rules for one read attempt of the range at `offset`.
  Status OnMediaRead(const char* point, uint64_t tag, uint64_t offset);
  /// kBitFlip rules on `len` freshly read bytes at `offset`; returns the
  /// kLatencySpike seconds to charge for them (usually 0).
  double OnMediaData(const char* point, uint64_t tag, uint64_t offset,
                     uint8_t* data, size_t len);
  /// kTornWrite rules: zeroes the lost tail of a `len`-byte write.
  void TearWrite(const char* point, uint64_t tag, uint64_t offset,
                 uint8_t* data, size_t len);
  /// Counts one ReadWithRetry outcome.
  void CountRead(uint32_t retries, bool ok);

  /// Hits of `point` since the last Arm (0 when never hit).
  uint64_t Hits(const std::string& point) const;
  /// All points hit since the last Arm, ordered by name.
  std::map<std::string, uint64_t> HitSnapshot() const;
  FaultPlaneStats StatsSnapshot() const;

  std::string scenario() const;
  uint64_t seed() const;

 private:
  FaultPlane() = default;

  static std::atomic<bool>& internal_armed();

  struct Decision {
    bool kill = false;
    uint64_t kill_hit = 0;
    double stall_seconds = 0.0;
    uint64_t stall_count = 0;
    Status fail;  // OK unless a kFail rule matched
  };
  /// Counts the hit and resolves matching rules; all side effects
  /// (throwing, clock charges) happen in the callers after unlock.
  Decision Resolve(const char* point, bool fail_allowed);
  /// Shared body of OnPoint / OnPointVoid.
  Status Apply(const char* point, bool fail_allowed);

  /// True iff `rule` fires at hit index `hit` (pure in seed × point × hit).
  bool RuleFires(const ChaosRule& rule, uint64_t hit) const
      CORGI_REQUIRES(mu_);
  /// The first `action` rule at `point` whose per-site draw on the
  /// decision channel `salt` fires.
  const ChaosRule* FiringMediaRule(const char* point, ChaosAction action,
                                   uint64_t salt, uint64_t tag,
                                   uint64_t offset) const CORGI_REQUIRES(mu_);
  uint64_t MediaHash(uint64_t tag, uint64_t offset, uint64_t salt) const
      CORGI_REQUIRES(mu_);

  mutable Mutex mu_;
  std::string scenario_ CORGI_GUARDED_BY(mu_);
  uint64_t seed_ CORGI_GUARDED_BY(mu_) = 0;
  std::vector<ChaosRule> rules_ CORGI_GUARDED_BY(mu_);
  std::vector<bool> rule_consumed_ CORGI_GUARDED_BY(mu_);
  SimClock* clock_ CORGI_GUARDED_BY(mu_) = nullptr;
  std::thread::id armed_thread_ CORGI_GUARDED_BY(mu_);
  /// Ordered map: HitSnapshot iterates it, and iteration order must be
  /// deterministic (the determinism linter forbids unordered iteration).
  std::map<std::string, uint64_t> hits_ CORGI_GUARDED_BY(mu_);
  FaultPlaneStats stats_ CORGI_GUARDED_BY(mu_);
  /// Failures left per flaky read site (keyed by site hash). Lookup-only:
  /// never iterated, so its bucket order cannot leak into results.
  std::unordered_map<uint64_t, uint64_t> transient_remaining_
      CORGI_GUARDED_BY(mu_);
};

/// The one retrying positional read of the storage files. Hits `point`
/// once, then makes up to 1 + retry.max_retries pread attempts of
/// [offset, offset + len) on `fd`, charging backoff between them as
/// kRetryBackoff. While the plane is armed, media rules on `point` may fail
/// an attempt, and after a good pread flip a bit and add a latency spike
/// (kIoRead) per `unit` bytes: the page size for heap files, so each page
/// of a block read fails on its own, and the whole read for record files.
/// `charge` receives every simulated-time charge.
Status ReadWithRetry(int fd, const char* point, uint64_t tag, uint64_t offset,
                     uint8_t* buf, size_t len, size_t unit,
                     const RetryPolicy& retry,
                     const std::function<void(TimeCategory, double)>& charge);

/// Declares a named chaos point in a void (or non-Status) context. Applies
/// kStall and kKill rules; compiles to one atomic load while disarmed.
#define CORGI_CRASH_POINT(name)                                   \
  do {                                                            \
    if (::corgipile::FaultPlane::ProcessArmed()) {                \
      ::corgipile::FaultPlane::Process()->OnPointVoid(name);      \
    }                                                             \
  } while (false)

/// Declares a named chaos point in a Status / Result-returning function.
/// Applies kStall, kKill, and kFail rules; a matched kFail propagates as
/// the function's return value via CORGI_RETURN_NOT_OK semantics.
#define CORGI_INJECT_POINT(name)                                  \
  do {                                                            \
    if (::corgipile::FaultPlane::ProcessArmed()) {                \
      ::corgipile::Status _chaos_st =                             \
          ::corgipile::FaultPlane::Process()->OnPoint(name);      \
      if (!_chaos_st.ok()) return _chaos_st;                      \
    }                                                             \
  } while (false)

}  // namespace corgipile
