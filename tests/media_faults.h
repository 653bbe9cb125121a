// Test helpers for the FaultPlane's media rules (DESIGN.md §6): the
// storage points they attach to, a one-line rule builder, and a scoped
// arming of the process plane.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "iosim/fault_plane.h"

namespace corgipile {

inline constexpr const char* kHeapRead = "storage.heapfile.read";
inline constexpr const char* kHeapAppend = "storage.heapfile.append";
inline constexpr const char* kRecordRead = "storage.recordfile.read_block";
inline constexpr const char* kRecordAppend = "storage.recordfile.append";

/// A media rule at `point`: `rate` per site, `repeat` a kReadError's
/// failure budget (0 = dead sector), `seconds` a kLatencySpike's stall.
inline ChaosRule MediaRule(const char* point, ChaosAction action, double rate,
                           uint64_t repeat = 1, double seconds = 0.0) {
  ChaosRule rule;
  rule.point = point;
  rule.action = action;
  rule.probability = rate;
  rule.repeat = repeat;
  rule.stall_seconds = seconds;
  return rule;
}

/// Arms the process FaultPlane with `rules` for one scope and disarms it on
/// exit, also when a failed assertion returns early.
class ScopedMediaFaults {
 public:
  ScopedMediaFaults(uint64_t seed, std::vector<ChaosRule> rules) {
    FaultPlane::Process()->Arm("media", seed, std::move(rules));
  }
  ~ScopedMediaFaults() { FaultPlane::Process()->Disarm(); }
  ScopedMediaFaults(const ScopedMediaFaults&) = delete;
  ScopedMediaFaults& operator=(const ScopedMediaFaults&) = delete;

  FaultPlaneStats stats() const {
    return FaultPlane::Process()->StatsSnapshot();
  }
};

}  // namespace corgipile
