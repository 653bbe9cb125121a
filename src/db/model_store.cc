#include "db/model_store.h"

#include <utility>

#include "iosim/fault_plane.h"

namespace corgipile {

const char* LifecycleActionToString(LifecycleAction a) {
  switch (a) {
    case LifecycleAction::kPublished:
      return "published";
    case LifecycleAction::kStaged:
      return "staged";
    case LifecycleAction::kPromoted:
      return "promoted";
    case LifecycleAction::kAborted:
      return "aborted";
    case LifecycleAction::kRolledBack:
      return "rolled_back";
    case LifecycleAction::kEvicted:
      return "evicted";
  }
  return "unknown";
}

std::string ModelStore::Put(std::unique_ptr<Model> model) {
  MutexLock lock(mu_);
  std::string id =
      std::string(model->name()) + "_" + std::to_string(next_id_++);
  Entry entry;
  entry.model = std::shared_ptr<const Model>(std::move(model));
  entry.events.push_back({LifecycleAction::kPublished, 1});
  models_[id] = std::move(entry);
  return id;
}

Result<std::shared_ptr<const Model>> ModelStore::Get(
    const std::string& id) const {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  return it->second.model;
}

Result<ModelSnapshot> ModelStore::GetSnapshot(const std::string& id) const {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  return ModelSnapshot{it->second.model, it->second.version};
}

Result<ModelSnapshot> ModelStore::GetVersionSnapshot(const std::string& id,
                                                     uint64_t version) const {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  const Entry& entry = it->second;
  if (version == entry.version) {
    return ModelSnapshot{entry.model, entry.version};
  }
  auto hist = entry.history.find(version);
  if (hist == entry.history.end()) {
    return Status::NotFound("model '" + id + "' has no retained version " +
                            std::to_string(version));
  }
  return ModelSnapshot{hist->second, version};
}

void ModelStore::RetireCurrentLocked(Entry* entry) {
  entry->history.emplace(entry->version, std::move(entry->model));
  while (entry->history.size() > history_limit_) {
    const uint64_t evicted = entry->history.begin()->first;
    entry->history.erase(entry->history.begin());
    entry->events.push_back({LifecycleAction::kEvicted, evicted});
  }
}

Result<uint64_t> ModelStore::Publish(const std::string& id,
                                     std::unique_ptr<Model> model) {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) {
    // First publish: nothing to retire, nothing torn if we die before the
    // insert — the id simply does not exist yet.
    CORGI_INJECT_POINT("lifecycle.publish");
    Entry entry;
    entry.model = std::shared_ptr<const Model>(std::move(model));
    entry.events.push_back({LifecycleAction::kPublished, 1});
    models_[id] = std::move(entry);
    return uint64_t{1};
  }
  Entry& entry = it->second;
  // Staging: everything that can fail happens on locals, before the crash
  // point. A kill here unwinds with the entry untouched.
  std::shared_ptr<const Model> staged(std::move(model));
  const uint64_t new_version = entry.next_version;
  CORGI_INJECT_POINT("lifecycle.publish");
  // Commit: the entry flips to the new state in one locked sequence.
  RetireCurrentLocked(&entry);
  entry.model = std::move(staged);
  entry.version = new_version;
  entry.next_version = new_version + 1;
  entry.events.push_back({LifecycleAction::kPublished, new_version});
  return new_version;
}

Status ModelStore::Rollback(const std::string& id, uint64_t version) {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  Entry& entry = it->second;
  if (version == entry.version) {
    return Status::InvalidArgument("model '" + id + "' is already at version " +
                                   std::to_string(version));
  }
  auto hist = entry.history.find(version);
  if (hist == entry.history.end()) {
    return Status::NotFound("model '" + id + "' has no retained version " +
                            std::to_string(version) +
                            " (evicted or never published)");
  }
  // Staging done (both lookups resolved); a kill at the point leaves the
  // incumbent serving.
  std::shared_ptr<const Model> target = hist->second;
  CORGI_INJECT_POINT("lifecycle.rollback");
  // Commit: target leaves the history, the displaced current joins it.
  entry.history.erase(hist);
  RetireCurrentLocked(&entry);
  entry.model = std::move(target);
  entry.version = version;
  entry.events.push_back({LifecycleAction::kRolledBack, version});
  return Status::OK();
}

Result<uint64_t> ModelStore::StageCanary(const std::string& id,
                                         std::unique_ptr<Model> model,
                                         const CanaryPolicy& policy) {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) {
    return Status::InvalidArgument(
        "cannot stage a canary for unknown model '" + id +
        "' (no incumbent; use Publish for the first version)");
  }
  if (policy.fraction <= 0.0 || policy.fraction >= 1.0) {
    return Status::InvalidArgument(
        "canary fraction must be in (0, 1), got " +
        std::to_string(policy.fraction));
  }
  Entry& entry = it->second;
  // The canary pairs both models on the same rows: they must agree on the
  // feature width (0 = unknown, accepted), or one reads past its weights.
  const uint32_t incumbent_dim = entry.model->input_dim();
  const uint32_t candidate_dim = model->input_dim();
  if (incumbent_dim != 0 && candidate_dim != 0 &&
      incumbent_dim != candidate_dim) {
    return Status::InvalidArgument(
        "canary for model '" + id + "' has input_dim " +
        std::to_string(candidate_dim) + " but the incumbent has " +
        std::to_string(incumbent_dim));
  }
  CanarySnapshot staged;
  staged.model = std::shared_ptr<const Model>(std::move(model));
  staged.version = entry.next_version;
  staged.policy = policy;
  entry.canary = std::move(staged);
  entry.next_version += 1;
  entry.events.push_back(
      {LifecycleAction::kStaged, entry.canary->version});
  return entry.canary->version;
}

std::optional<CanarySnapshot> ModelStore::GetCanary(
    const std::string& id) const {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return std::nullopt;
  return it->second.canary;
}

Status ModelStore::PromoteCanary(const std::string& id) {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  Entry& entry = it->second;
  if (!entry.canary.has_value()) {
    return Status::InvalidArgument("no canary staged for model '" + id +
                                      "'");
  }
  // Staging: pull the candidate onto locals; a kill at the point leaves
  // both the incumbent and the staged canary exactly as they were.
  std::shared_ptr<const Model> candidate = entry.canary->model;
  const uint64_t candidate_version = entry.canary->version;
  CORGI_INJECT_POINT("lifecycle.canary_promote");
  // Commit.
  RetireCurrentLocked(&entry);
  entry.model = std::move(candidate);
  entry.version = candidate_version;
  entry.canary.reset();
  entry.events.push_back({LifecycleAction::kPromoted, candidate_version});
  return Status::OK();
}

Status ModelStore::AbortCanary(const std::string& id) {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  Entry& entry = it->second;
  if (!entry.canary.has_value()) {
    return Status::InvalidArgument("no canary staged for model '" + id +
                                      "'");
  }
  const uint64_t burned = entry.canary->version;
  CORGI_INJECT_POINT("lifecycle.canary_abort");
  entry.canary.reset();
  entry.events.push_back({LifecycleAction::kAborted, burned});
  return Status::OK();
}

Result<uint64_t> ModelStore::GetVersion(const std::string& id) const {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  return it->second.version;
}

Result<std::vector<uint64_t>> ModelStore::History(const std::string& id) const {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  std::vector<uint64_t> versions;
  versions.reserve(it->second.history.size());
  for (const auto& [version, _] : it->second.history) {
    versions.push_back(version);
  }
  return versions;
}

Result<std::vector<LifecycleEvent>> ModelStore::Events(
    const std::string& id) const {
  MutexLock lock(mu_);
  auto it = models_.find(id);
  if (it == models_.end()) return Status::NotFound("no model '" + id + "'");
  return it->second.events;
}

Status ModelStore::Remove(const std::string& id) {
  MutexLock lock(mu_);
  if (models_.erase(id) == 0) {
    return Status::NotFound("no model '" + id + "'");
  }
  return Status::OK();
}

size_t ModelStore::size() const {
  MutexLock lock(mu_);
  return models_.size();
}

std::vector<std::string> ModelStore::Ids() const {
  MutexLock lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [id, _] : models_) ids.push_back(id);
  return ids;
}

size_t ModelStore::history_limit() const {
  MutexLock lock(mu_);
  return history_limit_;
}

void ModelStore::set_history_limit(size_t limit) {
  MutexLock lock(mu_);
  history_limit_ = limit;
}

}  // namespace corgipile
