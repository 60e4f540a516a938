#include "optimizer/plan_cache.h"

#include <algorithm>

#include "common/failpoint.h"

namespace softdb {

namespace {

void CollectPlanTablesInto(const PlanNode& plan,
                           std::vector<std::string>* out) {
  if (plan.kind() == PlanKind::kScan) {
    const auto& scan = static_cast<const ScanNode&>(plan);
    if (std::find(out->begin(), out->end(), scan.table_name()) ==
        out->end()) {
      out->push_back(scan.table_name());
    }
  }
  for (const PlanPtr& child : plan.children()) {
    CollectPlanTablesInto(*child, out);
  }
}

}  // namespace

std::vector<std::string> CollectPlanTables(const PlanNode& plan) {
  std::vector<std::string> tables;
  CollectPlanTablesInto(plan, &tables);
  return tables;
}

std::shared_ptr<CachedPlan> PlanCache::Put(
    const std::string& sql, PlanPtr primary, PlanPtr backup,
    std::vector<std::string> used_scs,
    std::vector<std::pair<std::string, std::uint64_t>> sc_epochs,
    std::vector<RewriteCertificate> certificates,
    std::vector<RewriteCertificate> backup_certificates) {
  auto entry = std::make_shared<CachedPlan>();
  entry->sql = sql;
  entry->primary = std::move(primary);
  entry->backup = std::move(backup);
  entry->used_scs = std::move(used_scs);
  entry->sc_epochs = std::move(sc_epochs);
  entry->certificates = std::move(certificates);
  entry->backup_certificates = std::move(backup_certificates);
  return Put(std::move(entry));
}

std::shared_ptr<CachedPlan> PlanCache::Put(std::shared_ptr<CachedPlan> entry) {
  if (entry->primary != nullptr) {
    entry->tables = CollectPlanTables(*entry->primary);
  }
  if (entry->backup != nullptr) {
    for (const std::string& table : CollectPlanTables(*entry->backup)) {
      if (std::find(entry->tables.begin(), entry->tables.end(), table) ==
          entry->tables.end()) {
        entry->tables.push_back(table);
      }
    }
  }
  // Injected insert failure degrades gracefully: the caller still gets a
  // runnable package, it just is not cached for the next session.
  if (SOFTDB_FAILPOINT_FIRED("plan_cache.insert")) return entry;
  // Declared before the lock so the displaced packages are freed after it
  // is released.
  std::shared_ptr<CachedPlan> replaced, evicted;
  std::lock_guard<std::mutex> lk(mu_);
  auto [slot, inserted] = index_.try_emplace(entry->sql);
  if (!inserted) {
    replaced = std::move(*slot->second);
    lru_.erase(slot->second);
  }
  lru_.push_front(entry);
  slot->second = lru_.begin();
  if (lru_.size() > kCapacity) {
    evicted = lru_.back();
    EraseLocked(std::prev(lru_.end()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

std::shared_ptr<CachedPlan> PlanCache::Get(const std::string& sql) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(sql);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

void PlanCache::EraseLocked(Lru::iterator it) {
  index_.erase((*it)->sql);
  lru_.erase(it);
}

std::size_t PlanCache::OnScViolated(const std::string& sc_name) {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t flipped = 0;
  for (const std::shared_ptr<CachedPlan>& entry : lru_) {
    if (entry->using_backup.load(std::memory_order_acquire)) continue;
    if (std::find(entry->used_scs.begin(), entry->used_scs.end(), sc_name) !=
        entry->used_scs.end()) {
      entry->using_backup.store(true, std::memory_order_release);
      ++flipped;
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // A catalog-wide flush would have dropped this package too.
      invalidations_avoided_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return flipped;
}

std::size_t PlanCache::OnTableDropped(const std::string& table) {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t evicted = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const CachedPlan& entry = **it;
    // Entries recorded without table provenance are evicted conservatively.
    const bool reads_table =
        entry.tables.empty() ||
        std::find(entry.tables.begin(), entry.tables.end(), table) !=
            entry.tables.end();
    if (reads_table) {
      // Sessions holding the shared_ptr from Get keep the plan alive.
      EraseLocked(it++);
      ++evicted;
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    } else {
      invalidations_avoided_.fetch_add(1, std::memory_order_relaxed);
      ++it;
    }
  }
  return evicted;
}

std::size_t PlanCache::Rearm(
    const std::vector<std::pair<std::string, std::uint64_t>>& active_epochs) {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t rearmed = 0;
  for (const std::shared_ptr<CachedPlan>& entry : lru_) {
    if (!entry->using_backup.load(std::memory_order_acquire)) continue;
    const bool all_active = std::all_of(
        entry->used_scs.begin(), entry->used_scs.end(),
        [&](const std::string& name) {
          return std::any_of(active_epochs.begin(), active_epochs.end(),
                             [&](const auto& ae) { return ae.first == name; });
        });
    if (!all_active) continue;
    entry->using_backup.store(false, std::memory_order_release);
    for (auto& [name, epoch] : entry->sc_epochs) {
      for (const auto& [active_name, active_epoch] : active_epochs) {
        if (active_name == name) epoch = active_epoch;
      }
    }
    ++rearmed;
  }
  return rearmed;
}

std::vector<std::pair<std::string, std::uint64_t>> PlanCache::ScEpochs(
    const CachedPlan& entry) const {
  std::lock_guard<std::mutex> lk(mu_);
  return entry.sc_epochs;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  index_.clear();
  lru_.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

}  // namespace softdb
