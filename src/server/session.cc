#include "server/session.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace softdb {

Session::Session(Dispatcher* dispatcher, const ServerOptions& options,
                 std::uint64_t id, std::string name, int priority)
    : dispatcher_(dispatcher),
      retry_(options.retry),
      id_(id),
      name_(std::move(name)),
      priority_(priority),
      token_(std::make_shared<CancellationToken>()),
      // Distinct per-session jitter streams from one policy seed, so N
      // sessions desynchronize deterministically.
      backoff_rng_(options.retry.jitter_seed ^ (id * 0x9E3779B97F4A7C15ULL)) {}

Result<QueryResult> Session::ExecuteOnce(const std::string& sql,
                                         const QueryContext* caller) {
  // Session statements always run under the session token, so Cancel()
  // reaches them; a caller-supplied context takes precedence wholesale.
  QueryContext session_ctx;
  if (caller == nullptr) {
    session_ctx.cancel = token_;
    caller = &session_ctx;
  }
  return dispatcher_->Execute(this, sql, caller);
}

Result<QueryResult> Session::Execute(const std::string& sql) {
  return Execute(sql, nullptr);
}

Result<QueryResult> Session::Execute(const std::string& sql,
                                     const QueryContext* caller) {
  // Counted for the whole retry loop: the dispatcher, and with it this
  // session, outlives every statement a client is still inside.
  Dispatcher::Caller counted(dispatcher_);
  stats_.statements.fetch_add(1, std::memory_order_relaxed);
  Result<QueryResult> result = ExecuteOnce(sql, caller);
  std::size_t attempt = 1;
  while (!result.ok() && IsRetryableStatus(result.status()) &&
         attempt < retry_.max_attempts &&
         !token_->cancelled()) {
    std::chrono::milliseconds backoff;
    {
      std::lock_guard<std::mutex> lk(backoff_mu_);
      backoff = ComputeBackoff(retry_, attempt, &backoff_rng_);
    }
    // A producer hint (retry_after_ms) can only lengthen the wait.
    if (const auto hint = StatusDetail(result.status(), "retry_after_ms")) {
      backoff = std::max(backoff, std::chrono::milliseconds(*hint));
    }
    // Never back off past the caller's deadline: returning the transient
    // error beats burning the rest of the budget asleep.
    if (caller != nullptr) {
      const auto budget = caller->RemainingBudget();
      if (budget.has_value() && *budget <= backoff) break;
    }
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    stats_.backoff_ms_total.fetch_add(
        static_cast<std::uint64_t>(backoff.count()),
        std::memory_order_relaxed);
    ServerStats& server = dispatcher_->stats();
    server.retries.fetch_add(1, std::memory_order_relaxed);
    server.backoff_ms_total.fetch_add(
        static_cast<std::uint64_t>(backoff.count()),
        std::memory_order_relaxed);
    // Sleep in short slices so session cancellation and server drain cut
    // the wait short instead of stalling a drain for a full backoff.
    auto remaining = backoff;
    while (remaining.count() > 0 && !token_->cancelled() &&
           !dispatcher_->draining()) {
      const auto slice = std::min(remaining, std::chrono::milliseconds(5));
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
    ++attempt;
    result = ExecuteOnce(sql, caller);
  }

  if (result.ok()) {
    stats_.succeeded.fetch_add(1, std::memory_order_relaxed);
    stats_.rows_output.fetch_add(result->exec_stats.rows_output,
                                 std::memory_order_relaxed);
    stats_.wal_records.fetch_add(result->exec_stats.wal_records,
                                 std::memory_order_relaxed);
    stats_.wal_fsyncs.fetch_add(result->exec_stats.wal_fsyncs,
                                std::memory_order_relaxed);
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

SessionManager::SessionManager(SoftDb* db, ServerOptions options)
    : options_(options), dispatcher_(db, options) {}

Result<Session*> SessionManager::OpenSession(std::string name, int priority) {
  if (dispatcher_.draining()) {
    return WithStatusDetail(
        Status::ResourceExhausted("server draining, no new sessions"),
        "draining", 1);
  }
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = next_session_id_++;
  if (name.empty()) name = "session-" + std::to_string(id);
  auto session = std::unique_ptr<Session>(
      new Session(&dispatcher_, options_, id, std::move(name), priority));
  Session* out = session.get();
  sessions_.emplace(id, std::move(session));
  return out;
}

Status SessionManager::CloseSession(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session with id " + std::to_string(id));
  }
  it->second->Cancel();  // Future statements on a stale handle fail fast.
  sessions_.erase(it);
  return Status::OK();
}

std::size_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sessions_.size();
}

std::vector<Session*> SessionManager::sessions() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Session*> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session.get());
  return out;
}

}  // namespace softdb
