#include "server/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "server/session.h"

namespace softdb {

namespace {

/// Rough admission backoff hint: one base backoff per queued statement a
/// worker must clear first. Deterministic, so tests can pin it.
std::int64_t RetryAfterHintMs(const ServerOptions& options,
                              std::size_t queue_depth) {
  const std::size_t workers = std::max<std::size_t>(1, options.worker_threads);
  const std::size_t waves = queue_depth / workers + 1;
  return static_cast<std::int64_t>(options.retry.base_backoff.count()) *
         static_cast<std::int64_t>(waves);
}

void BumpHighWater(std::atomic<std::uint64_t>* high_water,
                   std::uint64_t depth) {
  std::uint64_t seen = high_water->load(std::memory_order_relaxed);
  while (depth > seen &&
         !high_water->compare_exchange_weak(seen, depth,
                                            std::memory_order_relaxed)) {
  }
}

}  // namespace

Dispatcher::Dispatcher(SoftDb* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  const std::size_t n = std::max<std::size_t>(1, options_.worker_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Dispatcher::~Dispatcher() {
  // Hard shutdown for servers that never drained: close admissions,
  // reject queued work, cancel in-flight statements, join. No checkpoint
  // — that is Drain()'s contract; an undrained engine recovers from its
  // WAL tail instead.
  std::vector<RequestPtr> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
    shutdown_ = true;
    paused_ = false;
    doomed.assign(queue_.begin(), queue_.end());
    queue_.clear();
    for (const RequestPtr& r : running_) {
      if (r->ctx.cancel != nullptr) r->ctx.cancel->Cancel();
    }
  }
  work_cv_.notify_all();
  for (const RequestPtr& r : doomed) {
    stats_.drain_rejected.fetch_add(1, std::memory_order_relaxed);
    Complete(r, WithStatusDetail(
                    Status::ResourceExhausted("server shutting down"),
                    "draining", 1));
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

QueryContext Dispatcher::EffectiveContext(const QueryContext* caller,
                                          Session* session) const {
  QueryContext ctx;
  // Precedence for the token: the caller's own, else the session token
  // (Session::Cancel aborts everything outstanding), else a fresh one —
  // every in-flight statement must be cancellable by Drain.
  if (caller != nullptr && caller->cancel != nullptr) {
    ctx.cancel = caller->cancel;
  } else if (session != nullptr) {
    ctx.cancel = session->cancel_token();
  } else {
    ctx.cancel = std::make_shared<CancellationToken>();
  }
  if (caller != nullptr && caller->has_deadline) {
    ctx.has_deadline = true;
    ctx.deadline = caller->deadline;
  }
  // The server default only ever tightens.
  if (options_.default_deadline_ms > 0) {
    const auto cap = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(options_.default_deadline_ms);
    if (!ctx.has_deadline || cap < ctx.deadline) {
      ctx.has_deadline = true;
      ctx.deadline = cap;
    }
  }
  return ctx;
}

Result<QueryResult> Dispatcher::Execute(Session* session,
                                        const std::string& sql,
                                        const QueryContext* caller) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);

  if (SOFTDB_FAILPOINT_FIRED("server.admit")) {
    stats_.rejected_injected.fetch_add(1, std::memory_order_relaxed);
    return WithStatusDetail(
        Status::ResourceExhausted("injected admission rejection"),
        "retry_after_ms", RetryAfterHintMs(options_, queue_depth()));
  }

  RequestPtr req = std::make_shared<Request>();
  req->sql = sql;
  req->session = session;
  req->priority = session != nullptr ? session->priority() : 0;
  req->ctx = EffectiveContext(caller, session);

  // Deadline-aware admission: a statement that cannot finish — its
  // deadline predates arrival — is rejected before it consumes a queue
  // slot or a worker (§15; satellite of SoftDb::Execute's defensive
  // check).
  if (req->ctx.DeadlineExpired()) {
    stats_.rejected_expired_deadline.fetch_add(1, std::memory_order_relaxed);
    const auto lag = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - req->ctx.deadline);
    return WithStatusDetail(
        Status::DeadlineExceeded("deadline unsatisfiable at admission"),
        "deadline_lag_ms", lag.count());
  }

  RequestPtr shed_victim;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (draining_ || shutdown_) {
      stats_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
      return WithStatusDetail(
          Status::ResourceExhausted("server draining, admissions closed"),
          "draining", 1);
    }

    // Load shedding: from the high-water mark on, lowest-priority queued
    // work is evicted to admit strictly higher-priority statements.
    if (queue_.size() >= options_.high_water_depth) {
      shed_victim = ShedVictimLocked(req->priority);
    }
    if (queue_.size() >= options_.max_queue_depth) {
      const std::size_t depth = queue_.size();
      stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      if (shed_victim != nullptr) {
        // Unreachable by construction (shedding freed a slot), but kept
        // defensive: never leave a victim pending.
        Complete(shed_victim,
                 WithStatusDetail(
                     Status::ResourceExhausted("shed under overload"),
                     "shed", 1));
      }
      Status st = WithStatusDetail(
          Status::ResourceExhausted("admission queue full"), "queue_depth",
          static_cast<std::int64_t>(depth));
      return WithStatusDetail(std::move(st), "retry_after_ms",
                              RetryAfterHintMs(options_, depth));
    }

    // Backpressure: above the high-water mark, an admitted statement's
    // deadline is tightened so it cannot out-wait its own budget in
    // queue.
    if (queue_.size() >= options_.high_water_depth &&
        options_.overload_deadline_ms > 0) {
      const auto cap =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.overload_deadline_ms);
      if (!req->ctx.has_deadline || cap < req->ctx.deadline) {
        req->ctx.has_deadline = true;
        req->ctx.deadline = cap;
        stats_.deadline_tightened.fetch_add(1, std::memory_order_relaxed);
      }
    }

    req->seq = next_seq_++;
    req->enqueued_at = std::chrono::steady_clock::now();
    queue_.push_back(req);
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);
    BumpHighWater(&stats_.queue_depth_high_water, queue_.size());
  }
  work_cv_.notify_one();

  if (shed_victim != nullptr) {
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    Status st = WithStatusDetail(
        Status::ResourceExhausted("shed under overload"), "shed", 1);
    Complete(shed_victim,
             WithStatusDetail(std::move(st), "retry_after_ms",
                              RetryAfterHintMs(options_, queue_depth())));
  }

  std::unique_lock<std::mutex> rlk(req->mu);
  req->cv.wait(rlk, [&req] { return req->done; });
  return *req->result;
}

std::list<Dispatcher::RequestPtr>::iterator Dispatcher::BestLocked() {
  auto best = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    if ((*it)->priority > (*best)->priority ||
        ((*it)->priority == (*best)->priority &&
         (*it)->seq < (*best)->seq)) {
      best = it;
    }
  }
  return best;
}

Dispatcher::RequestPtr Dispatcher::ShedVictimLocked(int incoming_priority) {
  auto victim = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if ((*it)->priority >= incoming_priority) continue;
    if (victim == queue_.end() || (*it)->priority < (*victim)->priority ||
        ((*it)->priority == (*victim)->priority &&
         (*it)->seq > (*victim)->seq)) {
      // Lowest priority first; among equals the newest goes, preserving
      // the oldest request's queue progress.
      victim = it;
    }
  }
  if (victim == queue_.end()) return nullptr;
  RequestPtr out = *victim;
  queue_.erase(victim);
  return out;
}

void Dispatcher::WorkerLoop() {
  for (;;) {
    RequestPtr req;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (shutdown_) return;
      auto it = BestLocked();
      req = *it;
      queue_.erase(it);
      req->dequeue_seq = ++dequeued_;
      running_.push_back(req);
    }
    ServeRequest(req);
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), req));
      if (running_.empty()) idle_cv_.notify_all();
    }
  }
}

void Dispatcher::ServeRequest(const RequestPtr& req) {
  if (SOFTDB_FAILPOINT_FIRED("server.dequeue")) {
    Complete(req, WithStatusDetail(
                      Status::ResourceExhausted("injected dequeue fault"),
                      "retry_after_ms",
                      static_cast<std::int64_t>(
                          options_.retry.base_backoff.count())));
    return;
  }

  // Deadline-aware dequeue: work whose budget expired while it waited is
  // never executed doomed.
  if (req->ctx.DeadlineExpired()) {
    stats_.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - req->enqueued_at);
    Complete(req, WithStatusDetail(
                      Status::DeadlineExceeded("deadline expired in queue"),
                      "queued_ms", waited.count()));
    return;
  }

  stats_.executed.fetch_add(1, std::memory_order_relaxed);

  if (SOFTDB_FAILPOINT_FIRED("server.session_execute")) {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
    Complete(req,
             WithStatusDetail(
                 Status::ResourceExhausted("injected execution fault"),
                 "retry_after_ms",
                 static_cast<std::int64_t>(
                     options_.retry.base_backoff.count())));
    return;
  }

  Result<QueryResult> result = db_->Execute(req->sql, &req->ctx);
  if (result.ok()) {
    result->dequeue_seq = req->dequeue_seq;
    stats_.succeeded.fetch_add(1, std::memory_order_relaxed);
    stats_.rows_output.fetch_add(result->exec_stats.rows_output,
                                 std::memory_order_relaxed);
    stats_.wal_records.fetch_add(result->exec_stats.wal_records,
                                 std::memory_order_relaxed);
    stats_.degraded_retries.fetch_add(result->exec_stats.degraded_retries,
                                      std::memory_order_relaxed);
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
  }
  Complete(req, std::move(result));
}

void Dispatcher::Complete(const RequestPtr& req, Result<QueryResult> result) {
  {
    std::lock_guard<std::mutex> lk(req->mu);
    req->result.emplace(std::move(result));
    req->done = true;
  }
  req->cv.notify_all();
}

Status Dispatcher::Drain() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (draining_) {
      // Someone else is draining (or drained): wait for their verdict.
      drain_cv_.wait(lk, [this] { return drained_; });
      return drain_status_;
    }
    draining_ = true;
  }
  const Status st = DrainLocked();
  {
    std::lock_guard<std::mutex> lk(mu_);
    drained_ = true;
    drain_status_ = st;
  }
  drain_cv_.notify_all();
  return st;
}

Status Dispatcher::DrainLocked() {
  SOFTDB_FAILPOINT_HIT("server.drain");

  // 1. Admissions are closed (draining_). Reject everything still queued:
  // a draining server must not start new work.
  std::vector<RequestPtr> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    doomed.assign(queue_.begin(), queue_.end());
    queue_.clear();
    paused_ = false;  // Frozen workers must wake to observe shutdown.
  }
  for (const RequestPtr& r : doomed) {
    stats_.drain_rejected.fetch_add(1, std::memory_order_relaxed);
    Complete(r, WithStatusDetail(
                    Status::ResourceExhausted("server draining"),
                    "draining", 1));
  }

  // 2. Give in-flight statements the drain grace period, then cancel the
  // stragglers through their tokens (cooperative: they observe the token
  // within a batch/morsel).
  {
    std::unique_lock<std::mutex> lk(mu_);
    const auto grace_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_deadline_ms);
    idle_cv_.wait_until(lk, grace_deadline,
                        [this] { return running_.empty(); });
    for (const RequestPtr& r : running_) {
      if (r->ctx.cancel != nullptr) {
        r->ctx.cancel->Cancel();
        stats_.drain_cancelled.fetch_add(1, std::memory_order_relaxed);
      }
    }
    idle_cv_.wait(lk, [this] { return running_.empty(); });
    // 3. Stop and join the pool.
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }

  // 4. Leave durable state checkpointed: a drained server restarts from a
  // checkpoint, not a replay. (Crashes before/inside this step stay
  // recoverable — Checkpoint is crash-consistent at every step.)
  Status st = Status::OK();
  if (options_.checkpoint_on_drain && db_->wal() != nullptr) {
    st = db_->Checkpoint();
  }
  stats_.drains.fetch_add(1, std::memory_order_relaxed);
  return st;
}

void Dispatcher::PauseWorkers() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void Dispatcher::ResumeWorkers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

}  // namespace softdb
