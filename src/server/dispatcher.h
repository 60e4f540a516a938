#ifndef SOFTDB_SERVER_DISPATCHER_H_
#define SOFTDB_SERVER_DISPATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "engine/softdb.h"
#include "server/server_options.h"

namespace softdb {

class Session;

/// Admission-controlled statement dispatcher: a bounded priority queue in
/// front of a fixed pool of serving workers, all executing against one
/// shared SoftDb (DESIGN.md §15).
///
/// Robustness semantics:
///   - Admission control: the queue is bounded at max_queue_depth and a
///     rejection is typed kResourceExhausted with {queue_depth,
///     retry_after_ms} details — clients classify by code + detail, never
///     by message prose.
///   - Load shedding + backpressure: at high_water_depth the dispatcher
///     evicts the lowest-priority queued request to admit strictly
///     higher-priority work (victims complete with {shed=1}), and tightens
///     admitted statements' effective deadlines to overload_deadline_ms so
///     queued work can never wait longer than it may run.
///   - Deadline-aware queueing: a statement whose deadline is already
///     unsatisfiable is rejected at admission, and one whose deadline
///     expires while queued is completed with kDeadlineExceeded at dequeue
///     — it is never executed doomed.
///   - Graceful drain: Drain() stops admissions, rejects queued work,
///     gives in-flight statements drain_deadline_ms to finish, cancels
///     stragglers through their cancellation tokens, then checkpoints the
///     WAL so a drained server restarts from a checkpoint. The engine
///     stays recoverable via SoftDb::Recover if the process dies mid-serve
///     instead.
///
/// The worker pool deliberately mirrors (rather than reuses) the exec
/// TaskScheduler discipline: serving workers block for whole statements,
/// and statements themselves submit morsel task groups to the engine's
/// scheduler — parking serve loops inside that barrier-style pool would
/// starve the very groups they spawn.
///
/// Failpoint sites: server.admit (typed rejection), server.dequeue
/// (transient, retryable), server.session_execute (transient before the
/// engine runs the statement), server.drain (action-only hook).
class Dispatcher {
 public:
  Dispatcher(SoftDb* db, ServerOptions options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Admits and executes one statement on behalf of `session`, blocking
  /// the calling (client) thread until completion or typed rejection.
  /// `caller` may carry the client's own deadline/token; the effective
  /// context also honors session priority and the server deadline knobs.
  /// Single attempt: the retry loop lives in Session::Execute.
  Result<QueryResult> Execute(Session* session, const std::string& sql,
                              const QueryContext* caller);

  /// Graceful drain (see class comment). Idempotent: concurrent and
  /// repeated calls wait for the first drain and return its result.
  Status Drain();

  bool draining() const {
    std::lock_guard<std::mutex> lk(mu_);
    return draining_;
  }

  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
  }

  std::size_t in_flight() const {
    std::lock_guard<std::mutex> lk(mu_);
    return running_.size();
  }

  ServerStats& stats() { return stats_; }
  const ServerOptions& options() const { return options_; }
  SoftDb* db() { return db_; }

  /// Test hooks: freeze/unfreeze the worker pool so admission-control and
  /// queue-state assertions are deterministic. Paused workers finish their
  /// current statement and stop dequeuing.
  void PauseWorkers();
  void ResumeWorkers();

 private:
  /// One admitted (or rejected-after-shed) statement. Clients block on
  /// `cv` until a worker (or the shedding/drain path) completes it.
  struct Request {
    std::string sql;
    Session* session = nullptr;
    int priority = 0;
    std::uint64_t seq = 0;  // FIFO tiebreak within a priority.
    std::uint64_t dequeue_seq = 0;  // Worker dequeue order (1-based).
    QueryContext ctx;       // Effective context; owns token for the run.
    std::chrono::steady_clock::time_point enqueued_at{};

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::optional<Result<QueryResult>> result;
  };
  using RequestPtr = std::shared_ptr<Request>;

  void WorkerLoop();
  /// Runs one dequeued request end to end (deadline triage, failpoints,
  /// engine execution) and completes it.
  void ServeRequest(const RequestPtr& req);
  /// Completes `req` with `result` and wakes its waiting client.
  static void Complete(const RequestPtr& req, Result<QueryResult> result);
  /// Picks the dequeue candidate: highest priority, then lowest seq.
  /// Requires mu_ held and a non-empty queue.
  std::list<RequestPtr>::iterator BestLocked();
  /// Sheds the lowest-priority queued request strictly below
  /// `incoming_priority` (newest victim among equals). Requires mu_ held;
  /// returns the victim (already removed) or null.
  RequestPtr ShedVictimLocked(int incoming_priority);
  /// Builds the effective QueryContext for a statement: caller token,
  /// else session token, else a fresh one (so drain can always cancel),
  /// with the caller deadline tightened by the server default. No lock.
  QueryContext EffectiveContext(const QueryContext* caller,
                                Session* session) const;
  Status DrainLocked();  // The single-drain body; called by Drain().

  SoftDb* db_;
  const ServerOptions options_;
  ServerStats stats_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Workers wait for work here.
  std::condition_variable idle_cv_;   // Drain waits for running_ empty.
  std::list<RequestPtr> queue_;       // Admitted, waiting for a worker.
  std::vector<RequestPtr> running_;   // In-flight on a worker.
  std::vector<std::thread> workers_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dequeued_ = 0;  // Requests handed to a worker so far.
  bool paused_ = false;
  bool draining_ = false;   // Admissions closed.
  bool shutdown_ = false;   // Workers must exit.
  bool drained_ = false;    // Drain completed (drain_status_ valid).
  Status drain_status_;
  std::condition_variable drain_cv_;  // Later Drain() callers wait here.
};

}  // namespace softdb

#endif  // SOFTDB_SERVER_DISPATCHER_H_
