#ifndef SOFTDB_SERVER_DISPATCHER_H_
#define SOFTDB_SERVER_DISPATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "engine/softdb.h"
#include "server/server_options.h"

namespace softdb {

class Session;

/// Admission-controlled statement dispatcher: a bounded priority queue in
/// front of a fixed number of execution slots, all executing against one
/// shared SoftDb (DESIGN.md §15). Every admitted statement runs on the
/// thread that called Execute while it holds a slot: uncontended work
/// takes a free slot at admission and runs at once, contended work queues
/// until a finishing statement grants it a slot.
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
///     expires while queued is completed with kDeadlineExceeded when it
///     takes its slot — it is never executed doomed.
///   - Graceful drain: Drain() stops admissions, rejects queued work,
///     gives in-flight statements drain_deadline_ms to finish, cancels
///     stragglers through their cancellation tokens, then checkpoints the
///     WAL so a drained server restarts from a checkpoint. The engine
///     stays recoverable via SoftDb::Recover if the process dies mid-serve
///     instead.
///
/// Callers are client threads, never TaskScheduler workers, so a served
/// statement that submits morsel groups to the engine's scheduler cannot
/// starve them.
///
/// Failpoint sites: server.admit (typed rejection), server.dequeue
/// (transient, retryable; fires when a statement takes its slot),
/// server.session_execute (transient before the engine runs the
/// statement), server.drain (action-only hook).
class Dispatcher {
 public:
  Dispatcher(SoftDb* db, ServerOptions options);
  /// Hard shutdown: closes admissions, completes queued statements with
  /// {draining=1}, cancels running ones, and returns only once no caller
  /// is left inside Execute (or holds a Caller). No checkpoint.
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Counts its holder as a caller for its lifetime: ~Dispatcher does not
  /// return while one is alive. Session::Execute holds one across its
  /// retry loop, so a session outlives no statement it is serving.
  class Caller {
   public:
    explicit Caller(Dispatcher* dispatcher);
    ~Caller();
    Caller(const Caller&) = delete;
    Caller& operator=(const Caller&) = delete;

   private:
    Dispatcher* dispatcher_;
  };

  /// Admits and executes one statement on behalf of `session` on the
  /// calling thread, blocking until completion or typed rejection.
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

  /// Test hooks: stop/restart granting slots so admission-control and
  /// queue-state assertions are deterministic. While paused, running
  /// statements finish and every new arrival queues.
  void PauseWorkers();
  void ResumeWorkers();

 private:
  /// One admitted statement, owned by the Execute frame of its caller.
  /// The queue and the running set point at it; the caller leaves Execute
  /// only after it is off both. Everything below is guarded by mu_.
  struct Request {
    int priority = 0;
    std::uint64_t seq = 0;          // FIFO tiebreak within a priority.
    std::uint64_t dequeue_seq = 0;  // Slot grant order (1-based).
    QueryContext ctx;  // Effective context; owns the token for the run.
    std::chrono::steady_clock::time_point enqueued_at{};

    /// A queued caller waits here until it is granted a slot or is
    /// completed without running (shed, drain, shutdown).
    std::condition_variable cv;
    bool granted = false;
    std::optional<Result<QueryResult>> result;
  };

  /// Runs one statement that holds a slot (failpoints, deadline triage,
  /// engine execution) on the calling thread.
  Result<QueryResult> ServeRequest(Request* req, const std::string& sql);
  /// Completes a queued request without running it and wakes its caller.
  /// Requires mu_ held and `req` already off the queue.
  static void CompleteLocked(Request* req, Result<QueryResult> result);
  /// Completes every queued request with kResourceExhausted {draining=1}.
  /// Requires mu_ held.
  void RejectQueuedLocked(const char* why);
  /// Grants free slots to the best queued requests while not paused.
  /// Requires mu_ held.
  void GrantLocked();
  /// Picks the grant candidate: highest priority, then lowest seq.
  /// Requires mu_ held and a non-empty queue.
  std::list<Request*>::iterator BestLocked();
  /// Sheds the lowest-priority queued request strictly below
  /// `incoming_priority` (newest victim among equals). Requires mu_ held;
  /// returns the victim (already removed) or null.
  Request* ShedVictimLocked(int incoming_priority);
  /// Builds the effective QueryContext for a statement: caller token,
  /// else session token, else a fresh one (so drain can always cancel),
  /// with the caller deadline tightened by the server default. No lock.
  QueryContext EffectiveContext(const QueryContext* caller,
                                Session* session) const;
  Status DrainLocked();  // The single-drain body; called by Drain().

  SoftDb* db_;
  const ServerOptions options_;
  const std::size_t slots_;  // max(1, worker_threads).
  ServerStats stats_;

  mutable std::mutex mu_;
  /// Drain waits for running_ to empty, ~Dispatcher for callers_ to reach
  /// zero. Notified with mu_ held, so a waiter that wakes and destroys
  /// the dispatcher cannot race the notifier.
  std::condition_variable idle_cv_;
  std::list<Request*> queue_;      // Admitted, waiting for a slot.
  std::vector<Request*> running_;  // Holding a slot.
  std::size_t callers_ = 0;        // Live Caller scopes.
  std::uint64_t next_seq_ = 0;
  std::uint64_t dequeued_ = 0;  // Slots granted so far.
  bool paused_ = false;
  bool draining_ = false;   // Admissions closed.
  bool drained_ = false;    // Drain completed (drain_status_ valid).
  Status drain_status_;
  std::condition_variable drain_cv_;  // Later Drain() callers wait here.
};

}  // namespace softdb

#endif  // SOFTDB_SERVER_DISPATCHER_H_
