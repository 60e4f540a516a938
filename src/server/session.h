#ifndef SOFTDB_SERVER_SESSION_H_
#define SOFTDB_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "common/rng.h"
#include "server/dispatcher.h"
#include "server/server_options.h"

namespace softdb {

class SessionManager;

/// One client connection to a served SoftDb. A session owns a sticky
/// cancellation token (Cancel() aborts every outstanding and future
/// statement), a priority (admission shedding evicts lower priorities
/// first), per-session stats, and the retry/backoff loop around transient
/// dispatcher/engine failures.
///
/// Sessions are created by SessionManager::OpenSession and owned by the
/// manager; one session is single-client (its owner issues statements
/// sequentially or takes responsibility for interleaving), but distinct
/// sessions execute concurrently.
class Session {
 public:
  /// Executes one statement with the session retry policy: retryable
  /// statuses (IsRetryableStatus — admission rejections, shed evictions,
  /// transient exhaustion) are retried with exponential backoff and
  /// deterministic jitter, up to RetryPolicy::max_attempts total tries.
  /// Non-retryable statuses (semantic errors, deadline, cancel) return
  /// immediately.
  Result<QueryResult> Execute(const std::string& sql);

  /// Same, honoring the caller's deadline/token. Backoff never sleeps past
  /// the caller's deadline: when the remaining budget cannot cover the
  /// next backoff, the last error returns instead.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryContext* caller);

  /// Single attempt, no retry loop.
  Result<QueryResult> ExecuteOnce(const std::string& sql,
                                  const QueryContext* caller);

  /// Cancels the session token: every outstanding statement observes
  /// kCancelled at its next cooperative check, and every future statement
  /// is rejected on arrival. Irreversible for this session.
  void Cancel() { token_->Cancel(); }

  std::uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  int priority() const { return priority_.load(std::memory_order_relaxed); }
  void set_priority(int priority) {
    priority_.store(priority, std::memory_order_relaxed);
  }
  const SessionStats& stats() const { return stats_; }
  std::shared_ptr<CancellationToken> cancel_token() { return token_; }

 private:
  friend class SessionManager;

  Session(Dispatcher* dispatcher, const ServerOptions& options,
          std::uint64_t id, std::string name, int priority);

  Dispatcher* dispatcher_;
  const RetryPolicy retry_;
  const std::uint64_t id_;
  const std::string name_;
  std::atomic<int> priority_;
  std::shared_ptr<CancellationToken> token_;
  SessionStats stats_;

  std::mutex backoff_mu_;  // Guards backoff_rng_ (Execute may race).
  Rng backoff_rng_;
};

/// Owner of all sessions serving one SoftDb, and of the Dispatcher they
/// share. Statements run on their clients' threads; Drain() (or
/// destruction) closes admissions. Destruction returns only after every
/// client has left Session::Execute. See DESIGN.md §15 for the serving
/// state machine.
class SessionManager {
 public:
  explicit SessionManager(SoftDb* db, ServerOptions options = {});

  /// Opens a new session. `name` is diagnostic only; `priority` orders
  /// dispatch and shedding (higher = served first, shed last). Fails with
  /// kResourceExhausted {draining=1} once draining.
  Result<Session*> OpenSession(std::string name = "", int priority = 0);

  /// Closes one session. The caller must have no statements in flight on
  /// it (outstanding Execute calls would dangle). Outstanding work is the
  /// client's to quiesce; Cancel() first if unsure.
  Status CloseSession(std::uint64_t id);

  /// Graceful drain: closes admissions, rejects queued statements, lets
  /// in-flight work finish within the drain deadline then cancels it, and
  /// checkpoints the WAL. Idempotent.
  Status Drain() { return dispatcher_.Drain(); }

  bool draining() const { return dispatcher_.draining(); }

  Dispatcher& dispatcher() { return dispatcher_; }
  ServerStats& stats() { return dispatcher_.stats(); }
  SoftDb* db() { return dispatcher_.db(); }

  std::size_t session_count() const;
  /// Live sessions, id-ordered (diagnostics; pointers stay manager-owned).
  std::vector<Session*> sessions();

 private:
  ServerOptions options_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
  // Declared last so it is destroyed first: ~Dispatcher waits for the
  // clients still inside a Session before the sessions are freed.
  Dispatcher dispatcher_;
};

}  // namespace softdb

#endif  // SOFTDB_SERVER_SESSION_H_
