#ifndef SOFTDB_SERVER_SERVER_OPTIONS_H_
#define SOFTDB_SERVER_SERVER_OPTIONS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstddef>

#include "common/rng.h"

namespace softdb {

/// Retry budget and backoff shape applied by a Session around transient
/// (IsRetryableStatus) failures — the client-side mirror of the repair
/// path's RepairPolicy algebra: exponential backoff, capped, with
/// deterministic ±25% jitter so concurrent sessions desynchronize without
/// losing test reproducibility.
struct RetryPolicy {
  /// Total tries including the first (1 = never retry).
  std::size_t max_attempts = 3;
  std::chrono::milliseconds base_backoff{5};
  std::chrono::milliseconds max_backoff{250};
  std::uint64_t jitter_seed = 0x5EEDULL;
};

/// Backoff before retry number `attempt` (1-based: the wait after the
/// attempt'th failure): base * 2^(attempt-1), capped at max_backoff, with
/// ±25% jitter drawn from `rng`. Exposed so tests can reproduce a
/// session's exact backoff schedule from the policy seed.
inline std::chrono::milliseconds ComputeBackoff(const RetryPolicy& policy,
                                                std::size_t attempt,
                                                Rng* rng) {
  const std::size_t shift =
      attempt == 0 ? 0 : std::min<std::size_t>(attempt - 1, 20);
  double ms = static_cast<double>(policy.base_backoff.count()) *
              static_cast<double>(std::uint64_t{1} << shift);
  ms = std::min(ms, static_cast<double>(policy.max_backoff.count()));
  ms *= 0.75 + 0.5 * rng->NextDouble();
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

/// Configuration for the serving layer (SessionManager + Dispatcher).
struct ServerOptions {
  /// Execution slots: how many admitted statements may run at once (at
  /// least 1). A statement runs on its client's thread while it holds a
  /// slot; no server threads are created. Statements beyond the slots
  /// queue (DESIGN.md §15).
  std::size_t worker_threads = 2;
  /// Bounded admission queue: statements waiting for a slot. Admission
  /// past this depth is rejected with kResourceExhausted {queue_depth=N
  /// retry_after_ms=H} unless load shedding can evict a lower-priority
  /// entry to make room.
  std::size_t max_queue_depth = 64;
  /// Load-shedding high-water mark (<= max_queue_depth). At or above this
  /// depth the dispatcher starts shedding the lowest-priority queued
  /// request to admit strictly higher-priority work, and applies
  /// overload_deadline_ms backpressure to everything it still admits.
  std::size_t high_water_depth = 48;
  /// Backpressure deadline cap under overload: when the queue is at or
  /// above high_water_depth, an admitted statement's effective deadline is
  /// tightened to at most this budget, so queued work cannot wait longer
  /// than it is allowed to run. 0 disables the cap.
  std::uint64_t overload_deadline_ms = 0;
  /// Per-statement deadline armed when neither the caller nor the session
  /// supplies one. 0 = no deadline.
  std::uint64_t default_deadline_ms = 0;
  /// Grace period Drain() gives in-flight statements before cancelling
  /// them through their session tokens.
  std::uint64_t drain_deadline_ms = 1000;
  /// Checkpoint the engine's WAL at the end of a successful drain, so a
  /// drained server restarts from a checkpoint instead of a long replay.
  bool checkpoint_on_drain = true;
  /// Session-level retry/backoff policy for retryable statuses.
  RetryPolicy retry;
};

/// Serving-layer counters. All atomics: sessions and the drain path
/// update them concurrently; tests and ops read them racily.
struct ServerStats {
  std::atomic<std::uint64_t> submitted{0};  // Statements offered to admit.
  std::atomic<std::uint64_t> admitted{0};   // Took a slot or queued.
  std::atomic<std::uint64_t> executed{0};   // Reached the engine.
  std::atomic<std::uint64_t> succeeded{0};  // Engine returned OK.
  std::atomic<std::uint64_t> failed{0};     // Engine returned an error.
  /// Rejections, by reason. queue_full includes the case where shedding
  /// found no lower-priority victim.
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_expired_deadline{0};  // On arrival.
  std::atomic<std::uint64_t> rejected_draining{0};
  std::atomic<std::uint64_t> rejected_injected{0};  // server.admit fault.
  /// Queued requests evicted by load shedding (kResourceExhausted
  /// {shed=1}) to admit higher-priority work.
  std::atomic<std::uint64_t> shed{0};
  /// Requests whose deadline expired while queued: completed with
  /// kDeadlineExceeded at dequeue, never executed doomed.
  std::atomic<std::uint64_t> expired_in_queue{0};
  /// Statements whose effective deadline was tightened by the overload
  /// backpressure cap at admission.
  std::atomic<std::uint64_t> deadline_tightened{0};
  /// Session-level retries performed (per extra attempt, not per
  /// statement) and the backoff wall-clock they consumed.
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> backoff_ms_total{0};
  /// Drain bookkeeping: queued statements rejected by Drain, in-flight
  /// statements cancelled at the drain deadline, drains completed.
  std::atomic<std::uint64_t> drain_rejected{0};
  std::atomic<std::uint64_t> drain_cancelled{0};
  std::atomic<std::uint64_t> drains{0};
  /// High-water mark of observed queue depth.
  std::atomic<std::uint64_t> queue_depth_high_water{0};
  /// Rollups of per-statement ExecStats across all sessions.
  std::atomic<std::uint64_t> rows_output{0};
  std::atomic<std::uint64_t> wal_records{0};
  std::atomic<std::uint64_t> degraded_retries{0};
};

/// Per-session counters (one Session = one client). Atomics for the same
/// reason as ServerStats: the owning client thread writes, observers read.
struct SessionStats {
  std::atomic<std::uint64_t> statements{0};  // Execute calls.
  std::atomic<std::uint64_t> succeeded{0};
  std::atomic<std::uint64_t> failed{0};      // Final (post-retry) failures.
  std::atomic<std::uint64_t> retries{0};     // Extra attempts consumed.
  std::atomic<std::uint64_t> backoff_ms_total{0};  // Planned backoff waits.
  std::atomic<std::uint64_t> rows_output{0};
  std::atomic<std::uint64_t> wal_records{0};
  std::atomic<std::uint64_t> wal_fsyncs{0};
};

}  // namespace softdb

#endif  // SOFTDB_SERVER_SERVER_OPTIONS_H_
