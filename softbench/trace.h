#ifndef SOFTBENCH_TRACE_H_
#define SOFTBENCH_TRACE_H_

// In-memory span recording for the traced replay (see replay.h). One
// Tracer per client thread; spans are kept until the run ends, then
// reduced to per-statement self times and written out.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace softbench {

/// Layer boundaries the replay records. The root of every statement is
/// kStatement; the rest are named after the layer metric they feed
/// ("<name>_us").
enum class SpanName : std::uint8_t {
  kStatement,
  kParse,           // sql.parse: ParseStatement.
  kBind,            // sql.bind: Binder::BindSelect.
  kValues,          // sql.values: INSERT literal evaluation + coercion.
  kCacheLookup,     // optimizer.cache_lookup: PlanCache::Get.
  kCachePut,        // optimizer.cache_put: PlanCache::Put.
  kRewrite,         // optimizer.rewrite: Rewriter::Rewrite (primary).
  kRewriteBackup,   // optimizer.rewrite_backup: Rewriter::Rewrite (SC-free).
  kPhysicalPlan,    // optimizer.physical_plan: PhysicalPlanner::Plan.
  kEstimate,        // optimizer.estimate: EstimateRows/Cost + ToString.
  kVerify,          // analysis.verify: PlanVerifier after bind.
  kCertify,         // analysis.certify: CertificateChecker + epoch checks.
  kImpact,          // analysis.impact: ImpactAnalyzer::AnalyzeInsert.
  kExec,            // exec.run: ExecuteToCompletion.
  kIcCheck,         // constraints.ic_check: IcRegistry Check/AfterInsert.
  kScMaintenance,   // constraints.sc_maintenance: OnInsert + OnRowAppended.
  kExceptionAst,    // mv.exception_ast: MvRegistry::OnBaseInsert.
  kAppend,          // storage.append: Table::Append + NotifyInsert.
  kWalAppend,       // storage.wal_append: DurabilityManager::LogInsert.
  kCount,
};

const char* SpanLabel(SpanName name);

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t stmt = 0;     // Statement id (shared by its spans).
  std::uint32_t parent = 0;   // Index of the causing span; self for roots.
  SpanName name = SpanName::kStatement;
  std::int64_t start_ns = 0;  // Since the tracer's epoch.
  std::int64_t end_ns = 0;
};

/// Per-thread span buffer with an open-span stack.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span under the innermost open one (a root when none is open;
  /// roots take `stmt` as their statement id, children inherit it).
  std::uint32_t Begin(SpanName name, std::uint64_t stmt = 0);
  void End(std::uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, std::uint64_t stmt = 0)
      : tracer_(tracer), index_(tracer->Begin(name, stmt)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// Per-statement reduction of a set of tracers.
struct TraceSummary {
  std::size_t statements = 0;
  /// Per span name: the per-statement sum of that span's self time (µs),
  /// one sample per statement that entered the span at least once.
  std::map<SpanName, std::vector<double>> self_us;
  /// Per statement: total root duration (µs) and the part of it covered
  /// by layer spans (root duration minus the root's own self time).
  std::vector<double> statement_us;
  std::vector<double> layer_us;
};

TraceSummary Summarize(const std::vector<const Tracer*>& tracers);

/// Writes every span as TSV (thread, stmt, index, parent, name, start_ns,
/// end_ns) to `path`. False on I/O failure.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace softbench

#endif  // SOFTBENCH_TRACE_H_
