#include "trace.h"

#include <cstdio>

namespace softbench {

const char* SpanLabel(SpanName name) {
  switch (name) {
    case SpanName::kStatement: return "statement";
    case SpanName::kParse: return "sql.parse";
    case SpanName::kBind: return "sql.bind";
    case SpanName::kValues: return "sql.values";
    case SpanName::kCacheLookup: return "optimizer.cache_lookup";
    case SpanName::kCachePut: return "optimizer.cache_put";
    case SpanName::kRewrite: return "optimizer.rewrite";
    case SpanName::kRewriteBackup: return "optimizer.rewrite_backup";
    case SpanName::kPhysicalPlan: return "optimizer.physical_plan";
    case SpanName::kEstimate: return "optimizer.estimate";
    case SpanName::kVerify: return "analysis.verify";
    case SpanName::kCertify: return "analysis.certify";
    case SpanName::kImpact: return "analysis.impact";
    case SpanName::kExec: return "exec.run";
    case SpanName::kIcCheck: return "constraints.ic_check";
    case SpanName::kScMaintenance: return "constraints.sc_maintenance";
    case SpanName::kExceptionAst: return "mv.exception_ast";
    case SpanName::kAppend: return "storage.append";
    case SpanName::kWalAppend: return "storage.wal_append";
    case SpanName::kCount: break;
  }
  return "unknown";
}

std::uint32_t Tracer::Begin(SpanName name, std::uint64_t stmt) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.name = name;
  if (open_.empty()) {
    span.parent = index;
    span.stmt = stmt;
  } else {
    span.parent = open_.back();
    span.stmt = spans_[open_.back()].stmt;
  }
  span.start_ns = Now();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::End(std::uint32_t index) {
  spans_[index].end_ns = Now();
  // Spans close innermost-first (ScopedSpan), so `index` is the top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

TraceSummary Summarize(const std::vector<const Tracer*>& tracers) {
  TraceSummary out;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != i) {
        child_ns[spans[i].parent] += spans[i].end_ns - spans[i].start_ns;
      }
    }
    // Spans of one statement are contiguous (a root, then its subtree).
    std::size_t i = 0;
    while (i < spans.size()) {
      const std::size_t root = i;
      std::map<SpanName, double> per_name;
      ++i;
      while (i < spans.size() && spans[i].parent != i) {
        const double self_us =
            static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                child_ns[i]) /
            1e3;
        per_name[spans[i].name] += self_us;
        ++i;
      }
      const double total_us =
          static_cast<double>(spans[root].end_ns - spans[root].start_ns) / 1e3;
      ++out.statements;
      out.statement_us.push_back(total_us);
      out.layer_us.push_back(static_cast<double>(child_ns[root]) / 1e3);
      for (const auto& [name, us] : per_name) out.self_us[name].push_back(us);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("thread\tstmt\tindex\tparent\tname\tstart_ns\tend_ns\n", f);
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%llu\t%zu\t%u\t%s\t%lld\t%lld\n", t,
                   static_cast<unsigned long long>(s.stmt), i, s.parent,
                   SpanLabel(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace softbench
