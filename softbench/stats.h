#ifndef SOFTBENCH_STATS_H_
#define SOFTBENCH_STATS_H_

// Statistics and reporting helpers shared by every softbench workload.
// Header-only and engine-free so tests/stats_test.cc can cover them alone.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace softbench {

/// One percentile of a sample set, with how much data backs it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // Size of the sample set.
  std::size_t beyond = 0;   // Samples ranked above the percentile's rank.
};

/// Nearest-rank percentile, p in (0, 100], of `sorted` (ascending). The
/// rank is ceil(p/100 * n); `beyond` counts the n - rank samples above it,
/// so a p99 over fewer than 1000 samples reports fewer than ten beyond.
inline Percentile PercentileOfSorted(const std::vector<double>& sorted,
                                     double p) {
  Percentile out;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

/// Sorts a copy of `samples` and returns the requested percentiles.
inline std::vector<Percentile> Percentiles(std::vector<double> samples,
                                           const std::vector<double>& ps) {
  std::sort(samples.begin(), samples.end());
  std::vector<Percentile> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(PercentileOfSorted(samples, p));
  return out;
}

inline double Median(std::vector<double> samples) {
  return Percentiles(std::move(samples), {50.0})[0].value;
}

/// Estimation error of a cardinality estimate: max(est/act, act/est).
/// Both sides are floored at one row, so empty results and zero estimates
/// give a finite error instead of a division by zero.
inline double QError(double estimated, double actual) {
  const double est = std::max(estimated, 1.0);
  const double act = std::max(actual, 1.0);
  return std::max(est / act, act / est);
}

/// A ratio that always travels with its base.
struct Ratio {
  double num = 0.0;
  double den = 0.0;

  double value() const { return den == 0.0 ? 0.0 : num / den; }
  /// "0.951 (95100 / 100000)".
  std::string ToString() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.6g (%.15g / %.15g)", value(), num,
                  den);
    return buf;
  }
};

/// Metric names are `[A-Za-z0-9_.-]+`, at most 64 characters, starting
/// with a letter or digit.
inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Full-precision JSON number; non-finite values (which JSON cannot hold)
/// become 0.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// An ordered set of named metrics, each with a unit and a human note
/// (sample counts, ratio bases).
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };

  /// Adds a metric; false (and nothing added) when the name is invalid or
  /// already present.
  bool Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!ValidMetricName(name) || Find(name) != nullptr) return false;
    metrics_.push_back({name, value, unit, note});
    return true;
  }

  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"name": {"value": v, "unit": "u"}, ...} restricted to `names`, in
  /// that order; names without a metric are skipped.
  std::string ToJson(const std::vector<std::string>& names) const {
    std::string out = "{";
    bool first = true;
    for (const std::string& name : names) {
      const Metric* m = Find(name);
      if (m == nullptr) continue;
      if (!first) out += ", ";
      first = false;
      out += "\"" + m->name + "\": {\"value\": " + JsonNumber(m->value) +
             ", \"unit\": \"" + m->unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace softbench

#endif  // SOFTBENCH_STATS_H_
