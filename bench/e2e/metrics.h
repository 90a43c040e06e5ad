// Metric names, units and the small statistics the benchmark reports with.
// The two tables below are the benchmark's vocabulary: BENCHMARK.json lists
// the same names and units, every workload prints every entry, and the smoke
// test fails when the two disagree.
#ifndef BIDEC_BENCH_E2E_METRICS_H
#define BIDEC_BENCH_E2E_METRICS_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bidec::e2e {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0. Definitions per workload: bench/e2e/README.md.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"suite_s", "s"},
    {"job_ms_geomean", "ms"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"throughput_rps", "1/s"},
    {"gates", "count"},
    {"exors", "count"},
    {"levels", "count"},
    {"peak_rss_mb", "MB"},
};

/// Printed with --trace 1; a layer that does not run on a workload prints 0.
inline constexpr MetricDef kPerLayer[] = {
    {"io.load_ms", "ms"},
    {"spec.materialize_ms", "ms"},
    {"spec.bdd_nodes", "count"},
    {"bidec.synth_ms", "ms"},
    {"bidec.calls", "count"},
    {"bidec.strong_ratio", "ratio"},
    {"bidec.reuse_hit_ratio", "ratio"},
    {"bidec.shannon_fallbacks", "count"},
    {"bdd.steps", "count"},
    {"bdd.and_calls", "count"},
    {"bdd.ite_calls", "count"},
    {"bdd.cache_hit_ratio", "ratio"},
    {"bdd.unique_hit_ratio", "ratio"},
    {"bdd.gc_runs", "count"},
    {"bdd.gc_ms", "ms"},
    {"bdd.peak_nodes", "count"},
    {"bdd.par_ops", "count"},
    {"bdd.reorders", "count"},
    {"bdd.reorder_rejected", "count"},
    {"bdd.reorder_ms", "ms"},
    {"bdd.reorder_accept_ratio", "ratio"},
    {"satdec.synth_ms", "ms"},
    {"satdec.solves", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"proof.clauses", "count"},
    {"proof.check_ms", "ms"},
    {"verify.bdd_ms", "ms"},
    {"verify.sat_ms", "ms"},
    {"lint.ms", "ms"},
    {"engine.overhead_ms", "ms"},
    {"engine.attempts_per_job", "ratio"},
    {"engine.pool_warm_ratio", "ratio"},
    {"server.protocol_ms", "ms"},
    {"server.wait_ms_p50", "ms"},
    {"server.cache_lookup_ms", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_reject_ratio", "ratio"},
    {"server.rejected", "count"},
    {"server.default_client_ms_p50", "ms"},
    {"server.gen_lag_ms_p99", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

/// Metric values by name; printing walks a table and fails on a gap.
using MetricValues = std::map<std::string, double>;

/// Shortest decimal that reads back as `v`: every digit as measured.
[[nodiscard]] inline std::string shortest(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// A percentile fit to print: at least ten samples lie beyond it.
struct Percentile {
  unsigned level = 0;  ///< 50, 75, 90 or 99
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples above it
};

/// Nearest-rank percentile `level` of `samples`, or nullopt when fewer than
/// ten samples lie above the returned rank.
[[nodiscard]] inline std::optional<Percentile> percentile(std::vector<double> samples,
                                                          unsigned level) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = std::min(
      n - 1, static_cast<std::size_t>(std::ceil(level / 100.0 * static_cast<double>(n))) - 1);
  if (n - 1 - rank < 10) return std::nullopt;
  return Percentile{level, samples[rank], n - 1 - rank};
}

/// The highest of p99/p90/p75/p50 that has ten samples beyond it.
[[nodiscard]] inline std::optional<Percentile> tail_percentile(
    const std::vector<double>& samples) {
  for (const unsigned level : {99u, 90u, 75u, 50u}) {
    if (auto p = percentile(samples, level)) return p;
  }
  return std::nullopt;
}

}  // namespace bidec::e2e

#endif  // BIDEC_BENCH_E2E_METRICS_H
