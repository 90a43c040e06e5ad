// In-memory span recorder for the traced run. Spans are taken by the
// benchmark around its own calls into each module's public functions (no
// instrumentation inside src/), carry the counter deltas measured at their
// boundaries, stay in memory, and are written as JSON lines at exit.
#ifndef BIDEC_BENCH_E2E_TRACE_H
#define BIDEC_BENCH_E2E_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bdd/bdd.h"

namespace bidec::e2e {

using Counters = std::map<std::string, double>;

struct Span {
  std::uint64_t trace = 0;   ///< job or request id
  std::uint64_t id = 0;      ///< unique within the tracer, starts at 1
  std::uint64_t parent = 0;  ///< 0 = root of its trace
  std::string name;
  std::int64_t start_ns = 0;  ///< relative to the tracer's epoch
  std::int64_t end_ns = 0;
  Counters counters;

  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  /// Open a span; returns its id. Spans of one trace must close in LIFO order.
  std::uint64_t begin(std::uint64_t trace, std::uint64_t parent, std::string name);
  /// Close span `id`, attaching `counters`.
  void end(std::uint64_t id, Counters counters = {}) noexcept;
  /// Record an already-measured interval (client spans of the open loop).
  void add(std::uint64_t trace, std::uint64_t parent, std::string name,
           Clock::time_point start, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Spans grouped by trace id, each group in creation order.
  [[nodiscard]] std::map<std::uint64_t, std::vector<const Span*>> by_trace() const;

  /// `header` (one JSON object) then one JSON object per span.
  void write_jsonl(const std::string& path, const std::string& header) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  ///< span id -> index in spans_
};

/// Closes its span on scope exit; counters can be attached before that.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::uint64_t trace, std::uint64_t parent, std::string name)
      : tracer_(tracer), id_(tracer.begin(trace, parent, std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_, std::move(counters_)); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  Counters& counters() noexcept { return counters_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
  Counters counters_;
};

/// BDD-kernel counters of `mgr` accumulated since `before` was taken
/// (`steps_before` likewise for steps_used), under "bdd.*" names.
/// bdd.peak_nodes is the manager's high-water mark, not a delta.
[[nodiscard]] Counters bdd_delta(const BddStats& before, std::uint64_t steps_before,
                                 const BddManager& mgr);

/// Per-job view of one trace: self time per span name and summed counters.
struct TraceSummary {
  std::map<std::string, double> self_ms;  ///< span name -> total self time
  Counters counters;
  double root_ms = 0.0;      ///< duration of the trace's span(s) named `root`
  double children_ms = 0.0;  ///< summed duration of their direct children
};

/// Self time of each span is its duration minus its children's durations.
/// Returns an empty string when the trace is well formed (every child lies
/// inside its parent, no self time below zero), else a description.
[[nodiscard]] std::string summarize(const std::vector<const Span*>& spans,
                                    const std::string& root, TraceSummary& out);

/// Key-wise median of several summaries of the same job (a key missing
/// from one summary counts as 0 there).
[[nodiscard]] TraceSummary median_of(const std::vector<TraceSummary>& reps);
/// Adds `s` into `total` (gauges by maximum).
void accumulate(TraceSummary& total, const TraceSummary& s);
/// Multiplies every time and counter except gauges by `factor`.
void scale(TraceSummary& s, double factor);

/// The per-layer metrics a summary determines: module self times
/// (io.load_ms, spec.materialize_ms, bidec.synth_ms, satdec.synth_ms,
/// verify.*_ms, lint.ms) and the bdd/bidec/satdec/sat/proof counters.
[[nodiscard]] std::map<std::string, double> layer_metrics(const TraceSummary& s);

/// Time the job spent in the modules it called, i.e. the root's children
/// except the engine's own manager preparation.
[[nodiscard]] double module_ms(const TraceSummary& s);

}  // namespace bidec::e2e

#endif  // BIDEC_BENCH_E2E_TRACE_H
