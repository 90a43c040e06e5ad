// Closed-loop batch workloads (mcnc_bdd, reorder_auto, sat_certified): one
// BatchEngine worker, one job at a time, each job timed from outside
// BatchEngine::run. Passes over the inputs repeat in a seeded order until
// the measurement time is used up.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <numeric>
#include <random>

#include "engine/batch_engine.h"
#include "engine/job_runner.h"
#include "inputs.h"
#include "replay.h"
#include "workload.h"

namespace bidec::e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up repeats at least this often and for at least this long, and
/// setup_s is the median: a set-up takes 2-30 ms, and the host has slow
/// spells of ~0.1 s that a median of a few reps would land in.
constexpr std::size_t kSetupReps = 15;
constexpr double kSetupSeconds = 1.0;
/// Every input gets at least this many timed jobs, however short the run.
constexpr unsigned kMinPasses = 3;

JobSpec job_spec(const BatchWorkload& w, const BatchInput& in) {
  JobSpec spec;
  spec.name = in.name;
  spec.source = in.path;
  spec.flow = w.flow;
  spec.verify = w.verify;
  return spec;
}

/// Empty when `rep` finished ok with a passing verdict, else what is wrong.
std::string job_problem(const JobReport& rep, VerifyEngine verify) {
  if (rep.status != JobStatus::kOk) {
    return std::string("status ") + to_string(rep.status) +
           (rep.error.empty() ? "" : " (" + rep.error + ")");
  }
  const int verdict = verify == VerifyEngine::kSat ? rep.sat_verdict : rep.bdd_verdict;
  if (verdict != 1) return "verifier verdict " + std::to_string(verdict);
  return {};
}

struct InputRecord {
  std::vector<double> ms;  ///< untraced job times
  JobReport first;         ///< report of the first timed job
  std::string stable;      ///< its to_stable_json
  std::vector<std::uint64_t> traces;  ///< trace ids of the traced replays
};

/// One traced replay of input `i` through the public calls, as trace
/// `trace`; its netlist must match the untraced job's.
void replay(const BatchWorkload& w, std::size_t i, unsigned pass, std::uint64_t trace,
            ManagerPool& pool, InputRecord& rec, WorkloadResult& res) {
  // A fresh source per job, as BatchEngine::run creates one per call.
  PooledManagerSource source(pool);
  const JobResult jr = replay_job(job_spec(w, w.inputs[i]), 0, source, res.tracer, trace, 0);
  // The SAT path lints inside the job already; the BDD path lints inside
  // synthesize_bidecomp, so lint.ms needs a call of its own there.
  if (w.flow.engine != EngineSelect::kSat) replay_lint(jr.netlist, res.tracer, trace);
  rec.traces.push_back(trace);
  ++res.attempted;
  const JobReport& r = jr.report;
  const JobReport& u = rec.first;
  std::string problem = job_problem(r, w.verify);
  if (problem.empty() && (r.gates != u.gates || r.exors != u.exors || r.levels != u.levels)) {
    problem = format("replay built %zu/%zu/%u gates/exors/levels, the job %zu/%zu/%u",
                     r.gates, r.exors, r.levels, u.gates, u.exors, u.levels);
  }
  if (!problem.empty()) {
    ++res.failed;
    res.violations.push_back(
        format("job %s traced pass %u: %s", w.inputs[i].name.c_str(), pass, problem.c_str()));
  }
}

}  // namespace

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

std::string check_job(const JobReport& rep, VerifyEngine verify, const std::string& stable0) {
  if (std::string p = job_problem(rep, verify); !p.empty()) return p;
  if (!stable0.empty() && rep.to_stable_json() != stable0) {
    return "stable report differs from the first run of this input";
  }
  return {};
}

WorkloadResult run_batch(const RunOptions& opt) {
  WorkloadResult res;
  std::vector<double> setup_s;
  const auto generate = [&] {
    const auto t0 = Clock::now();
    BatchWorkload gen = make_batch_workload(opt.workload, opt.seed, opt.work_dir, opt.smoke);
    setup_s.push_back(seconds_since(t0));
    return gen;
  };
  const BatchWorkload w = generate();
  // Written once, outside the timing: file-system latency is not set-up
  // work of the program.
  write_inputs(w);
  for (const std::string& note : w.notes) res.rows.push_back("setup " + note);

  const std::size_t n = w.inputs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(opt.seed ^ 0x9e3779b97f4a7c15ull);  // job order only

  EngineOptions eopt;
  eopt.num_workers = 1;
  BatchEngine engine(eopt);
  ManagerPool pool;  // the traced replay's, apart from the engine's
  std::vector<InputRecord> rec(n);
  std::vector<double> all_ms;
  std::uint64_t attempts = 0;
  const unsigned min_passes = opt.smoke ? 1 : kMinPasses;
  unsigned passes = 0;
  double last_pass_s = 0.0;
  const auto start = Clock::now();
  while (passes < min_passes || seconds_since(start) + last_pass_s <= opt.seconds) {
    std::shuffle(order.begin(), order.end(), rng);
    const auto p0 = Clock::now();
    for (const std::size_t i : order) {
      engine.submit(job_spec(w, w.inputs[i]));
      const auto t0 = Clock::now();
      const BatchOutcome out = engine.run();
      const double ms = seconds_since(t0) * 1e3;
      JobReport rep = out.results.front().report;
      ++res.attempted;
      attempts += rep.attempts;
      if (opt.corrupt_first_verdict && res.attempted == 1) {
        (w.verify == VerifyEngine::kSat ? rep.sat_verdict : rep.bdd_verdict) = 0;
      }
      const std::string problem = check_job(rep, w.verify, rec[i].stable);
      if (!problem.empty()) {
        ++res.failed;
        res.violations.push_back(
            format("job %s pass %u: %s", w.inputs[i].name.c_str(), passes, problem.c_str()));
      }
      if (rec[i].ms.empty()) {
        rec[i].first = rep;
        rec[i].stable = rep.to_stable_json();
      }
      rec[i].ms.push_back(ms);
      all_ms.push_back(ms);
      // The traced replay of the same job follows at once, so host noise
      // that drifts over the run affects both sides of the comparison.
      if (opt.trace) replay(w, i, passes, /*trace=*/res.attempted, pool, rec[i], res);
    }
    last_pass_s = seconds_since(p0);
    ++passes;
  }
  const double rss = peak_rss_mb();
  // The other set-up reps run after the jobs, so the memory they leave in
  // the heap does not enter peak_rss_mb.
  const auto setup_start = Clock::now();
  const double setup_seconds = opt.smoke ? 0.0 : kSetupSeconds;
  while (setup_s.size() < kSetupReps || seconds_since(setup_start) < setup_seconds) {
    (void)generate();
  }
  res.rows.push_back(format("setup reps=%zu", setup_s.size()));

  std::vector<double> medians;
  double gates = 0.0, exors = 0.0, levels = 0.0;
  std::size_t slowest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobReport& r = rec[i].first;
    medians.push_back(median(rec[i].ms));
    if (medians[i] > medians[slowest]) slowest = i;
    gates += static_cast<double>(r.gates);
    exors += static_cast<double>(r.exors);
    levels += r.levels;
    res.rows.push_back(format(
        "row input=%s reps=%zu median_ms=%.3f min_ms=%.3f max_ms=%.3f gates=%zu "
        "exors=%zu levels=%u bdd_peak_nodes=%zu gc_runs=%zu reorders=%zu",
        w.inputs[i].name.c_str(), rec[i].ms.size(), medians[i],
        *std::min_element(rec[i].ms.begin(), rec[i].ms.end()),
        *std::max_element(rec[i].ms.begin(), rec[i].ms.end()), r.gates, r.exors, r.levels,
        r.peak_nodes, r.gc_runs, r.reorders));
  }
  const double busy_s = std::accumulate(all_ms.begin(), all_ms.end(), 0.0) / 1e3;
  const ManagerPoolStats pool_stats = engine.pool_stats();
  res.rows.push_back(format(
      "summary jobs=%zu passes=%u busy_s=%.3f slowest=%s pool_leases=%llu pool_warm=%llu "
      "pool_dirty_discards=%llu",
      all_ms.size(), passes, busy_s, w.inputs[slowest].name.c_str(),
      static_cast<unsigned long long>(pool_stats.leases),
      static_cast<unsigned long long>(pool_stats.warm),
      static_cast<unsigned long long>(pool_stats.dirty_discards)));

  MetricValues& e2e = res.end_to_end;
  e2e["setup_s"] = median(setup_s);
  e2e["suite_s"] = std::accumulate(medians.begin(), medians.end(), 0.0) / 1e3;
  e2e["job_ms_geomean"] = geomean(medians);
  // Per input first, then across inputs: a median over all jobs would
  // jump between inputs whose job times lie close together.
  e2e["latency_ms_p50"] = median(medians);
  e2e["latency_ms_tail"] = medians[slowest];
  e2e["throughput_rps"] = ratio(static_cast<double>(n), e2e["suite_s"]);
  e2e["gates"] = gates;
  e2e["exors"] = exors;
  e2e["levels"] = levels;
  e2e["peak_rss_mb"] = rss;

  if (!opt.trace) return res;

  const auto groups = res.tracer.by_trace();
  TraceSummary total;
  double untraced_ms = 0.0, traced_ms = 0.0, overhead_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<TraceSummary> reps;
    for (const std::uint64_t trace : rec[i].traces) {
      TraceSummary s;
      const std::string err = summarize(groups.at(trace), "job", s);
      if (!err.empty()) {
        res.violations.push_back("job " + w.inputs[i].name + " trace: " + err);
      }
      reps.push_back(std::move(s));
    }
    const TraceSummary m = median_of(reps);
    accumulate(total, m);
    untraced_ms += medians[i];
    traced_ms += m.root_ms;
    overhead_ms += medians[i] - module_ms(m);
    res.rows.push_back(format("trace input=%s reps=%zu traced_ms=%.3f untraced_ms=%.3f "
                              "modules_ms=%.3f",
                              w.inputs[i].name.c_str(), reps.size(), m.root_ms, medians[i],
                              module_ms(m)));
  }
  res.rows.push_back(format("trace self_time_sum_ms=%.3f untraced_ms=%.3f deviation=%.4f",
                            traced_ms, untraced_ms, ratio(traced_ms - untraced_ms, untraced_ms)));

  res.per_layer = layer_metrics(total);
  MetricValues& layer = res.per_layer;
  layer["engine.overhead_ms"] = overhead_ms;
  layer["engine.attempts_per_job"] = ratio(static_cast<double>(attempts), all_ms.size());
  layer["engine.pool_warm_ratio"] = ratio(static_cast<double>(pool_stats.warm), pool_stats.leases);
  for (const char* name : {"server.protocol_ms", "server.wait_ms_p50", "server.cache_lookup_ms",
                           "server.cache_hit_ratio", "server.cache_reject_ratio",
                           "server.rejected", "server.default_client_ms_p50",
                           "server.gen_lag_ms_p99"}) {
    layer[name] = 0.0;
  }
  layer["trace.overhead_ratio"] = ratio(traced_ms - untraced_ms, untraced_ms);
  return res;
}

}  // namespace bidec::e2e
