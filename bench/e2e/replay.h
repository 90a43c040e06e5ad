// The traced replay: one job run through the public calls run_synthesis_job
// makes, in its order and with the job's exact FlowOptions, with a span
// around each call. Nothing inside src/ is instrumented.
#ifndef BIDEC_BENCH_E2E_REPLAY_H
#define BIDEC_BENCH_E2E_REPLAY_H

#include <cstdint>
#include <optional>

#include "engine/job.h"
#include "engine/job_runner.h"
#include "server/component_cache.h"
#include "trace.h"

namespace bidec::e2e {

/// Replays `spec` under a `job` span (child of `parent`, 0 = root) in trace
/// `trace`, taking its manager from `managers` as run_synthesis_job does.
/// Spans: io.load, engine.prepare (manager lease and per-job hygiene),
/// spec.materialize, bidec.synthesize, verify.bdd on the BDD path; io.load,
/// satdec.synthesize, verify.sat, lint.netlist on the SAT path. The report
/// carries the fields the stable JSON does.
[[nodiscard]] JobResult replay_job(const JobSpec& spec, std::uint64_t job_id,
                                   ManagerSource& managers, Tracer& tracer,
                                   std::uint64_t trace, std::uint64_t parent);

/// Lints `net` again in a root span of its own, so lint.ms is measured
/// apart from the job: under lint=warn the BDD flow lints inside
/// synthesize_bidecomp, where the time counts as bidec.synth_ms.
void replay_lint(const Netlist& net, Tracer& tracer, std::uint64_t trace);

/// A ServerComponentCache behind a timer: the replayed server jobs reach
/// it through BidecOptions::shared_cache. Single-threaded use only.
class TimedComponentCache final : public SharedComponentSink {
 public:
  std::optional<SharedComponent> lookup(const ComponentSignature& sig) override;
  void publish(const ComponentSignature& sig, const Netlist& impl) override;
  void reject(const ComponentSignature& sig) override;

  [[nodiscard]] double lookup_ms() const noexcept { return lookup_ms_; }

 private:
  ServerComponentCache inner_;
  double lookup_ms_ = 0.0;
};

}  // namespace bidec::e2e

#endif  // BIDEC_BENCH_E2E_REPLAY_H
