#include "replay.h"

#include <chrono>
#include <numeric>
#include <stdexcept>

#include "io/blif.h"
#include "lint/netlist_lint.h"
#include "satdec/decomposer.h"
#include "verify/sat_verifier.h"
#include "verify/verifier.h"

namespace bidec::e2e {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Counters sat_counters(std::uint64_t solves, const sat::SolverStats& solver,
                      const proof::ProofStats& proof) {
  return {
      {"satdec.solves", static_cast<double>(solves)},
      {"sat.conflicts", static_cast<double>(solver.conflicts)},
      {"sat.propagations", static_cast<double>(solver.propagations)},
      {"proof.clauses", static_cast<double>(proof.proof_clauses)},
      {"proof.check_ms", proof.check_ms},
  };
}

void add_bidec_counters(Counters& c, const BidecStats& s, std::size_t spec_nodes) {
  c["bidec.calls"] = static_cast<double>(s.calls);
  c["bidec.strong"] = static_cast<double>(s.strong_total());
  c["bidec.weak"] = static_cast<double>(s.weak_total());
  c["bidec.reuse_hits"] = static_cast<double>(s.cache_hits);
  c["bidec.reuse_lookups"] = static_cast<double>(s.cache_lookups);
  c["bidec.shannon_fallbacks"] = static_cast<double>(s.shannon_fallback);
  c["spec.bdd_nodes"] = static_cast<double>(spec_nodes);
}

/// Netlist metrics into the report, as run_synthesis_job's success tail.
void record_netlist(JobReport& rep, const Netlist& net) {
  const NetlistStats ns = net.stats();
  rep.gates = ns.gates;
  rep.two_input = ns.two_input;
  rep.exors = ns.exors;
  rep.inverters = ns.inverters;
  rep.levels = ns.cascades;
  rep.area = ns.area;
  rep.delay = ns.delay;
}

/// The BDD path of run_synthesis_job (first attempt, no budgets).
void replay_bdd(const JobSpec& spec, const PlaFile& pla, const Netlist& blif,
                bool is_pla, ManagerSource& managers, Tracer& tracer, std::uint64_t trace,
                std::uint64_t job_span, JobResult& result) {
  JobReport& rep = result.report;
  const unsigned num_vars =
      is_pla ? pla.num_inputs : static_cast<unsigned>(blif.num_inputs());
  BddManager* mgr = nullptr;
  {
    ScopedSpan s(tracer, trace, job_span, "engine.prepare");
    mgr = &managers.manager_for(num_vars, /*fresh=*/false);
    const BddStats before = mgr->stats();
    const std::uint64_t steps = mgr->steps_used();
    mgr->set_threads(spec.flow.threads);
    mgr->set_reorder(spec.flow.live_reorder == ReorderMode::kAuto ? ReorderMode::kAuto
                                                                  : ReorderMode::kOff);
    std::vector<unsigned> order = spec.preset_order;
    if (order.size() != num_vars) {
      order.resize(num_vars);
      std::iota(order.begin(), order.end(), 0u);
    }
    mgr->reorder_to(order);
    s.counters() = bdd_delta(before, steps, *mgr);
  }
  rep.threads = mgr->threads();

  std::vector<Isf> isfs;
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  {
    ScopedSpan s(tracer, trace, job_span, "spec.materialize");
    const BddStats before = mgr->stats();
    const std::uint64_t steps = mgr->steps_used();
    if (is_pla) {
      isfs = pla.to_isfs(*mgr);
      for (unsigned i = 0; i < pla.num_inputs; ++i) input_names.push_back(pla.input_name(i));
      for (unsigned o = 0; o < pla.num_outputs; ++o) output_names.push_back(pla.output_name(o));
    } else {
      for (const Bdd& f : netlist_to_bdds(*mgr, blif)) isfs.push_back(Isf::from_csf(f));
      for (std::size_t i = 0; i < blif.num_inputs(); ++i) input_names.push_back(blif.input_name(i));
      for (std::size_t o = 0; o < blif.num_outputs(); ++o) output_names.push_back(blif.output_name(o));
    }
    s.counters() = bdd_delta(before, steps, *mgr);
  }
  rep.num_inputs = num_vars;
  rep.num_outputs = static_cast<unsigned>(isfs.size());

  FlowResult flow;
  {
    ScopedSpan s(tracer, trace, job_span, "bidec.synthesize");
    const BddStats before = mgr->stats();
    const std::uint64_t steps = mgr->steps_used();
    flow = synthesize_bidecomp(*mgr, isfs, input_names, output_names, spec.flow);
    s.counters() = bdd_delta(before, steps, *mgr);
    add_bidec_counters(s.counters(), flow.stats, flow.bdd_nodes_before);
  }
  rep.status = JobStatus::kOk;
  rep.bidec = flow.stats;
  rep.lint = flow.lint;

  if (spec.verify == VerifyEngine::kBdd) {
    ScopedSpan s(tracer, trace, job_span, "verify.bdd");
    const BddStats before = mgr->stats();
    const std::uint64_t steps = mgr->steps_used();
    const VerifyResult v = verify_against_isfs(*mgr, flow.netlist, isfs);
    s.counters() = bdd_delta(before, steps, *mgr);
    rep.verify_engine = VerifyEngine::kBdd;
    rep.bdd_verdict = v.ok ? 1 : 0;
    rep.failed_outputs = v.failed_outputs;
    if (!v.ok) rep.status = JobStatus::kVerifyFailed;
  } else if (spec.verify != VerifyEngine::kNone) {
    throw std::invalid_argument("replay: BDD jobs replay with verify=bdd or none");
  }
  record_netlist(rep, flow.netlist);
  result.netlist = std::move(flow.netlist);
}

/// The SAT path of run_synthesis_job (engine=sat, first attempt).
void replay_sat(const JobSpec& spec, const PlaFile& pla, const Netlist& blif,
                bool is_pla, Tracer& tracer, std::uint64_t trace, std::uint64_t job_span,
                JobResult& result) {
  JobReport& rep = result.report;
  satdec::SatDecOptions o;  // as satdec_options_for: quality knobs mirrored
  o.grouping_pairs = spec.flow.bidec.grouping_pairs;
  o.balance_cost = spec.flow.bidec.balance_cost;
  o.use_strong = spec.flow.bidec.use_strong;
  o.use_exor = spec.flow.bidec.use_exor;
  o.absorb_inverters = spec.flow.bidec.absorb_inverters;
  o.proof = spec.flow.proof;

  satdec::SatFlowResult sat;
  {
    ScopedSpan s(tracer, trace, job_span, "satdec.synthesize");
    sat = is_pla ? satdec::synthesize_satdec(pla, o) : satdec::synthesize_satdec(blif, o);
    s.counters() = sat_counters(sat.stats.solves, sat.stats.solver, sat.stats.proof);
  }
  rep.num_inputs = is_pla ? pla.num_inputs : static_cast<unsigned>(blif.num_inputs());
  rep.num_outputs = is_pla ? pla.num_outputs : static_cast<unsigned>(blif.num_outputs());
  rep.status = JobStatus::kOk;
  rep.sat_engine = true;
  rep.satdec = sat.stats;
  rep.proof += sat.stats.proof;

  if (spec.verify != VerifyEngine::kSat) {
    throw std::invalid_argument("replay: SAT jobs replay with verify=sat");
  }
  {
    ScopedSpan s(tracer, trace, job_span, "verify.sat");
    proof::ProofStats proof;
    const SatVerifyOptions vopt{.proof = spec.flow.proof,
                                .proof_stats = &proof,
                                .solver_stats = &rep.verify_solver};
    const VerifyResult v = is_pla ? sat_verify_against_pla(sat.netlist, pla, vopt)
                                  : sat_verify_equivalent(sat.netlist, blif, vopt);
    s.counters() = sat_counters(0, rep.verify_solver, proof);
    rep.proof += proof;
    rep.verify_engine = VerifyEngine::kSat;
    rep.sat_verdict = v.ok ? 1 : 0;
    rep.failed_outputs = v.failed_outputs;
    if (!v.ok) rep.status = JobStatus::kVerifyFailed;
  }
  if (spec.flow.lint != LintMode::kOff) {
    ScopedSpan s(tracer, trace, job_span, "lint.netlist");
    rep.lint = lint_netlist(sat.netlist);
  }
  record_netlist(rep, sat.netlist);
  result.netlist = std::move(sat.netlist);
}

}  // namespace

JobResult replay_job(const JobSpec& spec, std::uint64_t job_id, ManagerSource& managers,
                     Tracer& tracer, std::uint64_t trace, std::uint64_t parent) {
  JobResult result;
  JobReport& rep = result.report;
  rep.job_id = job_id;
  rep.name = spec.name;
  rep.proof_policy = spec.flow.proof;
  rep.reorder_mode = spec.flow.live_reorder;

  ScopedSpan job(tracer, trace, parent, "job");
  PlaFile pla;
  Netlist blif;
  bool is_pla = true;
  {
    ScopedSpan s(tracer, trace, job.id(), "io.load");
    if (const auto* path = std::get_if<std::string>(&spec.source)) {
      if (ends_with(*path, ".pla")) {
        pla = PlaFile::load(*path);
      } else if (ends_with(*path, ".blif")) {
        blif = load_blif(*path);
        is_pla = false;
      } else {
        throw std::invalid_argument("replay: source must end in .pla or .blif: " + *path);
      }
    } else {
      pla = std::get<PlaFile>(spec.source);
    }
  }
  if (spec.flow.engine == EngineSelect::kSat) {
    replay_sat(spec, pla, blif, is_pla, tracer, trace, job.id(), result);
  } else {
    replay_bdd(spec, pla, blif, is_pla, managers, tracer, trace, job.id(), result);
  }
  return result;
}

void replay_lint(const Netlist& net, Tracer& tracer, std::uint64_t trace) {
  ScopedSpan s(tracer, trace, 0, "lint.netlist");
  const LintReport report = lint_netlist(net);
  s.counters()["lint.findings"] = static_cast<double>(report.findings().size());
}

std::optional<SharedComponent> TimedComponentCache::lookup(const ComponentSignature& sig) {
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<SharedComponent> hit = inner_.lookup(sig);
  lookup_ms_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return hit;
}

void TimedComponentCache::publish(const ComponentSignature& sig, const Netlist& impl) {
  inner_.publish(sig, impl);
}

void TimedComponentCache::reject(const ComponentSignature& sig) { inner_.reject(sig); }

}  // namespace bidec::e2e
