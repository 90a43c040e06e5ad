#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "metrics.h"

namespace bidec::e2e {

namespace {

/// Counters that aggregate by maximum rather than by sum.
bool is_gauge(const std::string& counter) { return counter == "bdd.peak_nodes"; }

}  // namespace

std::uint64_t Tracer::begin(std::uint64_t trace, std::uint64_t parent, std::string name) {
  Span s;
  s.trace = trace;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  open_.emplace(s.id, spans_.size());
  spans_.push_back(std::move(s));
  spans_.back().start_ns = ns(Clock::now());
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id, Counters counters) noexcept {
  const std::int64_t now = ns(Clock::now());
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Span& s = spans_[it->second];
  s.end_ns = now;
  s.counters = std::move(counters);
  open_.erase(it);
}

void Tracer::add(std::uint64_t trace, std::uint64_t parent, std::string name,
                 Clock::time_point start, Clock::time_point end) {
  Span s;
  s.trace = trace;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  spans_.push_back(std::move(s));
}

std::map<std::uint64_t, std::vector<const Span*>> Tracer::by_trace() const {
  std::map<std::uint64_t, std::vector<const Span*>> out;
  for (const Span& s : spans_) out[s.trace].push_back(&s);
  return out;
}

void Tracer::write_jsonl(const std::string& path, const std::string& header) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << header << '\n';
  for (const Span& s : spans_) {
    f << "{\"trace\": " << s.trace << ", \"span\": " << s.id
      << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"counters\": {";
    bool first = true;
    for (const auto& [key, value] : s.counters) {
      f << (first ? "" : ", ") << '"' << key << "\": " << shortest(value);
      first = false;
    }
    f << "}}\n";
  }
  if (!f) throw std::runtime_error("failed writing trace file " + path);
}

Counters bdd_delta(const BddStats& before, std::uint64_t steps_before,
                   const BddManager& mgr) {
  const BddStats& after = mgr.stats();
  const auto d = [](auto a, auto b) { return static_cast<double>(a) - static_cast<double>(b); };
  return {
      {"bdd.steps", d(mgr.steps_used(), steps_before)},
      {"bdd.and_calls", d(after.and_calls, before.and_calls)},
      {"bdd.ite_calls", d(after.ite_calls, before.ite_calls)},
      {"bdd.cache_hits", d(after.cache_hits, before.cache_hits)},
      {"bdd.cache_lookups", d(after.cache_lookups, before.cache_lookups)},
      {"bdd.unique_hits", d(after.unique_hits, before.unique_hits)},
      {"bdd.unique_misses", d(after.unique_misses, before.unique_misses)},
      {"bdd.gc_runs", d(after.gc_runs, before.gc_runs)},
      {"bdd.gc_ms", after.gc_ms - before.gc_ms},
      {"bdd.peak_nodes", static_cast<double>(after.peak_nodes)},
      {"bdd.par_ops", d(after.par_ops, before.par_ops)},
      {"bdd.reorders", d(after.reorders, before.reorders)},
      {"bdd.reorder_rejected", d(after.reorder_rejected, before.reorder_rejected)},
      {"bdd.reorder_ms", after.reorder_ms - before.reorder_ms},
  };
}

std::string summarize(const std::vector<const Span*>& spans, const std::string& root,
                      TraceSummary& out) {
  std::map<std::uint64_t, const Span*> by_id;
  std::map<std::uint64_t, double> child_ms;
  for (const Span* s : spans) by_id[s->id] = s;
  for (const Span* s : spans) {
    if (s->end_ns < s->start_ns) return "span " + s->name + " ends before it starts";
    if (s->parent == 0) continue;
    const auto p = by_id.find(s->parent);
    if (p == by_id.end()) return "span " + s->name + " has no parent in its trace";
    if (s->start_ns < p->second->start_ns || s->end_ns > p->second->end_ns) {
      return "span " + s->name + " lies outside its parent " + p->second->name;
    }
    child_ms[s->parent] += s->ms();
  }
  for (const Span* s : spans) {
    const double self = s->ms() - child_ms[s->id];
    // Children run one after another inside their parent, so their summed
    // duration cannot exceed it; a clock tick of slack absorbs rounding.
    if (self < -1e-6) return "span " + s->name + " has negative self time";
    out.self_ms[s->name] += std::max(self, 0.0);
    for (const auto& [key, value] : s->counters) {
      double& slot = out.counters[key];
      slot = is_gauge(key) ? std::max(slot, value) : slot + value;
    }
    if (s->name == root) {
      out.root_ms += s->ms();
      out.children_ms += child_ms[s->id];
    }
  }
  return {};
}

TraceSummary median_of(const std::vector<TraceSummary>& reps) {
  const auto column = [&](auto member, const std::string& key) {
    std::vector<double> v;
    for (const TraceSummary& r : reps) {
      const auto& m = r.*member;
      const auto it = m.find(key);
      v.push_back(it != m.end() ? it->second : 0.0);
    }
    return median(std::move(v));
  };
  TraceSummary out;
  std::vector<double> root;
  std::vector<double> children;
  for (const TraceSummary& r : reps) {
    for (const auto& kv : r.self_ms) out.self_ms[kv.first] = 0.0;
    for (const auto& kv : r.counters) out.counters[kv.first] = 0.0;
    root.push_back(r.root_ms);
    children.push_back(r.children_ms);
  }
  for (auto& [key, value] : out.self_ms) value = column(&TraceSummary::self_ms, key);
  for (auto& [key, value] : out.counters) value = column(&TraceSummary::counters, key);
  out.root_ms = median(std::move(root));
  out.children_ms = median(std::move(children));
  return out;
}

void accumulate(TraceSummary& total, const TraceSummary& s) {
  for (const auto& [key, value] : s.self_ms) total.self_ms[key] += value;
  for (const auto& [key, value] : s.counters) {
    double& slot = total.counters[key];
    slot = is_gauge(key) ? std::max(slot, value) : slot + value;
  }
  total.root_ms += s.root_ms;
  total.children_ms += s.children_ms;
}

void scale(TraceSummary& s, double factor) {
  for (auto& kv : s.self_ms) kv.second *= factor;
  for (auto& [key, value] : s.counters) {
    if (!is_gauge(key)) value *= factor;
  }
  s.root_ms *= factor;
  s.children_ms *= factor;
}

std::map<std::string, double> layer_metrics(const TraceSummary& s) {
  const auto self = [&](const char* span) {
    const auto it = s.self_ms.find(span);
    return it != s.self_ms.end() ? it->second : 0.0;
  };
  const auto c = [&](const char* key) {
    const auto it = s.counters.find(key);
    return it != s.counters.end() ? it->second : 0.0;
  };
  return {
      {"io.load_ms", self("io.load")},
      {"spec.materialize_ms", self("spec.materialize")},
      {"spec.bdd_nodes", c("spec.bdd_nodes")},
      {"bidec.synth_ms", self("bidec.synthesize")},
      {"bidec.calls", c("bidec.calls")},
      {"bidec.strong_ratio", ratio(c("bidec.strong"), c("bidec.strong") + c("bidec.weak"))},
      {"bidec.reuse_hit_ratio", ratio(c("bidec.reuse_hits"), c("bidec.reuse_lookups"))},
      {"bidec.shannon_fallbacks", c("bidec.shannon_fallbacks")},
      {"bdd.steps", c("bdd.steps")},
      {"bdd.and_calls", c("bdd.and_calls")},
      {"bdd.ite_calls", c("bdd.ite_calls")},
      {"bdd.cache_hit_ratio", ratio(c("bdd.cache_hits"), c("bdd.cache_lookups"))},
      {"bdd.unique_hit_ratio",
       ratio(c("bdd.unique_hits"), c("bdd.unique_hits") + c("bdd.unique_misses"))},
      {"bdd.gc_runs", c("bdd.gc_runs")},
      {"bdd.gc_ms", c("bdd.gc_ms")},
      {"bdd.peak_nodes", c("bdd.peak_nodes")},
      {"bdd.par_ops", c("bdd.par_ops")},
      {"bdd.reorders", c("bdd.reorders")},
      {"bdd.reorder_rejected", c("bdd.reorder_rejected")},
      {"bdd.reorder_ms", c("bdd.reorder_ms")},
      {"bdd.reorder_accept_ratio",
       ratio(c("bdd.reorders"), c("bdd.reorders") + c("bdd.reorder_rejected"))},
      {"satdec.synth_ms", self("satdec.synthesize")},
      {"satdec.solves", c("satdec.solves")},
      {"sat.conflicts", c("sat.conflicts")},
      {"sat.propagations", c("sat.propagations")},
      {"proof.clauses", c("proof.clauses")},
      {"proof.check_ms", c("proof.check_ms")},
      {"verify.bdd_ms", self("verify.bdd")},
      {"verify.sat_ms", self("verify.sat")},
      {"lint.ms", self("lint.netlist")},
  };
}

double module_ms(const TraceSummary& s) {
  const auto it = s.self_ms.find("engine.prepare");
  return s.children_ms - (it != s.self_ms.end() ? it->second : 0.0);
}

}  // namespace bidec::e2e
