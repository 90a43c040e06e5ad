#include "inputs.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "benchgen/benchgen.h"
#include "io/blif.h"

namespace bidec::e2e {

namespace {

/// The two-level view of a benchgen circuit: ISOP covers of every output
/// interval, as examples/export_suite writes them.
PlaFile mcnc_pla(const Benchmark& bench) {
  BddManager mgr(bench.num_inputs);
  const std::vector<Isf> spec = bench.build(mgr);
  PlaFile pla;
  pla.num_inputs = bench.num_inputs;
  pla.num_outputs = bench.num_outputs;
  pla.type = PlaFile::Type::kFD;
  pla.input_names = bench.input_names();
  pla.output_names = bench.output_names();
  for (unsigned o = 0; o < bench.num_outputs; ++o) {
    for (const CubeLits& lits : mgr.isop(spec[o].q(), ~spec[o].r())) {
      std::string in_part(bench.num_inputs, '-');
      for (unsigned v = 0; v < bench.num_inputs; ++v) {
        if (lits[v] == 1) in_part[v] = '1';
        if (lits[v] == 0) in_part[v] = '0';
      }
      std::string out_part(bench.num_outputs, '0');
      out_part[o] = '1';
      pla.rows.push_back(PlaFile::Row{std::move(in_part), std::move(out_part)});
    }
  }
  return pla;
}

std::string numbered(const char* prefix, unsigned i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

/// Structure of the order-hostile specs: pinned, so every seed yields
/// functions of the same diagram sizes and the same netlist quality.
constexpr std::uint64_t kHostileShapeSeed = 42;

/// Signed disjoint-pair sums f_k = OR_i lit(x_i) & lit(y_perm(i)), with a
/// pairing shared by all outputs and per-output literal polarities. Every x
/// precedes every y in the input order, so under the identity order each
/// output needs ~2^pairs nodes; interleaving the pairs makes it linear. The
/// seed complements both literals of a pair in every output, which keeps
/// diagram sizes and netlist quality unchanged.
PlaFile split_pair_sums(unsigned pairs, unsigned outputs, std::mt19937_64& rng) {
  std::mt19937_64 shape(kHostileShapeSeed);
  std::vector<unsigned> perm(pairs);
  std::iota(perm.begin(), perm.end(), 0u);
  std::shuffle(perm.begin(), perm.end(), shape);
  const std::uint64_t flip = rng();
  PlaFile pla;
  pla.num_inputs = 2 * pairs;
  pla.num_outputs = outputs;
  pla.type = PlaFile::Type::kFD;
  for (unsigned i = 0; i < pairs; ++i) pla.input_names.push_back(numbered("x", i));
  for (unsigned i = 0; i < pairs; ++i) pla.input_names.push_back(numbered("y", i));
  for (unsigned k = 0; k < outputs; ++k) {
    pla.output_names.push_back(numbered("f", k));
    const std::uint64_t signs = shape();
    for (unsigned i = 0; i < pairs; ++i) {
      const std::uint64_t f = flip >> i & 1;
      std::string in(2 * pairs, '-');
      in[i] = ((signs >> (2 * i) ^ f) & 1) != 0 ? '0' : '1';
      in[pairs + perm[i]] = ((signs >> (2 * i + 1) ^ f) & 1) != 0 ? '0' : '1';
      std::string out(outputs, '0');
      out[k] = '1';
      pla.rows.push_back(PlaFile::Row{std::move(in), std::move(out)});
    }
  }
  return pla;
}

/// Equality comparators eq_k = AND_i (a_i XNOR b_perm(i)) ^ s_ki with the
/// operands split (all a bits, then all b bits): exponential under the
/// identity order, linear once each a_i sits beside its b_perm(i). The seed
/// complements inputs, which an XOR absorbs: sizes and quality unchanged.
Netlist split_comparators(unsigned bits, unsigned outputs, std::mt19937_64& rng) {
  std::mt19937_64 shape(kHostileShapeSeed);
  std::vector<unsigned> perm(bits);
  std::iota(perm.begin(), perm.end(), 0u);
  std::shuffle(perm.begin(), perm.end(), shape);
  const std::uint64_t flip = rng();
  Netlist net;
  std::vector<SignalId> a(bits);
  std::vector<SignalId> b(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = net.add_input(numbered("a", i));
  for (unsigned i = 0; i < bits; ++i) b[i] = net.add_input(numbered("b", i));
  for (unsigned i = 0; i < bits; ++i) {
    if ((flip >> i & 1) != 0) a[i] = net.add_not(a[i]);
    if ((flip >> (bits + i) & 1) != 0) b[i] = net.add_not(b[i]);
  }
  for (unsigned k = 0; k < outputs; ++k) {
    const std::uint64_t signs = shape();
    SignalId acc = net.get_const(true);
    for (unsigned i = 0; i < bits; ++i) {
      SignalId eq = net.add_xor(a[i], b[perm[i]]);
      if ((signs >> i & 1) == 0) eq = net.add_not(eq);
      acc = net.add_and(acc, eq);
    }
    net.add_output(numbered("eq", k), acc);
  }
  return net;
}

/// Shared BDD size of `isfs` (both bounds of every output).
std::size_t spec_nodes(const BddManager& mgr, const std::vector<Isf>& isfs) {
  std::vector<Bdd> bounds;
  for (const Isf& isf : isfs) {
    bounds.push_back(isf.q());
    bounds.push_back(isf.r());
  }
  return mgr.dag_size(bounds);
}

/// The kernel's default live-reorder trigger, read off a fresh manager.
std::size_t auto_reorder_trigger() {
  BddManager probe(1);
  probe.set_reorder(ReorderMode::kAuto);
  return probe.reorder_trigger();
}

/// Fails set-up unless the identity-order spec is at least 4x the trigger,
/// so live reordering has real work to do; records the size as a note.
void check_hostile(BatchWorkload& w, const std::string& name, std::size_t nodes,
                   bool smoke) {
  const std::size_t trigger = auto_reorder_trigger();
  if (!smoke && nodes < 4 * trigger) {
    throw std::runtime_error(name + ": identity-order spec has " + std::to_string(nodes) +
                             " nodes, under 4x the reorder trigger " +
                             std::to_string(trigger));
  }
  w.notes.push_back("input=" + name + " identity_order_nodes=" + std::to_string(nodes) +
                    " reorder_trigger=" + std::to_string(trigger));
}

void add_pla(BatchWorkload& w, const std::string& dir, const std::string& name,
             const PlaFile& pla) {
  w.inputs.push_back({name, dir + "/" + name + ".pla", pla.write()});
}

void add_blif(BatchWorkload& w, const std::string& dir, const std::string& name,
              const Netlist& net) {
  w.inputs.push_back({name, dir + "/" + name + ".blif", write_blif(net, name)});
}

void add_mcnc(BatchWorkload& w, const std::string& dir,
              const std::vector<std::string>& names) {
  for (const std::string& name : names) add_pla(w, dir, name, mcnc_pla(find_benchmark(name)));
}

// Default job options of the batch workloads: lint=warn, threads=1, no
// static or live reordering, everything else as a user gets it.
FlowOptions default_flow() {
  FlowOptions flow;
  flow.lint = LintMode::kWarn;
  flow.threads = 1;
  return flow;
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return name == "mcnc_bdd" || name == "reorder_auto" || name == "sat_certified";
}

BatchWorkload make_batch_workload(const std::string& name, std::uint64_t seed,
                                  const std::string& dir, bool smoke) {
  BatchWorkload w;
  w.flow = default_flow();
  std::mt19937_64 rng(seed);

  if (name == "mcnc_bdd") {
    if (smoke) {
      add_mcnc(w, dir, {"misex2", "rd53", "vg2"});
      return w;
    }
    // Every Table 2/3 circuit with a PLA view (e64 has 65 inputs and none),
    // except cordic: one cordic job takes ~41 s on a 4-core x86 host, more
    // than a whole run may.
    for (const Benchmark& b : full_suite()) {
      if (b.name == "e64" || b.name == "cordic") continue;
      add_pla(w, dir, b.name, mcnc_pla(b));
    }
    return w;
  }

  if (name == "reorder_auto") {
    w.flow.live_reorder = ReorderMode::kAuto;
    const unsigned width = smoke ? 6 : 12;  // pairs and comparator bits
    {
      const PlaFile pla = split_pair_sums(width, 4, rng);
      BddManager mgr(pla.num_inputs);
      check_hostile(w, "pairs", spec_nodes(mgr, pla.to_isfs(mgr)), smoke);
      add_pla(w, dir, "pairs", pla);
    }
    {
      const Netlist net = split_comparators(width, 4, rng);
      BddManager mgr(static_cast<unsigned>(net.num_inputs()));
      std::vector<Isf> isfs;
      for (const Bdd& f : netlist_to_bdds(mgr, net)) isfs.push_back(Isf::from_csf(f));
      check_hostile(w, "compare", spec_nodes(mgr, isfs), smoke);
      add_blif(w, dir, "compare", net);
    }
    if (smoke) {
      add_mcnc(w, dir, {"t481"});
    } else {
      add_mcnc(w, dir, {"alu4", "cps", "t481", "16sym8"});
    }
    return w;
  }

  if (name == "sat_certified") {
    w.flow.engine = EngineSelect::kSat;
    w.flow.proof = proof::ProofPolicy::kCheck;
    w.verify = VerifyEngine::kSat;
    if (smoke) {
      add_blif(w, dir, "mul3x3", multiplier_netlist(3, 3));
      add_mcnc(w, dir, {"misex2"});
      return w;
    }
    add_blif(w, dir, "mul4x4", multiplier_netlist(4, 4));
    add_blif(w, dir, "mul5x5", multiplier_netlist(5, 5));
    add_mcnc(w, dir, {"9sym", "rd84", "alu2", "duke2", "misex2"});
    return w;
  }

  throw std::invalid_argument("unknown batch workload: " + name);
}

void write_inputs(const BatchWorkload& w) {
  for (const BatchInput& in : w.inputs) {
    std::filesystem::create_directories(std::filesystem::path(in.path).parent_path());
    std::ofstream f(in.path);
    f << in.text;
    if (!f) throw std::runtime_error("cannot write " + in.path);
  }
}

PlaFile server_spec(std::uint64_t seed) {
  return random_control_pla(/*inputs=*/10, /*outputs=*/3, /*cubes=*/28, /*min_lits=*/3,
                            /*max_lits=*/6, /*outs_per_cube=*/2, /*dc_fraction=*/0.0, seed);
}

}  // namespace bidec::e2e
