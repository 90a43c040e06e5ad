// Inputs of the four workloads, generated from the seed at set-up time and
// written as the PLA/BLIF files a user would submit. Sizes are pinned here;
// README.md explains each choice.
#ifndef BIDEC_BENCH_E2E_INPUTS_H
#define BIDEC_BENCH_E2E_INPUTS_H

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bidec/flow.h"
#include "io/pla.h"
#include "verify/verifier.h"

namespace bidec::e2e {

/// One job source: `text` is written to `path`, which ends in .pla or .blif.
struct BatchInput {
  std::string name;
  std::string path;
  std::string text;
};

/// A closed-loop batch workload: every input runs with the same options.
struct BatchWorkload {
  FlowOptions flow;
  VerifyEngine verify = VerifyEngine::kBdd;
  std::vector<BatchInput> inputs;
  std::vector<std::string> notes;  ///< set-up facts printed as rows
};

[[nodiscard]] bool is_batch_workload(const std::string& name);

/// Generate the inputs of batch workload `name`, in memory, with paths under
/// `dir`. `smoke` picks toy sizes. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] BatchWorkload make_batch_workload(const std::string& name,
                                                std::uint64_t seed,
                                                const std::string& dir, bool smoke);

/// Write every input's text to its path. Throws std::runtime_error on
/// failure.
void write_inputs(const BatchWorkload& w);

/// One 10-input, 3-output control-logic spec of the server workload, drawn
/// by benchgen from `seed`.
[[nodiscard]] PlaFile server_spec(std::uint64_t seed);

}  // namespace bidec::e2e

#endif  // BIDEC_BENCH_E2E_INPUTS_H
