// What every workload runner takes and returns.
#ifndef BIDEC_BENCH_E2E_WORKLOAD_H
#define BIDEC_BENCH_E2E_WORKLOAD_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "engine/job.h"
#include "metrics.h"
#include "trace.h"

namespace bidec::e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the untraced measurement
  bool trace = false;     ///< also run the traced replay
  std::string work_dir;   ///< generated inputs live here
  bool smoke = false;     ///< toy sizes
  /// Smoke self-test of the checks: a batch run zeroes the verifier
  /// verdict of its first job's report before checking it.
  bool corrupt_first_verdict = false;
};

struct WorkloadResult {
  std::vector<std::string> rows;  ///< human-readable lines, one fact each
  MetricValues end_to_end;
  MetricValues per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness or determinism violations, each naming its job.
  std::vector<std::string> violations;
  Tracer tracer;
};

/// Peak resident set (VmHWM) of process `pid` (0 = this process) in MB, or
/// 0 when /proc cannot be read.
[[nodiscard]] inline double peak_rss_mb(int pid = 0) {
  std::ifstream f(pid == 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      f >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// printf into a std::string (rows are built this way).
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Empty when `rep` finished ok with a passing verdict from `verify` and,
/// when `stable0` is given, a to_stable_json identical to it; otherwise
/// what is wrong.
[[nodiscard]] std::string check_job(const JobReport& rep, VerifyEngine verify,
                                    const std::string& stable0);

WorkloadResult run_batch(const RunOptions& opt);
WorkloadResult run_server_mix(const RunOptions& opt);

/// Body of the server child process (`bidec_bench --serve`): a BidecServer
/// on an ephemeral loopback port, announced as "port <n>" on stdout.
int serve_main();

}  // namespace bidec::e2e

#endif  // BIDEC_BENCH_E2E_WORKLOAD_H
