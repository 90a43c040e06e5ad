// bidec_bench: the end-to-end synthesis benchmark of record.
//
//   bidec_bench --workload W --seed N --seconds S --trace 0|1 --commit ID
//               --work-dir DIR
//   bidec_bench --smoke --benchmark-json BENCHMARK.json --work-dir DIR
//
// W is mcnc_bdd, reorder_auto, sat_certified or server_mix. The run prints
// a provenance line, one row per fact it measured, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of the traced replay with
// --trace 1 (whose spans go to DIR/trace.jsonl). It exits 1 when a job
// fails a check, naming the job, and refuses to run from a non-Release
// build. bench/e2e/run.py builds this binary and runs it; README.md
// defines every workload and metric.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "inputs.h"
#include "server/json.h"
#include "workload.h"

namespace bidec::e2e {

namespace {

struct CliOptions {
  RunOptions run;
  std::string commit;
  bool smoke = false;
  std::string benchmark_json;
  bool serve = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: bidec_bench --workload W --seed N --seconds S --trace 0|1 "
               "--commit ID --work-dir DIR\n"
               "       bidec_bench --smoke --benchmark-json PATH --work-dir DIR\n");
  return 2;
}

bool parse_args(int argc, char** argv, CliOptions& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() {
      ++i;
      return std::string(v);
    };
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--serve") {
      o.serve = true;
    } else if (v == nullptr) {
      return false;
    } else if (a == "--workload") {
      o.run.workload = take();
    } else if (a == "--seed") {
      o.run.seed = std::stoull(take());
    } else if (a == "--seconds") {
      o.run.seconds = std::stod(take());
    } else if (a == "--trace") {
      const std::string t = take();
      if (t != "0" && t != "1") return false;
      o.run.trace = t == "1";
    } else if (a == "--commit") {
      o.commit = take();
    } else if (a == "--work-dir") {
      o.run.work_dir = take();
    } else if (a == "--benchmark-json") {
      o.benchmark_json = take();
    } else {
      return false;
    }
  }
  return true;
}

/// Processing units this process may run on, as `nproc` counts them.
unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string provenance(const CliOptions& o) {
  return "{\"commit\": \"" + json_escape(o.commit) + "\", \"nproc\": " +
         std::to_string(nproc()) + ", \"compiler\": \"" + json_escape(BIDEC_BENCH_COMPILER) +
         "\", \"build_type\": \"" + json_escape(BIDEC_BENCH_BUILD_TYPE) +
         "\", \"cxx_flags\": \"" + json_escape(BIDEC_BENCH_CXX_FLAGS) + "\", \"seed\": " +
         std::to_string(o.run.seed) + ", \"workload\": \"" + json_escape(o.run.workload) +
         "\", \"seconds\": " + shortest(o.run.seconds) +
         ", \"trace\": " + (o.run.trace ? "1" : "0") + "}";
}

WorkloadResult run_workload(const RunOptions& opt) {
  if (opt.workload == "server_mix") return run_server_mix(opt);
  if (is_batch_workload(opt.workload)) return run_batch(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

/// The metrics object of the result line: every entry of `table`, each with
/// its unit. A metric the run did not produce is a bug in the runner.
template <std::size_t N>
std::string metrics_json(const MetricDef (&table)[N], const MetricValues& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(table[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::logic_error(std::string("metric not produced: ") + table[i].name);
    }
    out += (i == 0 ? "\"" : ", \"") + std::string(table[i].name) + "\": {\"value\": " +
           shortest(it->second) + ", \"unit\": \"" + table[i].unit + "\"}";
  }
  return out + "}";
}

std::string result_json(const WorkloadResult& r, bool trace) {
  return std::string("{\"correct\": ") + (r.violations.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": " +
         (trace ? metrics_json(kPerLayer, r.per_layer) : metrics_json(kEndToEnd, r.end_to_end)) +
         "}";
}

void print_rows(const WorkloadResult& r) {
  for (const std::string& row : r.rows) std::printf("%s\n", row.c_str());
  for (const std::string& v : r.violations) std::printf("violation %s\n", v.c_str());
}

// --- smoke -------------------------------------------------------------------

/// name -> unit of one metric list in BENCHMARK.json.
std::map<std::string, std::string> listed_metrics(const JsonValue& doc, const char* key) {
  std::map<std::string, std::string> out;
  if (const JsonValue* list = doc.get(key)) {
    for (const JsonValue& m : list->as_array()) {
      out[m.get_string("name").value_or("")] = m.get_string("unit").value_or("");
    }
  }
  return out;
}

template <std::size_t N>
void check_table(const MetricDef (&table)[N], const std::map<std::string, std::string>& listed,
                 const char* key, std::vector<std::string>& failures) {
  for (const MetricDef& m : table) {
    const auto it = listed.find(m.name);
    if (it == listed.end() || it->second != m.unit) {
      failures.push_back(std::string(key) + ": " + m.name + " [" + m.unit +
                         "] printed but not listed with that unit in BENCHMARK.json");
    }
  }
  if (listed.size() != N) {
    failures.push_back(std::string(key) + ": BENCHMARK.json lists " +
                       std::to_string(listed.size()) + " metrics, the benchmark prints " +
                       std::to_string(N));
  }
}

/// Every "beyond=<n>" a row prints: a percentile needs ten samples past it.
void check_percentile_rows(const WorkloadResult& r, std::vector<std::string>& failures) {
  for (const std::string& row : r.rows) {
    for (std::size_t at = row.find("beyond="); at != std::string::npos;
         at = row.find("beyond=", at + 1)) {
      if (std::stoul(row.substr(at + 7)) < 10) {
        failures.push_back("percentile printed with fewer than 10 samples beyond: " + row);
      }
    }
  }
}

int smoke_main(const CliOptions& o) {
  std::vector<std::string> failures;
  std::ifstream f(o.benchmark_json);
  std::stringstream text;
  text << f.rdbuf();
  const std::optional<JsonValue> doc = JsonValue::parse(text.str());
  if (!doc) {
    std::fprintf(stderr, "smoke: cannot read %s\n", o.benchmark_json.c_str());
    return 1;
  }
  check_table(kEndToEnd, listed_metrics(*doc, "end_to_end"), "end_to_end", failures);
  check_table(kPerLayer, listed_metrics(*doc, "per_layer"), "per_layer", failures);

  // The percentile rule itself, on sample counts around its thresholds.
  for (const std::size_t n : {9, 20, 40, 100, 999, 1000}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    const std::optional<Percentile> p = tail_percentile(v);
    const unsigned want = n >= 1000 ? 99 : n >= 100 ? 90 : n >= 40 ? 75 : n >= 20 ? 50 : 0;
    if ((p ? p->level : 0u) != want) {
      failures.push_back("tail percentile of " + std::to_string(n) + " samples is p" +
                         std::to_string(p ? p->level : 0u) + ", expected p" +
                         std::to_string(want));
    }
  }

  for (const char* name : {"mcnc_bdd", "reorder_auto", "sat_certified", "server_mix"}) {
    RunOptions run;
    run.workload = name;
    run.seed = 1;
    run.seconds = 0.3;
    run.trace = true;
    run.work_dir = o.run.work_dir + "/" + name;
    run.smoke = true;
    const WorkloadResult r = run_workload(run);
    print_rows(r);
    std::printf("%s\n%s\n", result_json(r, false).c_str(), result_json(r, true).c_str());
    for (const std::string& v : r.violations) failures.push_back(std::string(name) + ": " + v);
    // Toy ladder steps may miss the SLO, so throughput_rps may read 0 here.
    for (const MetricDef& m : kEndToEnd) {
      if (std::string_view(m.name) != "throughput_rps" && !(r.end_to_end.at(m.name) > 0.0)) {
        failures.push_back(std::string(name) + ": end-to-end metric " + m.name + " is 0");
      }
    }
    for (const auto& [trace, spans] : r.tracer.by_trace()) {
      TraceSummary s;
      const std::string err = summarize(spans, "", s);
      if (!err.empty()) failures.push_back(std::string(name) + ": trace " + std::to_string(trace) + ": " + err);
    }
    if (r.tracer.spans().empty()) failures.push_back(std::string(name) + ": no spans recorded");
    check_percentile_rows(r, failures);
  }

  // A corrupted verifier verdict must fail the run and name the job.
  RunOptions bad;
  bad.workload = "mcnc_bdd";
  bad.seconds = 0.1;
  bad.work_dir = o.run.work_dir + "/corrupt";
  bad.smoke = true;
  bad.corrupt_first_verdict = true;
  const WorkloadResult r = run_workload(bad);
  if (r.violations.empty() || r.violations.front().find("job ") != 0 ||
      r.violations.front().find("verifier verdict 0") == std::string::npos) {
    failures.push_back("a corrupted verifier verdict did not fail the run");
  }

  for (const std::string& fail : failures) std::printf("smoke failure: %s\n", fail.c_str());
  std::printf("smoke: %s\n", failures.empty() ? "ok" : "FAILED");
  return failures.empty() ? 0 : 1;
}

int bench_main(int argc, char** argv) {
  CliOptions o;
  if (!parse_args(argc, argv, o)) return usage();
  if (o.serve) return serve_main();
  if (o.run.work_dir.empty()) return usage();
  std::filesystem::create_directories(o.run.work_dir);
  if (o.smoke) return smoke_main(o);
  if (o.run.workload.empty() || o.commit.empty() || !(o.run.seconds > 0.0)) return usage();
  if (std::string_view(BIDEC_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "bidec_bench: built as '%s'; numbers of record need a Release build\n",
                 BIDEC_BENCH_BUILD_TYPE);
    return 2;
  }
  const std::string prov = provenance(o);
  std::printf("provenance %s\n", prov.c_str());
  std::fflush(stdout);
  const WorkloadResult r = run_workload(o.run);
  print_rows(r);
  if (o.run.trace) {
    const std::string path = o.run.work_dir + "/trace.jsonl";
    r.tracer.write_jsonl(path, prov);
    std::printf("trace %s spans=%zu\n", path.c_str(), r.tracer.spans().size());
  }
  std::printf("%s\n", result_json(r, o.run.trace).c_str());
  return r.violations.empty() ? 0 : 1;
}

}  // namespace

}  // namespace bidec::e2e

int main(int argc, char** argv) {
  try {
    return bidec::e2e::bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bidec_bench: %s\n", e.what());
    return 1;
  }
}
