// perfbench: the spx benchmark driver.
//
//   perfbench --workload factorize|solve|serve --seed N --seconds S
//             --trace 0|1 [--git-sha SHA] [--src-digest HEX]
//             [--trace-dir DIR] [--spec BENCHMARK.json]
//
// Prints the run record, every figure with its unit and sample count, the
// per-kind failed/attempted counts, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 runs with the library's tracer attached
// and reports the per-layer metrics.  The names and units of both lists
// come from BENCHMARK.json.  perfbench/run.py builds and runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"
#include "obs/export.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += spx::obs::json_escape(s);
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw BenchError("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw BenchError("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else if (key == "--src-digest") {
      a.src_digest = val;
    } else if (key == "--trace-dir") {
      a.trace_dir = val;
    } else if (key == "--spec") {
      a.spec = val;
    } else {
      throw BenchError("unknown option " + key);
    }
  }
  if (a.seconds <= 0) throw BenchError("--seconds must be positive");
  return a;
}

struct SpecMetric {
  std::string name;
  std::string unit;
};

/// The metrics of one list ("end_to_end" or "per_layer") of BENCHMARK.json.
std::vector<SpecMetric> read_spec(const std::string& path, const char* list) {
  std::ifstream in(path);
  if (!in) throw BenchError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const spx::json::Value spec = spx::json::Value::parse(text.str());
  const spx::json::Value& entries = spec.at(list);
  std::vector<SpecMetric> out;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out.push_back({entries.at(i).at("name").as_string(),
                   entries.at(i).at("unit").as_string()});
  }
  return out;
}

std::map<std::string, Metric> by_name(const std::vector<Metric>& ms) {
  std::map<std::string, Metric> out;
  for (const Metric& m : ms) {
    if (!out.emplace(m.name, m).second) {
      throw BenchError("metric " + m.name + " reported twice");
    }
  }
  return out;
}

void print_metric(const char* tag, const Metric& m) {
  std::printf("%s %s = %.6g %s (n=%zu)\n", tag, m.name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report (*workload)(const Args&) = nullptr;
  if (args.workload == "factorize") workload = run_factorize;
  if (args.workload == "solve") workload = run_solve;
  if (args.workload == "serve") workload = run_serve;
  if (workload == nullptr) throw BenchError("unknown workload " + args.workload);
  const std::vector<SpecMetric> wanted =
      read_spec(args.spec, args.trace ? "per_layer" : "end_to_end");

  const ProbeResult before = host_probe();
  Report rep = workload(args);
  const ProbeResult after = host_probe();
  rep.layer("host.probe_gflops", (before.gflops + after.gflops) / 2, "GFlop/s", 2);
  rep.layer("host.probe_stream_gbs", (before.stream_gbs + after.stream_gbs) / 2,
            "GB/s", 2);
  record_host(rep);
  rep.record["workload"] = args.workload;
  rep.record["seed"] = std::to_string(args.seed);
  rep.record["seconds"] = json_number(args.seconds);
  rep.record["trace"] = args.trace ? "1" : "0";
  rep.record["git_sha"] = args.git_sha;
  rep.record["src_digest"] = args.src_digest;
  rep.record["host.probe_gflops_before"] = json_number(before.gflops);
  rep.record["host.probe_gflops_after"] = json_number(after.gflops);

  std::string record = "{";
  for (const auto& [k, v] : rep.record) {
    if (record.size() > 1) record += ", ";
    record += json_string(k) + ": " + json_string(v);
  }
  std::printf("record %s}\n", record.c_str());
  for (const Metric& m : rep.metrics) print_metric("metric", m);
  for (const Metric& m : rep.figures) print_metric("figure", m);
  for (const Metric& m : rep.refused) {
    std::printf("refused %s: fewer than ten samples beyond the percentile "
                "(n=%zu)\n",
                m.name.c_str(), m.samples);
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, k] : rep.kinds) {
    std::printf("ops %s: failed %llu / attempted %llu\n", kind.c_str(),
                static_cast<unsigned long long>(k.failed),
                static_cast<unsigned long long>(k.attempted));
    attempted += k.attempted;
    failed += k.failed;
  }

  // The result line carries exactly the metrics BENCHMARK.json lists, in
  // its order and with its units.  A traced run prints every per-layer
  // metric; one the workload does not exercise reads 0.
  const std::map<std::string, Metric>& produced =
      args.trace ? rep.layers : by_name(rep.metrics);
  std::string metrics;
  for (const SpecMetric& w : wanted) {
    auto it = produced.find(w.name);
    if (it == produced.end() && !args.trace) {
      throw BenchError("end-to-end metric " + w.name + " not measured");
    }
    const Metric m = it != produced.end() ? it->second
                                          : Metric{w.name, 0.0, w.unit, 0};
    if (m.unit != w.unit) {
      throw BenchError("unit of " + m.name + " is " + m.unit + ", " +
                       args.spec + " says " + w.unit);
    }
    if (args.trace) print_metric("layer", m);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  for (const auto& [name, m] : produced) {
    bool listed = false;
    for (const SpecMetric& w : wanted) listed = listed || w.name == name;
    if (!listed) throw BenchError("metric " + name + " is not in " + args.spec);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
