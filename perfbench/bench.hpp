// Shared pieces of the spx benchmark driver: run arguments, sample
// series with the percentile guard, the run report (metrics, per-kind
// outcomes, run record) and the host-side helpers (peak RSS, frozen host
// probe, backward error).
//
// Each workload (factorize.cpp, solve.cpp, serve.cpp) fills one Report;
// main.cpp prints it.  End-to-end metrics come from untraced runs
// (--trace 0); the traced run (--trace 1) reports per-layer metrics only.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mat/csc.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  /// BENCHMARK.json: the metric names and units a result line carries.
  std::string spec = "BENCHMARK.json";
  /// Directory the traced run writes its spans and metrics into.
  std::string trace_dir = ".";
};

/// A benchmark-side invariant broke (guard, concurrency cap, sample
/// rule).  main() prints it and exits non-zero without a result line.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Samples of one quantity, in the order they were measured.
struct Series {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  std::size_t count() const { return values.size(); }
  double sum() const;
  double mean() const;
  /// Plain median (setup repetitions); latency percentiles go through
  /// quantile(), which enforces the percentile guard.
  double median() const;
  /// Nearest-rank quantile.  Throws BenchError unless at least ten
  /// samples lie strictly beyond the rank (the percentile guard).
  double quantile(double q) const;
  /// True when quantile(q) has its ten samples beyond it.
  bool supports(double q) const;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct KindCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Everything one run reports.  `metrics` is what the result line
/// carries; `figures` are further named figures printed with unit and
/// sample count but not part of the result line.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> figures;
  std::map<std::string, KindCount> kinds;
  /// Run record: host fingerprint, kernel ISA, seed, concurrency.
  std::map<std::string, std::string> record;
  /// Percentile figures the guard refused, with their sample counts.
  std::vector<Metric> refused;
  /// Per-layer figures of the traced run, keyed by metric name.
  std::map<std::string, Metric> layers;

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void figure(const std::string& name, double value, const std::string& unit,
              std::size_t samples) {
    figures.push_back({name, value, unit, samples});
  }
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples) {
    layers[name] = {name, value, unit, samples};
  }
  /// Counts one op of `kind`; a failed op also counts as attempted.
  void outcome(const std::string& kind, bool ok) {
    KindCount& k = kinds[kind];
    ++k.attempted;
    if (!ok) ++k.failed;
  }
  /// Records a thread/connection/worker count and enforces <= nproc.
  void concurrency(const std::string& what, int count);
  /// Latency percentile figure in ms under the percentile guard: without
  /// ten samples beyond the rank it is refused, not printed as a value.
  void latency_figure(const std::string& name, const Series& s, double q);
};

/// Sinks of a traced run: a private tracer and metrics registry that the
/// workload attaches through the library's public instrumentation
/// options, plus every span drained so far (written out at the end).
struct TraceSink {
  spx::obs::Tracer tracer{std::size_t{1} << 20};
  spx::obs::MetricsRegistry registry;
  std::vector<spx::obs::SpanRecord> kept;

  /// Returns the spans recorded since the last drain and clears the
  /// ring.  Throws BenchError if the ring overflowed in between (the
  /// per-layer sums would be short).
  std::vector<spx::obs::SpanRecord> drain();
  /// Writes the kept spans (chrome trace) and the registry (Prometheus
  /// text) into `dir`, named after `stem`.
  void write(const std::string& dir, const std::string& stem) const;
};

int nproc();
double peak_rss_mb();

/// Frozen host-speed probe: a fixed FMA loop and a fixed streaming loop
/// on one thread per vCPU.  It calls nothing in the spx library, so no
/// change to the library can move it; it tells host-speed swings apart
/// from regressions.  It runs in a child process, so its arrays never
/// count towards the run's peak resident memory.
struct ProbeResult {
  double gflops = 0;
  double stream_gbs = 0;
};
ProbeResult host_probe();

/// Normwise relative backward error of x as a solution of A x = b:
/// ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf).
double backward_error(const spx::CscMatrix<double>& a,
                      std::span<const double> x, std::span<const double> b);

/// Seeded inputs.  `lift_diagonal` adds rel * |a_ii| * u (u uniform in
/// [0, 1)) to every diagonal entry: the values depend on the seed while
/// definiteness and diagonal dominance only grow.
void lift_diagonal(spx::CscMatrix<double>& a, spx::Rng& rng, double rel);
std::vector<double> random_vector(std::size_t n, spx::Rng& rng);
/// Seeded permutation of 0..n-1.
std::vector<int> shuffled(int n, spx::Rng& rng);

/// Backward-error ceiling every checked answer must meet.
inline constexpr double kMaxBackwardError = 1e-10;

/// Fills the host part of the run record (CPU model, LLC, nproc).
void record_host(Report& r);

Report run_factorize(const Args& args);
Report run_solve(const Args& args);
Report run_serve(const Args& args);

}  // namespace perfbench
