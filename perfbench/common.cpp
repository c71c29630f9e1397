#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "obs/export.hpp"

namespace perfbench {

double Series::sum() const {
  double s = 0;
  for (const double v : values) s += v;
  return s;
}

double Series::mean() const {
  return values.empty() ? 0.0 : sum() / static_cast<double>(values.size());
}

namespace {
// Nearest rank: the smallest sample with at least q*n samples at or
// below it.  Samples beyond it are those strictly after it in sort order.
std::size_t rank_of(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n) - 1;
}
}  // namespace

double Series::median() const {
  if (values.empty()) throw BenchError("median of no samples");
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool Series::supports(double q) const {
  if (values.empty()) return false;
  return values.size() - 1 - rank_of(values.size(), q) >= 10;
}

double Series::quantile(double q) const {
  if (!supports(q)) {
    throw BenchError("percentile p" + std::to_string(q * 100) +
                     " needs ten samples beyond it; have " +
                     std::to_string(values.size()));
  }
  std::vector<double> v = values;
  const std::size_t r = rank_of(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(r),
                   v.end());
  return v[r];
}

void Report::concurrency(const std::string& what, int count) {
  record["concurrency." + what] = std::to_string(count);
  if (count > nproc()) {
    throw BenchError(what + " = " + std::to_string(count) +
                     " exceeds nproc = " + std::to_string(nproc()));
  }
}

void Report::latency_figure(const std::string& name, const Series& v,
                            double q) {
  if (v.supports(q)) {
    figure(name, 1e3 * v.quantile(q), "ms", v.count());
  } else {
    refused.push_back({name, 0.0, "ms", v.count()});
  }
}

std::vector<spx::obs::SpanRecord> TraceSink::drain() {
  if (tracer.dropped() > 0) {
    throw BenchError("span ring overflowed: " +
                     std::to_string(tracer.dropped()) + " spans lost");
  }
  std::vector<spx::obs::SpanRecord> spans = tracer.snapshot();
  tracer.clear();
  // Written out at the end; the cap bounds the file, not the sums.
  constexpr std::size_t kKeepCap = std::size_t{1} << 18;
  const std::size_t room = kKeepCap - std::min(kKeepCap, kept.size());
  kept.insert(kept.end(), spans.begin(),
              spans.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(room, spans.size())));
  return spans;
}

void TraceSink::write(const std::string& dir, const std::string& stem) const {
  std::ofstream spans_out(dir + "/" + stem + ".trace.json");
  spx::obs::write_chrome_trace(kept, spans_out);
  std::ofstream metrics_out(dir + "/" + stem + ".metrics.prom");
  spx::obs::write_prometheus(registry, metrics_out);
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// The probe's loops are fixed: the same iteration counts, array sizes and
// arithmetic in every build of the benchmark.
constexpr int kProbeLanes = 16;
constexpr long kProbeFmaIters = 40'000'000;
constexpr std::size_t kProbeStreamDoubles = std::size_t{2} << 20;  // 16 MiB
constexpr int kProbeStreamPasses = 24;

double fma_loop() {
  double acc[kProbeLanes];
  for (int j = 0; j < kProbeLanes; ++j) acc[j] = 1.0 + 1e-3 * j;
  const double m = 0.999999;
  const double a = 1e-7;
  for (long i = 0; i < kProbeFmaIters; ++i) {
    for (int j = 0; j < kProbeLanes; ++j) acc[j] = acc[j] * m + a;
  }
  double s = 0;
  for (const double v : acc) s += v;
  return s;
}

double stream_loop(const std::vector<double>& v) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (int p = 0; p < kProbeStreamPasses; ++p) {
    for (std::size_t i = 0; i + 3 < v.size(); i += 4) {
      s0 += v[i];
      s1 += v[i + 1];
      s2 += v[i + 2];
      s3 += v[i + 3];
    }
  }
  return s0 + s1 + s2 + s3;
}

ProbeResult probe_loops() {
  using Clock = std::chrono::steady_clock;
  const int lanes = nproc();
  std::vector<std::vector<double>> arrays(static_cast<std::size_t>(lanes));
  for (std::size_t t = 0; t < arrays.size(); ++t) {
    arrays[t].assign(kProbeStreamDoubles, 1.0 + static_cast<double>(t));
  }
  std::vector<double> sink(static_cast<std::size_t>(lanes), 0.0);
  auto timed = [&](auto&& body) {
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < lanes; ++t) {
      threads.emplace_back([&, t] { sink[static_cast<std::size_t>(t)] += body(t); });
    }
    for (std::thread& th : threads) th.join();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // One untimed pass first: an idle vCPU takes a moment to reach speed.
  timed([](int) { return fma_loop(); });
  const double fma_s = timed([](int) { return fma_loop(); });
  const double stream_s = timed([&](int t) {
    return stream_loop(arrays[static_cast<std::size_t>(t)]);
  });
  volatile double keep = 0;
  for (const double s : sink) keep = keep + s;
  ProbeResult r;
  r.gflops = 2.0 * kProbeLanes * static_cast<double>(kProbeFmaIters) * lanes /
             fma_s / 1e9;
  r.stream_gbs = static_cast<double>(kProbeStreamDoubles * sizeof(double)) *
                 kProbeStreamPasses * lanes / stream_s / 1e9;
  return r;
}

}  // namespace

ProbeResult host_probe() {
  int fds[2];
  if (pipe(fds) != 0) throw BenchError("host probe: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw BenchError("host probe: fork failed");
  if (pid == 0) {
    close(fds[0]);
    bool sent = false;
    try {
      const ProbeResult r = probe_loops();
      sent = write(fds[1], &r, sizeof r) == sizeof r;
    } catch (...) {
    }
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  ProbeResult r;
  const ssize_t got = read(fds[0], &r, sizeof r);
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  if (got != sizeof r || !reaped || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw BenchError("host probe: child process failed");
  }
  return r;
}

double backward_error(const spx::CscMatrix<double>& a,
                      std::span<const double> x, std::span<const double> b) {
  const auto n = static_cast<std::size_t>(a.nrows());
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> rowsum(n, 0.0);
  const auto colptr = a.colptr();
  const auto rowind = a.rowind();
  const auto vals = a.values();
  for (std::size_t j = 0; j < static_cast<std::size_t>(a.ncols()); ++j) {
    for (auto p = colptr[j]; p < colptr[j + 1]; ++p) {
      const auto i = static_cast<std::size_t>(rowind[p]);
      r[i] -= vals[p] * x[j];
      rowsum[i] += std::abs(vals[p]);
    }
  }
  double rn = 0, an = 0, xn = 0, bn = 0;
  for (std::size_t i = 0; i < n; ++i) {
    rn = std::max(rn, std::abs(r[i]));
    an = std::max(an, rowsum[i]);
    xn = std::max(xn, std::abs(x[i]));
    bn = std::max(bn, std::abs(b[i]));
  }
  const double denom = an * xn + bn;
  if (!std::isfinite(rn) || !std::isfinite(denom)) return INFINITY;
  return denom > 0 ? rn / denom : rn;
}

void lift_diagonal(spx::CscMatrix<double>& a, spx::Rng& rng, double rel) {
  const auto colptr = a.colptr();
  const auto rowind = a.rowind();
  const auto vals = a.values_mut();
  for (std::size_t j = 0; j < static_cast<std::size_t>(a.ncols()); ++j) {
    for (auto p = colptr[j]; p < colptr[j + 1]; ++p) {
      if (static_cast<std::size_t>(rowind[p]) == j) {
        vals[p] += rel * std::abs(vals[p]) * rng.next_double();
      }
    }
  }
}

std::vector<double> random_vector(std::size_t n, spx::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::vector<int> shuffled(int n, spx::Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

// Last-level cache of cpu0: the highest-level unified or data cache.
std::string llc_size() {
  int best_level = 0;
  std::string best_size;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream level_in(base + "level");
    std::ifstream type_in(base + "type");
    std::ifstream size_in(base + "size");
    int level = 0;
    std::string type, size;
    if (!(level_in >> level) || !(type_in >> type) || !(size_in >> size)) {
      continue;
    }
    if (type != "Instruction" && level > best_level) {
      best_level = level;
      best_size = size;
    }
  }
  if (best_level == 0) return "unknown";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "L%d %s", best_level, best_size.c_str());
  return buf;
}

}  // namespace

void record_host(Report& r) {
  r.record["nproc"] = std::to_string(nproc());
  r.record["cpu_model"] = cpu_model();
  r.record["llc"] = llc_size();
}

}  // namespace perfbench
