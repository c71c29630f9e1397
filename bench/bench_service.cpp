// Solve-service throughput bench: quantifies what the serving layer buys.
//
// Three experiments against one host:
//   1. cache     -- sustained factorize+solve round trips on a repeated
//                   pattern, analysis cache on vs off.  The cache removes
//                   the (value-independent) ordering + symbolic phase from
//                   every request after the first; the speedup column is
//                   the headline number (expect >= 2x when analysis
//                   dominates, as it does for 2D-grid patterns).
//   2. load      -- offered-load sweep: client threads submitting
//                   factorize+solve round trips; reports requests/s and
//                   p50/p99 end-to-end latency per load level.
//   3. overload  -- 4x more in-flight requests than a deliberately tiny
//                   admission queue admits: backpressure must convert the
//                   excess into immediate Rejected results (bounded
//                   memory, no deadlock) while admitted work completes.
//   4. faults    -- factorize traffic with an injected one-shot task fault:
//                   the retry loop must absorb it (attempt 2 succeeds) and
//                   the stats export must account for every retry and
//                   error code.  Reports the retry-induced latency tax.
//   5. timestep  -- the streaming workload the refactorize fast path is
//                   for: one pattern, fresh values every step.  Gates
//                   (hard): numeric-only refactorize sustains >= 2x the
//                   full analyze+factorize throughput; the fp32+refine
//                   policy serves at fp64 accuracy (backward error <=
//                   mixed_tolerance) with the quality-gate fallback to
//                   fp64 demonstrably exercised; and two tenants with
//                   4:1 scheduling weights split a saturated worker
//                   within 10% of 4:1.
//
// --smoke shrinks everything to a ctest-friendly second or two.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "mat/generators.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "runtime/fault_injection.hpp"
#include "service/solve_service.hpp"

using namespace spx;
using service::FactorizeResult;
using service::RequestStatus;
using service::ServiceOptions;
using service::SolveResult;
using service::SolveService;

namespace {

std::shared_ptr<const CscMatrix<real_t>> make_matrix(index_t nx) {
  return std::make_shared<const CscMatrix<real_t>>(
      gen::grid2d_laplacian(nx, nx));
}

struct LoadStats {
  double wall_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies;  ///< seconds, completed requests only

  double throughput() const {
    return wall_s > 0 ? double(completed) / wall_s : 0.0;
  }
  double percentile(double p) const {
    if (latencies.empty()) return 0.0;
    std::vector<double> s = latencies;
    std::sort(s.begin(), s.end());
    const auto i = static_cast<std::size_t>(p * double(s.size() - 1));
    return s[i];
  }
};

/// `clients` threads each push `per_client` factorize+solve round trips
/// through `svc` against the same pattern (distinct tenants).
LoadStats run_clients(SolveService& svc,
                      const std::shared_ptr<const CscMatrix<real_t>>& a,
                      int clients, int per_client) {
  const std::vector<real_t> b(static_cast<std::size_t>(a->ncols()), 1.0);
  std::vector<LoadStats> per_thread(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  Timer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadStats& mine = per_thread[static_cast<std::size_t>(c)];
      const std::string tenant = "client-" + std::to_string(c);
      for (int i = 0; i < per_client; ++i) {
        Timer t;
        const FactorizeResult fr =
            svc.factorize(tenant, a, Factorization::LLT);
        if (fr.status == RequestStatus::Rejected) {
          ++mine.rejected;
          continue;
        }
        if (!fr.ok()) {
          ++mine.failed;
          continue;
        }
        const SolveResult sr = svc.solve(tenant, fr.factor, b);
        if (sr.status == RequestStatus::Rejected) {
          ++mine.rejected;
        } else if (!sr.ok()) {
          ++mine.failed;
        } else {
          ++mine.completed;
          mine.latencies.push_back(t.elapsed());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadStats total;
  total.wall_s = wall.elapsed();
  for (const LoadStats& p : per_thread) {
    total.completed += p.completed;
    total.rejected += p.rejected;
    total.failed += p.failed;
    total.latencies.insert(total.latencies.end(), p.latencies.begin(),
                           p.latencies.end());
  }
  return total;
}

int reconcile_failures = 0;

void reconcile(const char* what, double prom, std::uint64_t legacy) {
  if (prom == static_cast<double>(legacy)) return;
  std::fprintf(stderr, "  metrics mismatch: %s prom=%g legacy=%llu\n", what,
               prom, static_cast<unsigned long long>(legacy));
  ++reconcile_failures;
}

/// `bench_service --metrics`: the observability acceptance gate.
/// Runs an instrumented workload against a private registry + tracer,
/// proves the Prometheus scrape reconciles EXACTLY with the legacy
/// ServiceStats/RunStats counters, prints the snapshot, and measures the
/// full-trace makespan overhead against an obs-disabled pass.
int run_metrics_gate(const std::shared_ptr<const CscMatrix<real_t>>& a,
                     int workers, int requests) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  ServiceOptions opts;
  opts.solver.instr.metrics = &registry;
  opts.solver.instr.tracer = &tracer;
  opts.solver.runtime = RuntimeKind::Native;  // per-task counters/spans
  opts.solver.num_threads = 2;
  opts.num_workers = workers;
  opts.queue_capacity = 4096;
  opts.cache_bytes = 256ull << 20;

  std::printf("--- metrics: Prometheus scrape vs legacy stats ---\n");
  {
    SolveService svc(opts);
    const FactorizeResult fr = svc.factorize("metrics", a,
                                             Factorization::LLT);
    if (!fr.ok()) {
      std::fprintf(stderr, "metrics warmup factorize failed: %s\n",
                   fr.error.c_str());
      return 1;
    }
    // RunStats reconciliation: after exactly one factorize, the driver's
    // per-task counters must equal that run's legacy task counts.
    double tasks_prom = 0;
    for (const auto& fam : registry.snapshot()) {
      if (fam.name != "spx_tasks_executed_total") continue;
      for (const auto& s : fam.series) tasks_prom += s.value;
    }
    reconcile("spx_tasks_executed_total vs RunStats tasks", tasks_prom,
              static_cast<std::uint64_t>(fr.stats.run.tasks_cpu +
                                         fr.stats.run.tasks_gpu));

    const LoadStats load = run_clients(svc, a, workers, requests);
    (void)load;
    const service::ServiceStats st = svc.stats();
    reconcile("spx_service_submitted_total",
              registry.value("spx_service_submitted_total"), st.submitted);
    reconcile("spx_service_completed_total",
              registry.value("spx_service_completed_total"), st.completed);
    reconcile("spx_service_failed_total",
              registry.value("spx_service_failed_total"), st.failed);
    reconcile("spx_service_rejected_total",
              registry.value("spx_service_rejected_total"), st.rejected);
    reconcile("spx_service_cancelled_total",
              registry.value("spx_service_cancelled_total"), st.cancelled);
    reconcile("spx_service_expired_total",
              registry.value("spx_service_expired_total"), st.expired);
    reconcile("spx_service_factorizes_total",
              registry.value("spx_service_factorizes_total"), st.factorizes);
    reconcile("spx_service_solves_total",
              registry.value("spx_service_solves_total"), st.solves);
    reconcile("spx_service_batches_total",
              registry.value("spx_service_batches_total"), st.batches);
    reconcile("spx_service_batched_rhs_total",
              registry.value("spx_service_batched_rhs_total"),
              st.batched_rhs);
    reconcile("spx_service_retries_total",
              registry.value("spx_service_retries_total"), st.retries);
    reconcile("spx_admission_queue_depth",
              registry.value("spx_admission_queue_depth"), st.queue_depth);
    for (std::size_t i = 0; i < service::kErrorCodeCount; ++i) {
      const char* code = to_string(static_cast<service::ErrorCode>(i));
      reconcile(code,
                registry.value("spx_service_errors_total",
                               {{"code", code}}),
                st.errors[i]);
    }
    reconcile("spx_analysis_cache_hits_total",
              registry.value("spx_analysis_cache_hits_total"),
              st.cache.hits);
    reconcile("spx_analysis_cache_misses_total",
              registry.value("spx_analysis_cache_misses_total"),
              st.cache.misses);
    reconcile("spx_analysis_cache_evictions_total",
              registry.value("spx_analysis_cache_evictions_total"),
              st.cache.evictions);
    if (reconcile_failures > 0) {
      std::fprintf(stderr,
                   "metrics gate FAILED: %d series diverge from the legacy "
                   "stats\n",
                   reconcile_failures);
      return 1;
    }
    std::printf("  every scraped series reconciles with ServiceStats/"
                "RunStats (%llu spans traced)\n\n",
                static_cast<unsigned long long>(tracer.total_recorded()));
    std::fputs(obs::prometheus_text(registry).c_str(), stdout);
  }

  // ---- full-trace overhead vs obs disabled ------------------------------
  // Same factorize rounds through the SPX_OBS seam switched on (registry +
  // tracer live) and off; the acceptance gate is < 5% makespan overhead.
  std::printf("\n--- metrics: full-trace overhead ---\n");
  const int rounds = std::max(4, requests / 2);
  double wall_on = 0, wall_off = 0;
  for (const bool on : {true, false}) {
    obs::MetricsRegistry reg;
    obs::Tracer tr;
    ServiceOptions round = opts;
    round.solver.instr.metrics = &reg;
    round.solver.instr.tracer = &tr;
    SolveService svc(round);
    (void)svc.factorize("overhead", a, Factorization::LLT);  // warm cache
    obs::set_enabled(on);
    Timer wall;
    for (int i = 0; i < rounds; ++i) {
      const FactorizeResult fr =
          svc.factorize("overhead", a, Factorization::LLT);
      if (!fr.ok()) {
        obs::set_enabled(true);
        std::fprintf(stderr, "overhead factorize failed: %s\n",
                     fr.error.c_str());
        return 1;
      }
    }
    (on ? wall_on : wall_off) = wall.elapsed();
    obs::set_enabled(true);
  }
  const double overhead =
      wall_off > 0 ? (wall_on - wall_off) / wall_off : 0.0;
  std::printf("  %d rounds: traced %.1fms, disabled %.1fms -> overhead "
              "%+.1f%% %s\n",
              rounds, wall_on * 1e3, wall_off * 1e3, overhead * 100.0,
              overhead < 0.05 ? "(< 5% gate: PASS)"
                              : "(>= 5% on this run/host)");
  return 0;
}

}  // namespace

// ---- --net: multi-process scale-out bench -------------------------------
//
// Forks N spx_shard processes and one spx_front, drives M client threads
// of factorize+solve round trips through the front over TCP, then sends
// SIGTERM to one shard mid-run.  The run passes only if (a) every request
// eventually completes -- retryable bounces (Draining/Overloaded/NoShard/
// UnknownFactor, service-level Rejected) are retried, anything else is a
// lost request -- and (b) the per-shard analysis-cache hit rate scraped
// from /metrics is no worse than a single-process service run of the same
// request mix (routing affinity keeps each pattern's analysis on one
// shard, so sharding must not cost cache hits).

#ifndef SPX_SHARD_BIN
#define SPX_SHARD_BIN "spx_shard"
#endif
#ifndef SPX_FRONT_BIN
#define SPX_FRONT_BIN "spx_front"
#endif

struct ChildProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;
  std::string name;
};

/// fork+exec `bin` with --print-ports; parses "port http_port" from the
/// child's stdout.  Exits the bench on spawn failure.
ChildProc spawn_with_ports(const char* bin, std::string name,
                           std::vector<std::string> args) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  args.insert(args.begin(), bin);
  args.push_back("--print-ports");
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(bin, argv.data());
    std::fprintf(stderr, "execv(%s): %s\n", bin, std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string line;
  char ch;
  while (::read(fds[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
  ::close(fds[0]);
  ChildProc p;
  p.pid = pid;
  p.name = std::move(name);
  if (std::sscanf(line.c_str(), "%hu %hu", &p.port, &p.http_port) != 2) {
    std::fprintf(stderr, "%s did not print its ports (got '%s')\n", bin,
                 line.c_str());
    ::kill(pid, SIGKILL);
    std::exit(1);
  }
  return p;
}

/// Value of `series` (exact name or name{labels} prefix match) in a
/// Prometheus text exposition, summed over matching series; 0 if absent.
double prom_sum(const std::string& text, const std::string& series) {
  double total = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(series, 0) == 0 &&
        (line[series.size()] == ' ' || line[series.size()] == '{')) {
      const std::size_t sp = line.rfind(' ');
      if (sp != std::string::npos) total += std::atof(line.c_str() + sp + 1);
    }
  }
  return total;
}

struct NetClientStats {
  std::uint64_t completed = 0;
  std::uint64_t retried = 0;  ///< retryable bounces absorbed
  std::uint64_t lost = 0;     ///< non-retried failures (must be 0)
  std::vector<double> latencies;
};

/// One client thread: `rounds` factorize+solve round trips cycling over
/// `mats` through the front at `port`.  Retries retryable wire errors and
/// service-level Rejected; re-factorizes on UnknownFactor (the owning
/// shard died and the factor with it).
void net_client_run(std::uint16_t port, const std::string& tenant,
                    const std::vector<std::shared_ptr<
                        const CscMatrix<real_t>>>& mats,
                    int rounds, NetClientStats& out) {
  net::BlockingClient c;
  c.connect("127.0.0.1", port);
  for (int i = 0; i < rounds; ++i) {
    const auto& a = mats[static_cast<std::size_t>(i) % mats.size()];
    const std::uint64_t digest = pattern_digest(*a);
    const std::vector<real_t> b(static_cast<std::size_t>(a->ncols()), 1.0);
    Timer t;
    bool done = false;
    std::uint64_t factor_id = 0;
    for (int attempt = 0; attempt < 200 && !done; ++attempt) {
      try {
        net::NetError err{};
        if (factor_id == 0) {
          const auto fr = c.factorize(tenant, *a, Factorization::LLT, {},
                                      &err);
          if (err != net::NetError{}) {
            if (!net::retryable(err)) {
              ++out.lost;
              break;
            }
            ++out.retried;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
          }
          if (fr.status != 0) {  // Rejected under drain: also retryable
            ++out.retried;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
          }
          factor_id = fr.factor_id;
        }
        const auto sr = c.solve(tenant, digest, factor_id, b, {}, &err);
        if (err == net::NetError::UnknownFactor) {
          factor_id = 0;  // owning shard is gone; re-factorize elsewhere
          ++out.retried;
          continue;
        }
        if (err != net::NetError{}) {
          if (!net::retryable(err)) {
            ++out.lost;
            break;
          }
          ++out.retried;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        if (sr.status != 0) {
          ++out.retried;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        ++out.completed;
        out.latencies.push_back(t.elapsed());
        done = true;
      } catch (const std::exception&) {
        // Connection to the front dropped: reconnect and retry.
        ++out.retried;
        try {
          c.connect("127.0.0.1", port);
        } catch (const std::exception&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
    }
    if (!done && out.lost == 0) ++out.lost;  // retries exhausted
  }
}

int run_net_bench(bool smoke, int shards_n, int clients, int rounds) {
  const int patterns = std::max(2 * shards_n, 4);
  rounds = ((rounds + patterns - 1) / patterns) * patterns;
  std::printf("--- net: %d shards + front, %d clients x %d round trips "
              "over %d patterns ---\n",
              shards_n, clients, rounds, patterns);

  // Spawn the fleet.  Every shard persists its factors so the phase-C
  // supervisor can SIGKILL and restart one warm.
  const std::string persist_root =
      "/tmp/spx_bench_net_" + std::to_string(static_cast<long>(::getpid()));
  std::vector<ChildProc> shards;
  std::vector<std::string> front_args;
  for (int s = 0; s < shards_n; ++s) {
    const std::string name = "s" + std::to_string(s);
    ChildProc p = spawn_with_ports(
        SPX_SHARD_BIN, name,
        {"--name", name, "--workers", "2", "--drain-timeout", "30",
         "--persist-dir", persist_root + "/" + name,
         "--persist-interval", "0"});
    front_args.push_back("--shard");
    front_args.push_back(name + ":127.0.0.1:" + std::to_string(p.port));
    shards.push_back(std::move(p));
  }
  front_args.push_back("--probe-interval");
  front_args.push_back("0.05");
  front_args.push_back("--max-backoff");
  front_args.push_back("0.1");
  front_args.push_back("--breaker-cooldown");
  front_args.push_back("0.2");
  ChildProc front =
      spawn_with_ports(SPX_FRONT_BIN, "front", std::move(front_args));

  auto kill_fleet = [&](int sig) {
    for (ChildProc& p : shards) {
      if (p.pid > 0) ::kill(p.pid, sig);
    }
    if (front.pid > 0) ::kill(front.pid, sig);
  };

  // Wait until the front has probed every shard up.
  bool ready = false;
  for (int i = 0; i < 100 && !ready; ++i) {
    int status = 0;
    try {
      net::http_get("127.0.0.1", front.http_port, "/readyz", &status);
    } catch (const std::exception&) {
    }
    ready = status == 200;
    if (!ready) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!ready) {
    std::fprintf(stderr, "front never became ready\n");
    kill_fleet(SIGKILL);
    return 1;
  }

  // Distinct patterns, several per shard on average.  `rounds` was
  // snapped to a multiple of the pattern count above so every pattern
  // sees the same traffic; under equal traffic the per-shard hit rate is
  // exactly the single-process rate (1 - 1/requests_per_pattern) whenever
  // affinity holds, making the >= gate below sharp instead of
  // luck-dependent.
  std::vector<std::shared_ptr<const CscMatrix<real_t>>> mats;
  const index_t base = smoke ? 10 : 24;
  for (int p = 0; p < patterns; ++p) {
    mats.push_back(std::make_shared<const CscMatrix<real_t>>(
        gen::grid2d_laplacian(base + p, base)));
  }

  // ---- phase A: steady state (cache-affinity measurement) --------------
  std::vector<NetClientStats> stats(static_cast<std::size_t>(clients));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(net_client_run, front.port,
                           "net-" + std::to_string(c), std::cref(mats),
                           rounds, std::ref(stats[static_cast<std::size_t>(
                                       c)]));
    }
    for (auto& t : threads) t.join();
  }

  // Per-shard reuse rate, scraped over TCP.  With persistence on, exact
  // repeats are warm-served from the factor index before they ever reach
  // the service -- reuse that skips the numeric phase too, strictly
  // better than an analysis-cache hit -- so both count against the
  // single-process baseline.
  double worst_rate = 1.0;
  std::uint64_t total_requests = 0;
  for (const ChildProc& p : shards) {
    const std::string text =
        net::http_get("127.0.0.1", p.http_port, "/metrics");
    const double hits = prom_sum(text, "spx_analysis_cache_hits_total");
    const double misses = prom_sum(text, "spx_analysis_cache_misses_total");
    const double warm = prom_sum(text, "spx_shard_warm_hits_total");
    const double submitted = prom_sum(text, "spx_service_submitted_total");
    total_requests += static_cast<std::uint64_t>(submitted + warm);
    const double rate = hits + misses + warm > 0
                            ? (hits + warm) / (hits + misses + warm)
                            : 1.0;
    worst_rate = std::min(worst_rate, rate);
    std::printf("  shard %-4s reuse rate %5.1f%% (cache %g/%g, warm %g), "
                "%g requests\n",
                p.name.c_str(), 100.0 * rate, hits, hits + misses, warm,
                submitted + warm);
  }

  // Single-process baseline: the same request mix against one in-process
  // service.  Each pattern is analyzed once either way, so the sharded
  // per-shard rate must not be lower (affinity keeps repeats local).
  double baseline_rate;
  {
    ServiceOptions opts;
    opts.num_workers = 2;
    SolveService svc(opts);
    for (int c = 0; c < clients; ++c) {
      for (int i = 0; i < rounds; ++i) {
        const auto& a = mats[static_cast<std::size_t>(i) % mats.size()];
        (void)svc.factorize("base-" + std::to_string(c), a,
                            Factorization::LLT);
      }
    }
    const auto cs = svc.stats().cache;
    baseline_rate = cs.hits + cs.misses > 0
                        ? double(cs.hits) / double(cs.hits + cs.misses)
                        : 1.0;
  }
  std::printf("  single-process baseline hit rate %5.1f%%\n",
              100.0 * baseline_rate);

  // ---- phase B: SIGTERM one shard mid-traffic ---------------------------
  std::printf("  draining shard %s mid-run...\n", shards[0].name.c_str());
  std::vector<NetClientStats> kill_stats(
      static_cast<std::size_t>(clients));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(net_client_run, front.port,
                           "kill-" + std::to_string(c), std::cref(mats),
                           rounds,
                           std::ref(kill_stats[static_cast<std::size_t>(
                               c)]));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(smoke ? 30 : 200));
    ::kill(shards[0].pid, SIGTERM);  // graceful drain + exit
    for (auto& t : threads) t.join();
  }
  int shard0_status = -1;
  ::waitpid(shards[0].pid, &shard0_status, 0);
  const bool shard0_clean =
      WIFEXITED(shard0_status) && WEXITSTATUS(shard0_status) == 0;
  shards[0].pid = -1;

  // ---- phase C: SIGKILL the survivor, supervised warm restart ----------
  // No drain this time: -9 mid-traffic.  The supervisor restarts the
  // shard on its old port against its persist dir; the gates below
  // demand zero lost requests and a warm (snapshot-replayed) comeback.
  std::printf("  SIGKILL shard %s mid-run, supervised restart...\n",
              shards[1].name.c_str());
  bool snapshots_on_disk = false;
  for (int i = 0; i < 200 && !snapshots_on_disk; ++i) {
    try {
      const std::string text =
          net::http_get("127.0.0.1", shards[1].http_port, "/metrics");
      snapshots_on_disk =
          prom_sum(text, "spx_shard_snapshots_saved_total") >= 1.0;
    } catch (const std::exception&) {
    }
    if (!snapshots_on_disk) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::vector<NetClientStats> chaos_stats(static_cast<std::size_t>(clients));
  bool restarted_warm = false;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(net_client_run, front.port,
                           "chaos-" + std::to_string(c), std::cref(mats),
                           rounds,
                           std::ref(chaos_stats[static_cast<std::size_t>(
                               c)]));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(smoke ? 30 : 150));
    ::kill(shards[1].pid, SIGKILL);
    ::waitpid(shards[1].pid, nullptr, 0);
    const std::uint16_t old_port = shards[1].port;
    shards[1] = spawn_with_ports(
        SPX_SHARD_BIN, shards[1].name,
        {"--name", shards[1].name, "--workers", "2",
         "--port", std::to_string(old_port),
         "--persist-dir", persist_root + "/" + shards[1].name,
         "--persist-interval", "0"});
    for (auto& t : threads) t.join();
    try {
      int status = 0;
      const std::string ready = net::http_get(
          "127.0.0.1", shards[1].http_port, "/readyz", &status);
      restarted_warm = status == 200 &&
                       ready.find("warm=") != std::string::npos &&
                       ready.find("warm=0") == std::string::npos;
    } catch (const std::exception&) {
    }
  }

  // ---- report + gates ---------------------------------------------------
  NetClientStats total;
  for (const auto& bucket :
       {std::cref(stats), std::cref(kill_stats), std::cref(chaos_stats)}) {
    for (const NetClientStats& s : bucket.get()) {
      total.completed += s.completed;
      total.retried += s.retried;
      total.lost += s.lost;
      total.latencies.insert(total.latencies.end(), s.latencies.begin(),
                             s.latencies.end());
    }
  }
  std::sort(total.latencies.begin(), total.latencies.end());
  const auto pct = [&](double p) {
    return total.latencies.empty()
               ? 0.0
               : total.latencies[static_cast<std::size_t>(
                     p * double(total.latencies.size() - 1))];
  };
  std::printf("  completed %llu (of %llu offered), retried %llu, lost "
              "%llu; p50 %.2fms p99 %.2fms; shard %s exit %s\n",
              static_cast<unsigned long long>(total.completed),
              static_cast<unsigned long long>(3ull *
                                              std::uint64_t(clients) *
                                              std::uint64_t(rounds)),
              static_cast<unsigned long long>(total.retried),
              static_cast<unsigned long long>(total.lost),
              pct(0.5) * 1e3, pct(0.99) * 1e3, shards[0].name.c_str(),
              shard0_clean ? "clean" : "NOT CLEAN");

  kill_fleet(SIGTERM);
  for (ChildProc& p : shards) {
    if (p.pid > 0) ::waitpid(p.pid, nullptr, 0);
  }
  if (front.pid > 0) ::waitpid(front.pid, nullptr, 0);
  std::error_code ec;
  std::filesystem::remove_all(persist_root, ec);

  int rc = 0;
  if (total.lost != 0) {
    std::fprintf(stderr, "FAIL: %llu non-retried request failures\n",
                 static_cast<unsigned long long>(total.lost));
    rc = 1;
  }
  if (total.completed !=
      3ull * std::uint64_t(clients) * std::uint64_t(rounds)) {
    std::fprintf(stderr, "FAIL: not every offered request completed\n");
    rc = 1;
  }
  if (snapshots_on_disk && !restarted_warm) {
    std::fprintf(stderr,
                 "FAIL: SIGKILLed shard had snapshots but restarted cold\n");
    rc = 1;
  }
  if (!shard0_clean) {
    std::fprintf(stderr, "FAIL: drained shard did not exit cleanly\n");
    rc = 1;
  }
  if (worst_rate + 1e-9 < baseline_rate) {
    std::fprintf(stderr,
                 "FAIL: per-shard cache hit rate %.3f below "
                 "single-process %.3f (affinity broken)\n",
                 worst_rate, baseline_rate);
    rc = 1;
  }
  if (total_requests == 0) {
    std::fprintf(stderr, "FAIL: shards report zero submitted requests\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("  OK: zero lost requests, per-shard hit rate >= "
                "single-process, graceful drain clean\n");
  }
  return rc;
}

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = cli.get_flag("smoke");
  const bool metrics = cli.get_flag("metrics");
  const bool net = cli.get_flag("net");
  const auto nx = static_cast<index_t>(cli.get_int("nx", smoke ? 24 : 56));
  const int workers = static_cast<int>(cli.get_int("workers", 4));
  const int requests =
      static_cast<int>(cli.get_int("requests", smoke ? 8 : 40));
  const int net_shards = static_cast<int>(cli.get_int("shards", 2));
  const int net_clients =
      static_cast<int>(cli.get_int("clients", smoke ? 3 : 8));
  const int net_rounds =
      static_cast<int>(cli.get_int("rounds", smoke ? 6 : 24));
  cli.check_unknown();

  if (net) {
    return run_net_bench(smoke, net_shards, net_clients, net_rounds);
  }
  if (metrics) {
    return run_metrics_gate(make_matrix(nx), workers, requests);
  }

  const auto a = make_matrix(nx);
  std::printf("service bench: %dx%d grid (n=%d), %d workers, "
              "%d requests/client%s\n\n",
              nx, nx, a->ncols(), workers, requests, smoke ? " [smoke]" : "");

  // ---- 1. analysis cache on vs off -------------------------------------
  std::printf("--- cache: repeated same-pattern factorize+solve ---\n");
  double thr_on = 0, thr_off = 0;
  for (const bool cache_on : {true, false}) {
    ServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 4096;
    opts.cache_bytes = cache_on ? (256ull << 20) : 0;
    SolveService svc(opts);
    // Warm up once so the cached run's first-request miss is off-clock.
    (void)svc.factorize("warmup", a, Factorization::LLT);
    const LoadStats st = run_clients(svc, a, workers, requests);
    (cache_on ? thr_on : thr_off) = st.throughput();
    const auto cs = svc.stats().cache;
    std::printf("  cache %-3s  %8.1f req/s  p50 %7.2fms  p99 %7.2fms  "
                "(hits %llu, misses %llu)\n",
                cache_on ? "on" : "off", st.throughput(),
                st.percentile(0.5) * 1e3, st.percentile(0.99) * 1e3,
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses));
  }
  std::printf("  speedup from analysis cache: %.2fx %s\n\n",
              thr_off > 0 ? thr_on / thr_off : 0.0,
              thr_on >= 2.0 * thr_off ? "(>= 2x: pattern reuse pays)"
                                      : "(below 2x on this host/size)");

  // ---- 2. offered-load sweep -------------------------------------------
  std::printf("--- load sweep: clients vs %d workers ---\n", workers);
  std::printf("  %7s %10s %10s %10s %9s\n", "clients", "req/s", "p50(ms)",
              "p99(ms)", "rejected");
  for (const int clients : {1, workers, 2 * workers}) {
    ServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 4096;
    SolveService svc(opts);
    (void)svc.factorize("warmup", a, Factorization::LLT);
    const LoadStats st = run_clients(svc, a, clients, requests);
    std::printf("  %7d %10.1f %10.2f %10.2f %9llu\n", clients,
                st.throughput(), st.percentile(0.5) * 1e3,
                st.percentile(0.99) * 1e3,
                static_cast<unsigned long long>(st.rejected));
  }

  // ---- 3. overload: bounded queue under 4x saturation ------------------
  // Per-tenant capacity 2 with every client on ONE tenant: at 4x more
  // concurrent clients than workers, most submissions must bounce as
  // Rejected immediately -- the queue never grows beyond its bound and
  // every ticket resolves.
  std::printf("\n--- overload: 4x saturation against capacity-2 queue ---\n");
  {
    ServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 2;
    SolveService svc(opts);
    const FactorizeResult fr = svc.factorize("shared", a, Factorization::LLT);
    if (!fr.ok()) {
      std::fprintf(stderr, "overload warmup failed: %s\n", fr.error.c_str());
      return 1;
    }
    const int flooders = 4 * workers;
    const std::vector<real_t> b(static_cast<std::size_t>(a->ncols()), 1.0);
    std::atomic<std::uint64_t> done{0}, bounced{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(flooders));
    Timer wall;
    for (int c = 0; c < flooders; ++c) {
      threads.emplace_back([&] {
        for (int i = 0; i < requests; ++i) {
          const SolveResult sr = svc.solve("shared", fr.factor, b);
          if (sr.ok()) {
            done.fetch_add(1);
          } else if (sr.status == RequestStatus::Rejected) {
            bounced.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall_s = wall.elapsed();
    const auto total = static_cast<std::uint64_t>(flooders) *
                       static_cast<std::uint64_t>(requests);
    std::printf("  %llu requests from %d clients in %.2fs: %llu served, "
                "%llu rejected (queue bound held, no deadlock)\n",
                static_cast<unsigned long long>(total), flooders, wall_s,
                static_cast<unsigned long long>(done.load()),
                static_cast<unsigned long long>(bounced.load()));
    if (done.load() + bounced.load() != total) {
      std::fprintf(stderr, "lost requests: %llu != %llu\n",
                   static_cast<unsigned long long>(done.load() +
                                                   bounced.load()),
                   static_cast<unsigned long long>(total));
      return 1;
    }
  }
  // ---- 4. faults: injected task death absorbed by the retry loop ------
  // One-shot Throw faults (injector ordinals are monotonic, so attempt 2
  // of each request runs past the victim fault-free).  Requests go through
  // one at a time so the injector can be re-armed between them; the
  // comparison against an unfaulted pass isolates the retry latency tax.
  std::printf("\n--- faults: one injected task death per factorize ---\n");
  {
    FaultInjector fault;
    ServiceOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 64;
    opts.cache_bytes = 256ull << 20;
    // Task faults fire in the threaded driver, not the sequential path.
    opts.solver.runtime = RuntimeKind::Native;
    opts.solver.num_threads = 2;
    opts.solver.instr.fault = &fault;
    opts.retry_backoff_s = 0.001;
    SolveService svc(opts);
    (void)svc.factorize("faulty", a, Factorization::LLT);  // warm the cache

    double clean_s = 0, faulted_s = 0;
    std::uint64_t absorbed = 0;
    const int rounds = smoke ? 6 : 20;
    for (const bool inject : {false, true}) {
      Timer wall;
      for (int i = 0; i < rounds; ++i) {
        if (inject) {
          fault.rearm(FaultPlan::nth_task(FaultAction::Throw,
                                          static_cast<std::uint64_t>(i) % 7));
        } else {
          fault.rearm(FaultPlan{});
        }
        const FactorizeResult fr =
            svc.factorize("faulty", a, Factorization::LLT);
        if (!fr.ok()) {
          std::fprintf(stderr, "faulted factorize did not recover: %s\n",
                       fr.error.c_str());
          return 1;
        }
        if (inject && fr.stats.attempts > 1) ++absorbed;
      }
      (inject ? faulted_s : clean_s) = wall.elapsed();
    }
    const auto st = svc.stats();
    std::printf("  %d clean rounds %.1fms, %d faulted rounds %.1fms "
                "(retry tax %.2fx)\n",
                rounds, clean_s * 1e3, rounds, faulted_s * 1e3,
                clean_s > 0 ? faulted_s / clean_s : 0.0);
    // errors[] counts terminal outcomes only; a fully absorbed fault shows
    // up in `retries`, not as a terminal injected-fault error.
    std::printf("  faults absorbed by retry: %llu/%d, service retries %llu, "
                "terminal injected-fault errors %llu, health '%s'\n",
                static_cast<unsigned long long>(absorbed), rounds,
                static_cast<unsigned long long>(st.retries),
                static_cast<unsigned long long>(
                    st.error_count(service::ErrorCode::InjectedFault)),
                st.health());
    if (absorbed == 0 || st.retries == 0) {
      std::fprintf(stderr, "no fault was ever injected/retried -- the "
                   "scenario is not exercising the retry path\n");
      return 1;
    }
  }

  // ---- 5. timestep: streaming refactorize + fp32 serving + 4:1 QoS ----
  std::printf("\n--- timestep: one pattern, fresh values every step ---\n");
  {
    const int steps = smoke ? 12 : 60;
    auto with_vals = [&](const std::vector<real_t>& vals) {
      return std::make_shared<const CscMatrix<real_t>>(
          a->nrows(), a->ncols(),
          std::vector<size_type>(a->colptr().begin(), a->colptr().end()),
          std::vector<index_t>(a->rowind().begin(), a->rowind().end()),
          std::vector<real_t>(vals));
    };

    // (a) per-step cost: full analyze+factorize vs numeric-only
    // refactorize on the same drifting operator.
    double full_s = 0, refactor_s = 0;
    {
      ServiceOptions opts;
      opts.num_workers = 1;
      opts.cache_bytes = 0;  // the full path re-analyzes every step
      SolveService svc(opts);
      std::vector<real_t> vals(a->values().begin(), a->values().end());
      Timer wall;
      for (int s = 0; s < steps; ++s) {
        for (auto& v : vals) v *= 1.0001;  // SPD-preserving drift
        const FactorizeResult fr =
            svc.factorize("full", with_vals(vals), Factorization::LLT);
        if (!fr.ok()) {
          std::fprintf(stderr, "full step failed: %s\n", fr.error.c_str());
          return 1;
        }
      }
      full_s = wall.elapsed();
    }
    {
      ServiceOptions opts;
      opts.num_workers = 1;
      SolveService svc(opts);
      const FactorizeResult first =
          svc.factorize("stream", a, Factorization::LLT);
      if (!first.ok()) {
        std::fprintf(stderr, "stream warmup failed: %s\n",
                     first.error.c_str());
        return 1;
      }
      std::vector<real_t> vals(a->values().begin(), a->values().end());
      Timer wall;
      for (int s = 0; s < steps; ++s) {
        for (auto& v : vals) v *= 1.0001;
        const FactorizeResult fr = svc.refactorize(
            "stream", first.factor, std::vector<real_t>(vals));
        if (!fr.ok()) {
          std::fprintf(stderr, "refactorize step failed: %s\n",
                       fr.error.c_str());
          return 1;
        }
      }
      refactor_s = wall.elapsed();
    }
    const double speedup = refactor_s > 0 ? full_s / refactor_s : 0.0;
    std::printf("  %d steps: full %.1fms, refactorize %.1fms -> %.2fx\n",
                steps, full_s * 1e3, refactor_s * 1e3, speedup);
    if (speedup < 2.0) {
      std::fprintf(stderr, "FAIL: refactorize below the 2x gate over full "
                   "analyze+factorize\n");
      return 1;
    }

    // (b) fp32 factorization + iterative refinement serves at fp64
    // accuracy; an operator that overflows float range trips the quality
    // gate and falls back to fp64 transparently.
    {
      ServiceOptions opts;
      opts.num_workers = 1;
      opts.precision = service::PrecisionPolicy::Fp32Refine;
      SolveService svc(opts);
      const FactorizeResult fr = svc.factorize("mp", a, Factorization::LLT);
      if (!fr.ok() || !fr.stats.fp32 ||
          fr.stats.backward_error > opts.mixed_tolerance) {
        std::fprintf(stderr,
                     "FAIL: fp32_refine did not serve at fp64 accuracy "
                     "(fp32=%d backward=%.2e)\n",
                     int(fr.stats.fp32), fr.stats.backward_error);
        return 1;
      }
      std::vector<real_t> ones(static_cast<std::size_t>(a->ncols()), 1.0);
      std::vector<real_t> b(ones.size());
      a->multiply(ones, b);
      const SolveResult sr = svc.solve("mp", fr.factor, b);
      double err = 0;
      for (const real_t v : sr.x) err = std::max(err, std::abs(v - 1.0));
      std::printf("  fp32+refine: backward error %.2e, %d refinement "
                  "sweeps, solve err %.2e (half the factor bytes)\n",
                  fr.stats.backward_error, fr.stats.refine_iterations, err);
      if (!sr.ok() || err > 1e-8) {
        std::fprintf(stderr, "FAIL: fp32-served solve inaccurate\n");
        return 1;
      }
      std::vector<real_t> huge(a->values().begin(), a->values().end());
      for (auto& v : huge) v *= 1e200;  // overflows float: gate must trip
      const FactorizeResult fb =
          svc.factorize("mp", with_vals(huge), Factorization::LLT);
      std::printf("  quality gate: fallback=%d fp32=%d on a float-range "
                  "overflow\n",
                  int(fb.stats.precision_fallback), int(fb.stats.fp32));
      if (!fb.ok() || !fb.stats.precision_fallback || fb.stats.fp32) {
        std::fprintf(stderr, "FAIL: fp64 fallback was not exercised\n");
        return 1;
      }
    }

    // (c) weighted QoS: gold (weight 4) and bronze (weight 1) flood one
    // worker; the completion sequence during saturation must split 4:1.
    {
      ServiceOptions opts;
      opts.num_workers = 1;
      opts.queue_capacity = 4096;
      opts.max_batch = 1;  // one job per pop: completion order IS the schedule
      opts.tenants["gold"].weight = 4.0;
      opts.tenants["bronze"].weight = 1.0;
      SolveService svc(opts);
      const FactorizeResult fg =
          svc.factorize("gold", a, Factorization::LLT);
      const FactorizeResult fb =
          svc.factorize("bronze", a, Factorization::LLT);
      if (!fg.ok() || !fb.ok()) {
        std::fprintf(stderr, "qos warmup failed\n");
        return 1;
      }
      const int per_tenant = smoke ? 200 : 600;
      const std::vector<real_t> b(static_cast<std::size_t>(a->ncols()), 1.0);
      std::vector<service::Ticket<SolveResult>> gold, bronze;
      gold.reserve(static_cast<std::size_t>(per_tenant));
      bronze.reserve(static_cast<std::size_t>(per_tenant));
      for (int i = 0; i < per_tenant; ++i) {
        gold.push_back(svc.submit_solve(
            service::RequestOptions{.tenant = "gold"}, fg.factor, b));
        bronze.push_back(svc.submit_solve(
            service::RequestOptions{.tenant = "bronze"}, fb.factor, b));
      }
      // (tenant, completion ordinal) pairs, schedule order.
      std::vector<std::pair<std::uint64_t, bool>> seq;  // (seq, is_gold)
      for (auto& t : gold) {
        const SolveResult r = t.get();
        if (r.ok()) seq.emplace_back(r.stats.completion_seq, true);
      }
      for (auto& t : bronze) {
        const SolveResult r = t.get();
        if (r.ok()) seq.emplace_back(r.stats.completion_seq, false);
      }
      std::sort(seq.begin(), seq.end());
      // Saturation holds until gold drains at pop ~1.25*per_tenant; skip
      // the submission-time transient and measure the middle window.
      const std::size_t lo = static_cast<std::size_t>(per_tenant) / 5;
      const std::size_t hi = static_cast<std::size_t>(per_tenant);
      std::size_t gold_n = 0, window = 0;
      for (std::size_t i = lo; i < hi && i < seq.size(); ++i) {
        gold_n += seq[i].second ? 1u : 0u;
        ++window;
      }
      const double share = window > 0 ? double(gold_n) / double(window) : 0;
      const auto tstats = svc.stats().tenants;
      std::printf("  qos: gold share %.1f%% over %zu saturated pops "
                  "(target 80%%); served gold=%llu bronze=%llu\n",
                  100.0 * share, window,
                  static_cast<unsigned long long>(
                      tstats.at("gold").completed),
                  static_cast<unsigned long long>(
                      tstats.at("bronze").completed));
      if (share < 0.72 || share > 0.88) {
        std::fprintf(stderr, "FAIL: 4:1 weighted shares off by more than "
                     "10%% under saturation\n");
        return 1;
      }
    }
  }
  return 0;
}
