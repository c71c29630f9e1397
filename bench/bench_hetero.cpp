// Heterogeneous-execution scaling study on the *real* driver.
//
// Where bench_fig4 reproduces the paper's Figure 4 in virtual time
// (discrete-event simulation of the Mirage node), this bench runs the
// actual threaded driver with emulated accelerator engines: staging
// transfers really move panel bytes through per-device arenas, throttled
// to the configured link bandwidth/latency, while dmda places tasks
// against the live coherence directory.  Two paper axes are reproduced
// in shape:
//
//   * engine scaling (Fig. 4's axis): CPU-only vs CPU + 1..3 engines;
//   * transfer-compute overlap (Fig. 3's stream-overlap argument, §IV):
//     the same runs with prefetch disabled -- every device task then
//     stalls for its own staging, the paper's no-overlap baseline.
//
// The emulated engines compute at host speed (they are host threads), so
// unlike the simulator this bench cannot show a GFlop/s *gain* from
// offload; the placement model instead encodes the paper's CPU/GPU cost
// ratio so dmda offloads every update, and the interesting columns are
// wall-time, transfer volume, and the overlap delta.  The link is
// latency-dominated on purpose (many small panels, paper §II);
// SPX_HETERO_* environment knobs override the engine specs
// (docs/DEVICE_ENGINES.md).
//
// --smoke is the ctest gate: a CPU + 2-engine run must complete with
// nonzero H2D and D2H byte counters in the RunStats JSON, and overlap-on
// must beat overlap-off wall-time (min of --reps runs each).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/analysis.hpp"
#include "core/factor_data.hpp"
#include "mat/generators.hpp"
#include "obs/export.hpp"
#include "runtime/data_directory.hpp"
#include "runtime/device_engine.hpp"
#include "runtime/flop_costs.hpp"
#include "runtime/real_driver.hpp"
#include "runtime/starpu_scheduler.hpp"

using namespace spx;

namespace {

struct Workload {
  CscMatrix<real_t> a;
  Analysis an;
  CscMatrix<real_t> ap;  ///< permuted input, re-initialized per run
};

RunStats run_once(const Workload& w, int threads, int engines, bool overlap,
                  const EngineSpec& spec) {
  const SymbolicStructure& st = w.an.structure;
  FactorData<real_t> f(st, Factorization::LLT);
  f.initialize(w.ap);
  TaskTable table(st, Factorization::LLT);
  // The paper's premise, grafted onto an emulated device: updates run an
  // order of magnitude faster on the accelerator, so dmda offloads them
  // all and the bench exercises the staging machinery at full tilt.
  FlopCosts costs(table, /*cpu_gflops=*/0.05, /*gpu_speedup=*/10.0);
  if (engines == 0) {
    Machine machine(threads);
    StarpuScheduler sched(table, machine, costs);
    return execute_real(sched, machine, f);
  }
  Machine machine(std::max(1, threads - engines), engines, 1);
  DataDirectory directory(st, Factorization::LLT, sizeof(real_t), engines);
  StarpuOptions sopts;
  sopts.gpu_min_flops = 0;
  StarpuScheduler sched(table, machine, costs, sopts, &directory);
  RealDriverOptions dopts;
  HeteroOptions base;
  base.devices.assign(static_cast<std::size_t>(engines), spec);
  dopts.hetero = hetero_from_env(base);
  dopts.hetero.overlap = overlap;  // the ablation axis stays ours
  dopts.hetero.directory = &directory;
  return execute_real(sched, machine, f, dopts);
}

RunStats best_of(int reps, const Workload& w, int threads, int engines,
                 bool overlap, const EngineSpec& spec) {
  RunStats best;
  for (int i = 0; i < reps; ++i) {
    RunStats r = run_once(w, threads, engines, overlap, spec);
    if (i == 0 || r.makespan < best.makespan) best = r;
  }
  return best;
}

int fail(const char* what) {
  std::fprintf(stderr, "bench_hetero: FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = cli.get_flag("smoke");
  const auto n = static_cast<index_t>(cli.get_int("n", smoke ? 10 : 16));
  const int threads = static_cast<int>(cli.get_int("threads", smoke ? 4 : 6));
  const int reps = static_cast<int>(cli.get_int("reps", smoke ? 5 : 3));
  const int max_engines =
      static_cast<int>(cli.get_int("engines", smoke ? 2 : 3));
  EngineSpec spec;
  spec.bandwidth_gbps = cli.get_double("bw-gbps", 4.0);
  spec.latency_seconds = cli.get_double("latency-us", 300.0) * 1e-6;
  spec.memory_bytes = cli.get_double("mem-mb", 256.0) * 1024 * 1024;
  cli.check_unknown();

  Workload w;
  w.a = gen::grid3d_laplacian(n, n, n);
  w.an = analyze(w.a);
  w.ap = permute_symmetric(w.a, w.an.perm);

  std::printf(
      "bench_hetero: grid3d(%d^3), %d threads, emulated link %.1f GB/s + "
      "%.0f us latency (real driver, starpu-dmda, all updates offloaded)\n",
      static_cast<int>(n), threads, spec.bandwidth_gbps,
      spec.latency_seconds * 1e6);
  std::printf("%-14s | %9s %9s %7s | %9s %8s %6s %8s\n", "config",
              "off [s]", "on [s]", "gain", "H2D MB", "D2H MB", "evict",
              "stall[s]");

  RunStats smoke_on, smoke_off;
  for (int e = 0; e <= max_engines; ++e) {
    const RunStats off = best_of(reps, w, threads, e, false, spec);
    const RunStats on =
        e == 0 ? off : best_of(reps, w, threads, e, true, spec);
    char name[32];
    std::snprintf(name, sizeof name, e == 0 ? "cpu-only" : "cpu + %d eng",
                  e);
    std::printf("%-14s | %9.4f %9.4f %6.1f%% | %9.2f %8.2f %6lld %8.4f\n",
                name, off.makespan, on.makespan,
                e == 0 ? 0.0 : 100.0 * (1.0 - on.makespan / off.makespan),
                on.bytes_h2d / 1e6, on.bytes_d2h / 1e6,
                static_cast<long long>(on.gpu_evictions),
                on.contention.total_stage_wait());
    if (e == 2) {
      smoke_on = on;
      smoke_off = off;
    }
  }

  if (!smoke) return 0;

  // ---- ctest gate ------------------------------------------------------
  if (max_engines < 2) return fail("--smoke needs --engines >= 2");
  const std::string j = obs::to_json(smoke_on).dump();
  if (j.find("\"bytes_h2d\"") == std::string::npos ||
      j.find("\"bytes_d2h\"") == std::string::npos) {
    return fail("RunStats JSON lacks transfer-byte keys");
  }
  if (!(smoke_on.bytes_h2d > 0)) return fail("no H2D traffic");
  if (!(smoke_on.bytes_d2h > 0)) return fail("no D2H traffic");
  if (!(smoke_on.tasks_gpu > 0)) return fail("nothing offloaded");
  if (!(smoke_on.makespan < smoke_off.makespan)) {
    std::fprintf(stderr, "overlap on %.4fs vs off %.4fs\n",
                 smoke_on.makespan, smoke_off.makespan);
    return fail("transfer-compute overlap did not help");
  }
  std::printf("smoke: OK (overlap %.4fs < no-overlap %.4fs, %.1f MB H2D, "
              "%.1f MB D2H)\n",
              smoke_on.makespan, smoke_off.makespan,
              smoke_on.bytes_h2d / 1e6, smoke_on.bytes_d2h / 1e6);
  return 0;
}
