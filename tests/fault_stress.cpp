// FaultStress: seed-sweep fault injection against the threaded runtime.
//
// For every (seed, action, scheduler) combination this drives a full
// factorize with one injected fault and asserts the liveness contract:
// the run terminates (no deadlock -- enforced by a watchdog), exactly one
// error surfaces when the fault is fatal, and the solver is left
// re-analyzable (the next factorize on the same solver succeeds).
//
// A second row arms the fault mid-refactorize instead: a torn-down
// numeric-only refresh must publish nothing, so the PREVIOUS factor keeps
// serving -- the contract the wire RefactorizeRequest opcode relies on.
// That row includes AllocFail: the first refactorize allocates the spare
// it factorizes into, and a failed allocation must leave the old factor
// serving too.
//
// Registered in ctest as `FaultStress` running `--smoke` (~a few seconds);
// the full sweep (no flag) is the soak configuration for hunting races.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "mat/generators.hpp"
#include "core/solver.hpp"
#include "runtime/fault_injection.hpp"

namespace {

using namespace spx;

struct Config {
  std::uint64_t seeds = 400;
  int repeat_per_seed = 1;
};

int g_failures = 0;

void check(bool ok, const char* what, std::uint64_t seed, FaultAction a,
           RuntimeKind rt) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL seed=%llu action=%s runtime=%s: %s\n",
               static_cast<unsigned long long>(seed), to_string(a),
               to_string(rt), what);
}

void run_one(const CscMatrix<real_t>& a, std::uint64_t seed,
             FaultAction action, RuntimeKind rt, std::uint64_t ntasks) {
  FaultInjector fault(FaultPlan::seeded(action, seed, ntasks, 0.001));
  SolverOptions opts;
  opts.runtime = rt;
  opts.num_threads = 4;
  opts.instr.fault = &fault;
  if (action == FaultAction::StallTransfer) {
    // Transfer stalls need transfers: run with an emulated device and a
    // zero offload floor so staging traffic definitely exists.
    EngineSpec spec;
    spec.bandwidth_gbps = 200.0;
    spec.latency_seconds = 0.0;
    opts.hetero.devices = {spec};
    opts.starpu.gpu_min_flops = 0;
    opts.parsec.gpu_min_flops = 0;
  }
  Solver<real_t> solver(opts);
  solver.analyze(a);
  bool threw = false;
  try {
    solver.factorize(a, Factorization::LLT);
  } catch (const InjectedFault&) {
    threw = true;
  } catch (const NumericalError&) {
    threw = true;  // corrupt-pivot escalation path
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  if (threw) {
    check(!solver.factorized(), "failed factorize left factors behind",
          seed, action, rt);
  } else {
    check(solver.factorized(), "no-throw run did not produce factors",
          seed, action, rt);
  }
  check(solver.analyzed(), "solver lost its analysis", seed, action, rt);
  // Liveness part 2: the same solver must be usable again (the injector
  // ordinal has moved past the victim, so this attempt runs fault-free).
  try {
    solver.factorize(a, Factorization::LLT);
    std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);
    solver.solve(b);
  } catch (const std::exception& e) {
    check(false, e.what(), seed, action, rt);
  }
}

/// Mid-refactorize fault row.  The seed factorize runs disarmed, the
/// fault is rearmed just before the numeric-only refresh.  With
/// pivot_threshold == 0 every armed action is deterministic: a fault
/// that fires throws (rollback -> the OLD values keep serving), a fault
/// that does not fire or only stalls completes (the NEW values serve).
void run_one_refactorize(const CscMatrix<real_t>& a, std::uint64_t seed,
                         FaultAction action, RuntimeKind rt,
                         std::uint64_t ntasks) {
  FaultInjector fault;  // disarmed through the seed factorize
  SolverOptions opts;
  opts.runtime = rt;
  opts.num_threads = 4;
  opts.pivot_threshold = 0;  // corrupted pivots throw, never perturb
  opts.instr.fault = &fault;
  Solver<real_t> solver(opts);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);

  const auto n = static_cast<std::size_t>(a.ncols());
  const std::vector<real_t> ones(n, 1.0);
  std::vector<real_t> b_old(n), b_new(n);
  a.multiply(ones, b_old);
  std::vector<real_t> doubled(a.values().begin(), a.values().end());
  for (auto& v : doubled) v *= 2.0;
  const CscMatrix<real_t> a2(
      a.nrows(), a.ncols(),
      std::vector<size_type>(a.colptr().begin(), a.colptr().end()),
      std::vector<index_t>(a.rowind().begin(), a.rowind().end()),
      std::move(doubled));
  a2.multiply(ones, b_new);

  fault.rearm(FaultPlan::seeded(action, seed, ntasks, 0.001));
  bool threw = false;
  try {
    solver.refactorize(a2);
  } catch (const InjectedFault&) {
    threw = true;
  } catch (const NumericalError&) {
    threw = true;  // corrupt-pivot under pivot_threshold == 0
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  check(solver.factorized(), "refactorize failure lost the factors", seed,
        action, rt);
  try {
    std::vector<real_t> x = threw ? b_old : b_new;
    solver.solve(x);
    double err = 0;
    for (const real_t v : x) err = std::max(err, std::abs(v - 1.0));
    check(err < 1e-6,
          threw ? "rollback did not keep the previous factor serving"
                : "clean refactorize served wrong values",
          seed, action, rt);
  } catch (const std::exception& e) {
    check(false, e.what(), seed, action, rt);
  }
  // Liveness part 2: the rolled-back solver still takes a later clean
  // refactorize and serves the refreshed values.
  fault.rearm(FaultPlan{});
  try {
    solver.refactorize(a2);
    std::vector<real_t> x = b_new;
    solver.solve(x);
    double err = 0;
    for (const real_t v : x) err = std::max(err, std::abs(v - 1.0));
    check(err < 1e-6, "post-rollback refactorize serves wrong values",
          seed, action, rt);
  } catch (const std::exception& e) {
    check(false, e.what(), seed, action, rt);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) cfg.seeds = 60;
  }
  const auto a = gen::grid2d_laplacian(24, 24);
  const RuntimeKind runtimes[] = {RuntimeKind::Native, RuntimeKind::Starpu,
                                  RuntimeKind::Parsec};
  const FaultAction actions[] = {FaultAction::Throw, FaultAction::Stall,
                                 FaultAction::CorruptPivot,
                                 FaultAction::AllocFail,
                                 FaultAction::StallTransfer};
  // Rough task-count upper bound for victim placement; seeds that land
  // past the actual task count simply never fire (also a valid run).
  const std::uint64_t ntasks = 200;

  // Watchdog: the whole sweep must terminate.  A deadlocked scheduler
  // would otherwise hang ctest; abort loudly instead.
  std::atomic<bool> done{false};
  std::thread watchdog([&done] {
    for (int i = 0; i < 1200; ++i) {  // 120 s ceiling
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (done.load()) return;
    }
    std::fprintf(stderr, "FAIL: fault sweep deadlocked (watchdog)\n");
    std::_Exit(2);
  });

  std::uint64_t runs = 0;
  for (std::uint64_t seed = 0; seed < cfg.seeds; ++seed) {
    for (const FaultAction action : actions) {
      // Rotate schedulers with the seed so the smoke sweep still touches
      // all of them without tripling its runtime.  Hetero staging (the
      // StallTransfer stream) only exists under starpu/parsec.
      RuntimeKind rt = runtimes[seed % 3];
      if (action == FaultAction::StallTransfer && rt == RuntimeKind::Native) {
        rt = runtimes[1 + seed % 2];
      }
      run_one(a, seed, action, rt, ntasks);
      ++runs;
      // The refactorize rollback row: skip the action that cannot fire
      // there (no staging is re-planned).
      if (action != FaultAction::StallTransfer) {
        run_one_refactorize(a, seed, action, runtimes[seed % 3], ntasks);
        ++runs;
      }
    }
  }
  done.store(true);
  watchdog.join();
  std::printf("fault_stress: %llu runs, %d failures\n",
              static_cast<unsigned long long>(runs), g_failures);
  return g_failures == 0 ? 0 : 1;
}
