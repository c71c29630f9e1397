// Heterogeneous device-engine tests: coherence-directory residency
// transitions, the shared LRU model, end-to-end staged execution with
// eviction and dirty write-back, overlap determinism under transfer-stall
// fault injection, and sim/real scheduler parity (the dmda placement the
// real driver makes with emulated engines must equal the simulator's
// under identical calibrated costs).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/analysis.hpp"
#include "core/solve.hpp"
#include "core/solver.hpp"
#include "mat/generators.hpp"
#include "runtime/data_directory.hpp"
#include "runtime/device_engine.hpp"
#include "runtime/engine_model.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/real_driver.hpp"
#include "runtime/starpu_scheduler.hpp"
#include "sim/cost_model.hpp"
#include "sim/platform.hpp"
#include "sim/sim_driver.hpp"
#include "test_support.hpp"

namespace spx {
namespace {

constexpr double kTol = 1e-9;

// ---------------- DataDirectory residency transitions ------------------

class Residency : public ::testing::Test {
 protected:
  Analysis an = analyze(gen::grid2d_laplacian(6, 6));
  DataDirectory dir{an.structure, Factorization::LLT, 8, 2};
};

TEST_F(Residency, StartsHostValidNothingDirty) {
  for (index_t p = 0; p < an.structure.num_panels(); ++p) {
    EXPECT_TRUE(dir.valid_on(p, DataDirectory::kHost));
    EXPECT_FALSE(dir.valid_on(p, 0));
    EXPECT_FALSE(dir.valid_on(p, 1));
    EXPECT_FALSE(dir.dirty_on(p, DataDirectory::kHost));
    EXPECT_EQ(dir.source_of(p), DataDirectory::kHost);
  }
}

TEST_F(Residency, FetchMakesSharedCopy) {
  EXPECT_GT(dir.bytes_to_fetch(0, 0), 0.0);
  dir.add_copy(0, 0);
  EXPECT_TRUE(dir.valid_on(0, 0));
  EXPECT_TRUE(dir.valid_on(0, DataDirectory::kHost));  // shared, not moved
  EXPECT_DOUBLE_EQ(dir.bytes_to_fetch(0, 0), 0.0);
  EXPECT_FALSE(dir.dirty_on(0, 0));  // a fetch never dirties
}

TEST_F(Residency, DeviceWriteInvalidatesAndDirties) {
  dir.add_copy(0, 0);
  dir.add_copy(0, 1);
  dir.note_write(0, 1);
  EXPECT_FALSE(dir.valid_on(0, DataDirectory::kHost));
  EXPECT_FALSE(dir.valid_on(0, 0));
  EXPECT_TRUE(dir.valid_on(0, 1));
  EXPECT_TRUE(dir.dirty_on(0, 1));
  EXPECT_EQ(dir.source_of(0), 1);
  // The host must now pay a transfer again.
  EXPECT_GT(dir.bytes_to_fetch(0, 0), 0.0);
}

TEST_F(Residency, WritebackCleansAndRestoresHost) {
  dir.add_copy(0, 0);
  dir.note_write(0, 0);
  // D2H write-back: host becomes valid again, device copy is clean but
  // still resident (exactly what EmulatedAcceleratorEngine::stage_d2h
  // records).
  dir.add_copy(0, DataDirectory::kHost);
  dir.mark_clean(0, 0);
  EXPECT_TRUE(dir.valid_on(0, DataDirectory::kHost));
  EXPECT_TRUE(dir.valid_on(0, 0));
  EXPECT_FALSE(dir.dirty_on(0, 0));
  EXPECT_EQ(dir.source_of(0), DataDirectory::kHost);  // host preferred
}

TEST_F(Residency, HostWriteClearsDirtyBits) {
  dir.add_copy(0, 0);
  dir.note_write(0, 0);
  EXPECT_TRUE(dir.dirty_on(0, 0));
  dir.note_write(0, DataDirectory::kHost);  // e.g. a CPU factor task
  EXPECT_TRUE(dir.valid_on(0, DataDirectory::kHost));
  EXPECT_FALSE(dir.valid_on(0, 0));
  EXPECT_FALSE(dir.dirty_on(0, 0));  // stale copy is not written back
}

TEST_F(Residency, EvictionDropsOnlyTheDeviceCopy) {
  dir.add_copy(0, 0);
  dir.drop_copy(0, 0);
  EXPECT_FALSE(dir.valid_on(0, 0));
  EXPECT_TRUE(dir.valid_on(0, DataDirectory::kHost));
}

TEST_F(Residency, ResetRestoresHostOnly) {
  dir.add_copy(0, 0);
  dir.note_write(0, 0);
  dir.reset();
  EXPECT_TRUE(dir.valid_on(0, DataDirectory::kHost));
  EXPECT_FALSE(dir.valid_on(0, 0));
  EXPECT_FALSE(dir.dirty_on(0, 0));
}

// ---------------- DeviceLru (shared sim/real resident-set model) --------

TEST(DeviceLruModel, EvictsLeastRecentUnpinned) {
  DeviceLru lru(100.0);
  lru.insert(1, 40);
  lru.insert(2, 40);
  lru.touch(1);  // 2 is now least recent
  EXPECT_EQ(lru.eviction_victim([](index_t) { return true; }), 2);
  lru.pin(2);
  EXPECT_EQ(lru.eviction_victim([](index_t) { return true; }), 1);
  lru.unpin(2);
  EXPECT_EQ(lru.eviction_victim([](index_t) { return true; }), 2);
  lru.remove(2);
  EXPECT_DOUBLE_EQ(lru.used(), 40.0);
  EXPECT_FALSE(lru.resident(2));
}

TEST(DeviceLruModel, PredicateFiltersVictims) {
  DeviceLru lru(100.0);
  lru.insert(1, 10);
  lru.insert(2, 10);
  EXPECT_EQ(lru.eviction_victim([](index_t p) { return p != 1; }), 2);
  EXPECT_EQ(lru.eviction_victim([](index_t) { return false; }), -1);
}

// ---------------- task_handles (shared handle enumeration) --------------

TEST(TaskHandles, PanelAndUpdateSets) {
  const Analysis an = analyze(gen::grid2d_laplacian(8, 8));
  const SymbolicStructure& st = an.structure;
  EXPECT_EQ(task_handles(st, nullptr, {TaskKind::Panel, 0, -1}),
            (std::vector<index_t>{0}));
  // Find a panel with an update edge and check {src, dst}.
  for (index_t p = 0; p < st.num_panels(); ++p) {
    if (st.targets[p].empty()) continue;
    const index_t dst = st.targets[p][0].dst;
    const auto h = task_handles(st, nullptr, {TaskKind::Update, p, 0});
    ASSERT_EQ(h.size(), 2u);
    EXPECT_EQ(h[0], p);
    EXPECT_EQ(h[1], dst);
    return;
  }
  FAIL() << "no update edges in test structure";
}

// ---------------- env knob parsing --------------------------------------

TEST(HeteroEnv, OverridesBaseOptions) {
  setenv("SPX_HETERO_ENGINES", "2", 1);
  setenv("SPX_HETERO_STREAMS", "3", 1);
  setenv("SPX_HETERO_BW_GBPS", "4.5", 1);
  setenv("SPX_HETERO_LATENCY_US", "50", 1);
  setenv("SPX_HETERO_MEM_MB", "64", 1);
  setenv("SPX_HETERO_OVERLAP", "0", 1);
  const HeteroOptions opts = hetero_from_env();
  unsetenv("SPX_HETERO_ENGINES");
  unsetenv("SPX_HETERO_STREAMS");
  unsetenv("SPX_HETERO_BW_GBPS");
  unsetenv("SPX_HETERO_LATENCY_US");
  unsetenv("SPX_HETERO_MEM_MB");
  unsetenv("SPX_HETERO_OVERLAP");
  ASSERT_EQ(opts.devices.size(), 2u);
  EXPECT_EQ(opts.devices[0].streams, 3);
  EXPECT_DOUBLE_EQ(opts.devices[1].bandwidth_gbps, 4.5);
  EXPECT_DOUBLE_EQ(opts.devices[0].latency_seconds, 50e-6);
  EXPECT_DOUBLE_EQ(opts.devices[1].memory_bytes, 64.0 * 1024 * 1024);
  EXPECT_FALSE(opts.overlap);
  EXPECT_EQ(opts.uniform_streams(), 3);
}

// ---------------- end-to-end staged execution ---------------------------

struct HeteroRun {
  RunStats stats;
  double residual = 0.0;
};

/// A cost model that makes dmda offload even tiny updates: the modeled
/// CPU is absurdly slow and the modeled link free.  Placement inputs
/// only -- the real engines still move real bytes at EngineSpec speed.
sim::PlatformSpec gpu_biased_spec() {
  sim::PlatformSpec spec;
  spec.cpu_peak_gflops = 1e-6;
  spec.pcie_bw = 1e12;
  spec.pcie_latency = 0.0;
  return spec;
}

/// Factorizes grid2d_laplacian(nx, ny) through execute_real with one
/// emulated engine and returns stats + solve residual.
HeteroRun run_hetero(index_t nx, index_t ny, EngineSpec spec, bool overlap,
                     FaultInjector* fault = nullptr,
                     AnalysisOptions aopts = {},
                     sim::PlatformSpec platform = {}) {
  const auto a = gen::grid2d_laplacian(nx, ny);
  HeteroRun out;
  out.residual = test::solve_residual<real_t>(
      a, Factorization::LLT,
      [&](FactorData<real_t>& f) {
        const SymbolicStructure& st = f.structure();
        TaskTable table(st, Factorization::LLT);
        Machine machine(1, 1, 1);
        sim::CostModel model(platform, st, Factorization::LLT, {});
        DataDirectory directory(st, Factorization::LLT, sizeof(real_t), 1);
        StarpuOptions sopts;
        sopts.gpu_min_flops = 0;  // small panels are still offloadable
        StarpuScheduler sched(table, machine, model, sopts, &directory);
        RealDriverOptions dopts;
        dopts.hetero.devices = {spec};
        dopts.hetero.overlap = overlap;
        dopts.hetero.directory = &directory;
        dopts.instr.fault = fault;
        out.stats = execute_real(sched, machine, f, dopts);
      },
      aopts);
  return out;
}

TEST(HeteroExecution, StagesComputesAndWritesBack) {
  EngineSpec spec;
  spec.bandwidth_gbps = 200.0;  // fast link: keep the test quick
  spec.latency_seconds = 0.0;
  const HeteroRun r = run_hetero(16, 16, spec, /*overlap=*/true);
  EXPECT_LT(r.residual, kTol);
  EXPECT_GT(r.stats.bytes_h2d, 0.0);
  EXPECT_GT(r.stats.bytes_d2h, 0.0);
  EXPECT_GT(r.stats.transfers_h2d, 0);
  EXPECT_GT(r.stats.transfers_d2h, 0);
  EXPECT_GT(r.stats.tasks_gpu, 0);
  EXPECT_GT(r.stats.contention.stage_wait.size(), 0u);
}

TEST(HeteroExecution, EvictsUnderMemoryPressure) {
  EngineSpec spec;
  spec.bandwidth_gbps = 200.0;
  spec.latency_seconds = 0.0;
  spec.memory_bytes = 24.0 * 1024;  // a handful of panels at most
  const HeteroRun r = run_hetero(20, 20, spec, /*overlap=*/true);
  EXPECT_LT(r.residual, kTol);
  EXPECT_GT(r.stats.gpu_evictions, 0);
  // Evicted dirty panels must have been written back, re-fetched panels
  // re-transferred: both directions see real traffic.
  EXPECT_GT(r.stats.bytes_h2d, 0.0);
  EXPECT_GT(r.stats.bytes_d2h, 0.0);
}

TEST(HeteroExecution, RunStatsJsonCarriesTransferKeys) {
  EngineSpec spec;
  spec.bandwidth_gbps = 200.0;
  spec.latency_seconds = 0.0;
  const HeteroRun r = run_hetero(12, 12, spec, /*overlap=*/true);
  const std::string j = obs::to_json(r.stats).dump();
  EXPECT_NE(j.find("\"bytes_h2d\""), std::string::npos);
  EXPECT_NE(j.find("\"bytes_d2h\""), std::string::npos);
  EXPECT_NE(j.find("\"transfers_h2d\""), std::string::npos);
  EXPECT_NE(j.find("\"stage_wait_s\""), std::string::npos);
}

// ---------------- overlap determinism under fault injection -------------

/// The serial-chain workload: a tridiagonal matrix under natural ordering
/// has exactly one below-diagonal row per panel, so every panel targets
/// only its successor and the task graph is a strict chain -- one ready
/// task at a time, which pins the dmda enqueue order and makes transfer
/// byte counts run-to-run deterministic.
AnalysisOptions chain_options() {
  AnalysisOptions opts;
  opts.ordering = OrderingMethod::Natural;
  return opts;
}

TEST(HeteroDeterminism, ChainByteCountsStableUnderStallTransfer) {
  EngineSpec spec;
  spec.bandwidth_gbps = 400.0;
  spec.latency_seconds = 0.0;
  const HeteroRun base = run_hetero(48, 1, spec, /*overlap=*/true, nullptr,
                                    chain_options(), gpu_biased_spec());
  EXPECT_LT(base.residual, kTol);
  // The biased model must actually offload: no transfers means the rest
  // of this test would pass vacuously.
  ASSERT_GT(base.stats.bytes_h2d, 0.0);
  ASSERT_GT(base.stats.tasks_gpu, 0);

  const HeteroRun repeat = run_hetero(48, 1, spec, /*overlap=*/true,
                                      nullptr, chain_options(),
                                      gpu_biased_spec());
  EXPECT_DOUBLE_EQ(repeat.stats.bytes_h2d, base.stats.bytes_h2d);
  EXPECT_DOUBLE_EQ(repeat.stats.bytes_d2h, base.stats.bytes_d2h);
  EXPECT_EQ(repeat.stats.transfers_h2d, base.stats.transfers_h2d);
  EXPECT_EQ(repeat.stats.transfers_d2h, base.stats.transfers_d2h);

  // Stalling the nth staging transfer delays it but must change neither
  // correctness nor what moves.
  for (const std::uint64_t victim : {0ull, 3ull}) {
    FaultInjector fault(
        FaultPlan{FaultAction::StallTransfer, victim, 0.005});
    const HeteroRun stalled =
        run_hetero(48, 1, spec, /*overlap=*/true, &fault, chain_options(),
                   gpu_biased_spec());
    EXPECT_LT(stalled.residual, kTol) << "victim " << victim;
    EXPECT_DOUBLE_EQ(stalled.stats.bytes_h2d, base.stats.bytes_h2d);
    EXPECT_DOUBLE_EQ(stalled.stats.bytes_d2h, base.stats.bytes_d2h);
    EXPECT_GT(fault.transfers_started(), victim);
    EXPECT_GE(fault.fired_count(), 1) << "victim " << victim;
  }
}

// ---------------- scheduler parity: real dmda == simulated dmda ---------

TEST(SchedulerParity, RealDmdaMatchesSimulatorOnChain) {
  const auto a = gen::grid2d_laplacian(64, 1);
  const Analysis an = analyze(a, chain_options());
  const SymbolicStructure& st = an.structure;
  ASSERT_GE(st.num_panels(), 3);
  // The parity argument needs the serial chain: verify every panel
  // targets exactly its successor.
  for (index_t p = 0; p + 1 < st.num_panels(); ++p) {
    ASSERT_EQ(st.targets[p].size(), 1u) << "panel " << p;
    ASSERT_EQ(st.targets[p][0].dst, p + 1) << "panel " << p;
  }

  TaskTable table(st, Factorization::LLT);
  Machine machine(1, 1, 1);
  sim::CostModel model(gpu_biased_spec(), st, Factorization::LLT, {});
  StarpuOptions sopts;
  sopts.gpu_min_flops = 0;

  // Simulated run.
  DataDirectory sim_dir(st, Factorization::LLT, sizeof(real_t), 1);
  StarpuScheduler sim_sched(table, machine, model, sopts, &sim_dir);
  sim::SimOptions so;
  so.prefetch = false;
  so.directory = &sim_dir;
  sim::simulate(sim_sched, machine, table, model,
                st.total_flops(Factorization::LLT), so);
  const std::vector<int> sim_placed = sim_sched.dmda_assignment();

  // Real run with one emulated engine; overlap off so neither side
  // prefetches, and an effectively free link so wall-clock noise cannot
  // reorder the (already serial) chain.
  const CscMatrix<real_t> ap = permute_symmetric(a, an.perm);
  FactorData<real_t> f(st, Factorization::LLT);
  f.initialize(ap);
  DataDirectory real_dir(st, Factorization::LLT, sizeof(real_t), 1);
  StarpuScheduler real_sched(table, machine, model, sopts, &real_dir);
  RealDriverOptions dopts;
  EngineSpec spec;
  spec.bandwidth_gbps = 1000.0;
  spec.latency_seconds = 0.0;
  dopts.hetero.devices = {spec};
  dopts.hetero.overlap = false;
  dopts.hetero.directory = &real_dir;
  execute_real(real_sched, machine, f, dopts);
  const std::vector<int> real_placed = real_sched.dmda_assignment();

  ASSERT_EQ(real_placed.size(), sim_placed.size());
  bool any_gpu = false;
  for (std::size_t id = 0; id < sim_placed.size(); ++id) {
    EXPECT_NE(sim_placed[id], -1) << "task " << id << " never placed (sim)";
    EXPECT_EQ(real_placed[id], sim_placed[id]) << "task " << id;
    any_gpu |= sim_placed[id] == 1;  // resource 1 = the GPU stream
  }
  EXPECT_TRUE(any_gpu) << "parity comparison is vacuous without offload";
}

// ---------------- multi-engine run through the Solver facade ------------

TEST(HeteroSolver, TwoEnginesThroughSolverOptions) {
  SolverOptions opts;
  opts.runtime = RuntimeKind::Starpu;
  opts.num_threads = 3;
  EngineSpec spec;
  spec.bandwidth_gbps = 200.0;
  spec.latency_seconds = 0.0;
  opts.hetero.devices = {spec, spec};
  opts.starpu.gpu_min_flops = 0;
  Solver<real_t> solver(opts);
  const auto a = gen::grid2d_laplacian(18, 18);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  const RunStats& stats = solver.last_factorization_stats();
  EXPECT_GT(stats.bytes_h2d, 0.0);
  EXPECT_GT(stats.tasks_gpu, 0);

  Rng rng(7);
  std::vector<real_t> x(a.ncols()), b(a.ncols());
  for (auto& v : x) v = rng.uniform(-1, 1);
  a.multiply(x, b);
  std::vector<real_t> got = b;
  solver.solve(got);
  double err = 0;
  for (index_t i = 0; i < a.ncols(); ++i) {
    err = std::max(err, std::abs(got[i] - x[i]));
  }
  EXPECT_LT(err, kTol);
}

}  // namespace
}  // namespace spx
