// Tests for the factor-persistence layer (src/persist/) and the warm
// paths built on it: snapshot encode/decode round-trips for all three
// factorization kinds, corruption/version-skew rejection, the async
// rate-limited FactorStore, AnalysisCache::insert +
// SolveService::adopt_factor, and the ShardServer end-to-end story --
// factorize, restart against the same persist dir, get served warm
// without the service running a single factorization.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "mat/generators.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/shard_server.hpp"
#include "persist/factor_store.hpp"
#include "persist/snapshot.hpp"
#include "service/solve_service.hpp"

namespace spx {
namespace {

namespace fs = std::filesystem;

fs::path unique_dir(const std::string& tag) {
  static std::atomic<int> seq{0};
  fs::path p = fs::temp_directory_path() /
               ("spx_persist_" + tag + "_" + std::to_string(::getpid()) +
                "_" + std::to_string(seq++));
  fs::create_directories(p);
  return p;
}

persist::FactorSnapshot snapshot_of(const CscMatrix<real_t>& a,
                                    Factorization kind,
                                    std::uint64_t factor_id = 7) {
  Solver<real_t> solver;
  solver.analyze(a);
  solver.factorize(a, kind);
  const FactorData<real_t>& fd = solver.factor_data();
  persist::FactorSnapshot snap;
  snap.pattern_digest = solver.pattern_digest();
  snap.value_hash = persist::value_hash(a.values());
  snap.kind = kind;
  snap.factor_id = factor_id;
  snap.analysis = solver.analysis_shared();
  snap.quality = fd.quality();
  snap.lval.assign(fd.lvalues().begin(), fd.lvalues().end());
  snap.uval.assign(fd.uvalues().begin(), fd.uvalues().end());
  snap.dval.assign(fd.dvalues().begin(), fd.dvalues().end());
  return snap;
}

/// `snap` with its analysis replaced by a copy that `mutate` edits.
persist::FactorSnapshot with_structure(
    persist::FactorSnapshot snap,
    const std::function<void(SymbolicStructure&)>& mutate) {
  auto an = std::make_shared<Analysis>(*snap.analysis);
  mutate(an->structure);
  snap.analysis = std::move(an);
  return snap;
}

void off_by_one_in_degree(SymbolicStructure& st) { st.in_degree[0] += 1; }

void out_of_range_edge_target(SymbolicStructure& st) {
  for (auto& edges : st.targets) {
    if (!edges.empty()) {
      edges.front().dst = st.num_panels() + 5;
      return;
    }
  }
  FAIL() << "the structure has no update edge to corrupt";
}

std::vector<real_t> rhs_for(const CscMatrix<real_t>& a,
                            const std::vector<real_t>& x) {
  std::vector<real_t> b(static_cast<std::size_t>(a.nrows()));
  a.multiply(x, b);
  return b;
}

// ---- snapshot format ----------------------------------------------------

TEST(SnapshotTest, RoundTripRestoresSolvableFactors) {
  const auto a = gen::grid2d_laplacian(9, 8);
  for (const Factorization kind :
       {Factorization::LLT, Factorization::LDLT, Factorization::LU}) {
    const persist::FactorSnapshot snap = snapshot_of(a, kind);
    const std::vector<std::uint8_t> bytes = persist::encode_snapshot(snap);
    const persist::FactorSnapshot back = persist::decode_snapshot(bytes);

    EXPECT_EQ(back.pattern_digest, snap.pattern_digest);
    EXPECT_EQ(back.value_hash, snap.value_hash);
    EXPECT_EQ(back.kind, kind);
    EXPECT_EQ(back.factor_id, snap.factor_id);
    ASSERT_EQ(back.lval, snap.lval);  // bit-exact value round trip
    ASSERT_EQ(back.uval, snap.uval);
    ASSERT_EQ(back.dval, snap.dval);

    // The restored factors must actually solve.
    Solver<real_t> warm;
    warm.adopt_analysis(back.analysis, back.pattern_digest);
    warm.restore_factors(back.kind, back.lval, back.uval, back.dval,
                         back.quality);
    EXPECT_TRUE(warm.factorized());
    const std::vector<real_t> x_true(static_cast<std::size_t>(a.nrows()),
                                     1.5);
    std::vector<real_t> x = rhs_for(a, x_true);
    warm.solve(x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_NEAR(x[i], x_true[i], 1e-8) << "kind " << to_string(kind);
    }
  }
}

TEST(SnapshotTest, RejectsCorruptionTruncationAndVersionSkew) {
  const auto a = gen::grid2d_laplacian(6, 6);
  const std::vector<std::uint8_t> good =
      persist::encode_snapshot(snapshot_of(a, Factorization::LLT));
  ASSERT_NO_THROW(persist::decode_snapshot(good));

  auto expect_reject = [](std::vector<std::uint8_t> bytes) {
    EXPECT_THROW(persist::decode_snapshot(bytes), persist::SnapshotError);
  };
  // Bad magic.
  {
    auto b = good;
    b[0] ^= 0xff;
    expect_reject(std::move(b));
  }
  // Version skew must reject, not misparse.
  {
    auto b = good;
    b[4] += 1;
    expect_reject(std::move(b));
  }
  // Truncation anywhere.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, good.size() / 2, good.size() - 1}) {
    auto b = good;
    b.resize(keep);
    expect_reject(std::move(b));
  }
  // A single flipped body bit fails the CRC.
  {
    auto b = good;
    b[persist::kSnapshotHeaderBytes + b.size() / 2] ^= 0x01;
    expect_reject(std::move(b));
  }
  // A flipped CRC byte likewise.
  {
    auto b = good;
    b[16] ^= 0x01;
    expect_reject(std::move(b));
  }
}

TEST(SnapshotTest, InconsistentStructureRaisesSnapshotError) {
  // A valid CRC over an inconsistent structure, as a buggy producer would
  // write it: decoding rejects it instead of aborting the process.
  const auto a = gen::grid2d_laplacian(8, 8);
  const persist::FactorSnapshot good = snapshot_of(a, Factorization::LLT);
  for (const auto mutate : {off_by_one_in_degree, out_of_range_edge_target}) {
    const std::vector<std::uint8_t> bytes =
        persist::encode_snapshot(with_structure(good, mutate));
    EXPECT_THROW(persist::decode_snapshot(bytes), persist::SnapshotError);
  }
}

TEST(SnapshotTest, ValueHashDistinguishesValueChanges) {
  auto a = gen::grid2d_laplacian(5, 5);
  const std::uint64_t h1 = persist::value_hash(a.values());
  auto b = a;
  b.values_mut()[3] += 1e-9;
  EXPECT_NE(h1, persist::value_hash(b.values()));
  EXPECT_EQ(h1, persist::value_hash(a.values()));
}

// ---- FactorStore --------------------------------------------------------

TEST(FactorStoreTest, WritesAtomicallyLoadsBackAndRateLimits) {
  const fs::path dir = unique_dir("store");
  const auto a = gen::grid2d_laplacian(7, 7);
  const persist::FactorSnapshot snap = snapshot_of(a, Factorization::LLT, 3);
  {
    persist::FactorStoreOptions o;
    o.dir = dir.string();
    o.min_interval_s = 60.0;
    persist::FactorStore store(o);
    EXPECT_TRUE(store.save(snap));
    EXPECT_FALSE(store.save(snap));  // inside the rate-limit window
    store.flush();
    EXPECT_EQ(store.writes(), 1u);
    EXPECT_EQ(store.rate_limited(), 1u);
    EXPECT_EQ(store.write_errors(), 0u);
    // The write is atomic: no .tmp sibling survives.
    for (const auto& e : fs::directory_iterator(dir)) {
      EXPECT_NE(e.path().extension(), ".tmp");
    }
  }
  // A corrupt sibling must be skipped, not fatal.
  {
    std::ofstream bad(dir / "deadbeefdeadbeef-llt.spxsnap",
                      std::ios::binary);
    bad << "this is not a snapshot";
  }
  persist::FactorStoreOptions o2;
  o2.dir = dir.string();
  persist::FactorStore store2(o2);
  const auto loaded = store2.load_all();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].snap.pattern_digest, snap.pattern_digest);
  EXPECT_EQ(loaded[0].snap.factor_id, 3u);
  EXPECT_EQ(loaded[0].snap.lval, snap.lval);
  fs::remove_all(dir);
}

// ---- service warm APIs --------------------------------------------------

TEST(ServiceWarmTest, AdoptFactorServesSolvesAndSeedsAnalysisCache) {
  const auto a = gen::grid2d_laplacian(8, 8);
  const persist::FactorSnapshot snap = snapshot_of(a, Factorization::LLT);

  service::SolveService svc;
  Solver<real_t> warm(svc.options().solver);
  warm.adopt_analysis(snap.analysis, snap.pattern_digest);
  warm.restore_factors(snap.kind, snap.lval, snap.uval, snap.dval,
                       snap.quality);
  const service::FactorHandle factor = svc.adopt_factor(std::move(warm));
  ASSERT_NE(factor, nullptr);

  const std::vector<real_t> x_true(static_cast<std::size_t>(a.nrows()), 2.0);
  const auto sr =
      svc.solve("t", factor, rhs_for(a, x_true));
  ASSERT_TRUE(sr.ok()) << sr.error;
  for (std::size_t i = 0; i < sr.x.size(); ++i) {
    ASSERT_NEAR(sr.x[i], x_true[i], 1e-8);
  }

  // The adopted factor seeded the pattern cache: factorizing the same
  // pattern skips the symbolic phase (a hit, not a miss).
  const auto fr = svc.factorize(
      "t", std::make_shared<const CscMatrix<real_t>>(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  EXPECT_EQ(svc.stats().cache.hits, 1u);
  EXPECT_EQ(svc.stats().cache.misses, 0u);
}

// ---- shard end-to-end ---------------------------------------------------

bool wait_for_snapshot(const fs::path& dir, double timeout_s = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".spxsnap") return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(ShardPersistenceTest, RestartServesWarmWithoutRefactorizing) {
  const fs::path dir = unique_dir("shard");
  const auto a = gen::grid2d_laplacian(10, 9);
  net::ShardServerOptions opts;
  opts.name = "p1";
  opts.service.num_workers = 2;
  opts.persist_dir = dir.string();
  opts.persist_interval_s = 0;

  std::uint64_t cold_factor_id = 0;
  {
    net::ShardServer shard(opts);
    net::BlockingClient client;
    client.connect("127.0.0.1", shard.port());
    const auto fr = client.factorize("t", a, Factorization::LLT);
    ASSERT_EQ(fr.status, 0) << fr.error;
    cold_factor_id = fr.factor_id;
    EXPECT_EQ(shard.service_stats().factorizes, 1u);
    ASSERT_TRUE(wait_for_snapshot(dir));
  }

  {
    net::ShardServer shard(opts);  // same dir: replays the snapshot
    EXPECT_EQ(shard.warm_factors(), 1u);
    int status = 0;
    const std::string ready = net::http_get("127.0.0.1", shard.http_port(),
                                            "/readyz", &status);
    EXPECT_EQ(status, 200);
    EXPECT_NE(ready.find("warm=1"), std::string::npos) << ready;

    net::BlockingClient client;
    client.connect("127.0.0.1", shard.port());
    // Identical input: answered from the restored factor, same id, with
    // zero factorizations (and zero submissions) in the fresh service.
    const auto fr = client.factorize("t", a, Factorization::LLT);
    ASSERT_EQ(fr.status, 0) << fr.error;
    EXPECT_EQ(fr.factor_id, cold_factor_id);
    EXPECT_NE(fr.stats_json.find("warm"), std::string::npos);
    EXPECT_EQ(shard.service_stats().factorizes, 0u);
    EXPECT_EQ(shard.service_stats().submitted, 0u);

    // Pre-crash factor ids keep solving after the restart.
    const std::vector<real_t> x_true(static_cast<std::size_t>(a.nrows()),
                                     3.0);
    const auto sr = client.solve("t", pattern_digest(a), cold_factor_id,
                                 rhs_for(a, x_true));
    ASSERT_EQ(sr.status, 0) << sr.error;
    for (std::size_t i = 0; i < sr.x.size(); ++i) {
      ASSERT_NEAR(sr.x[i], x_true[i], 1e-8);
    }
    // Different values, same pattern: NOT warm-servable, but the seeded
    // analysis cache still makes it a symbolic hit.
    auto a2 = a;
    a2.values_mut()[0] += 0.5;
    const auto fr2 = client.factorize("t", a2, Factorization::LLT);
    ASSERT_EQ(fr2.status, 0) << fr2.error;
    EXPECT_NE(fr2.factor_id, cold_factor_id);
    EXPECT_EQ(shard.service_stats().factorizes, 1u);
    EXPECT_GE(shard.service_stats().cache.hits, 1u);
  }
  fs::remove_all(dir);
}

TEST(ShardPersistenceTest, CorruptSnapshotMeansColdStartNotCrash) {
  const fs::path dir = unique_dir("corrupt");
  const auto a = gen::grid2d_laplacian(8, 8);
  net::ShardServerOptions opts;
  opts.name = "p2";
  opts.service.num_workers = 1;
  opts.persist_dir = dir.string();
  opts.persist_interval_s = 0;
  {
    net::ShardServer shard(opts);
    net::BlockingClient client;
    client.connect("127.0.0.1", shard.port());
    const auto fr = client.factorize("t", a, Factorization::LLT);
    ASSERT_EQ(fr.status, 0) << fr.error;
    ASSERT_TRUE(wait_for_snapshot(dir));
  }
  // Flip one byte in every snapshot file.
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".spxsnap") continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    char c = 0;
    f.seekg(size / 2);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x10);
    f.seekp(size / 2);
    f.write(&c, 1);
  }
  {
    net::ShardServer shard(opts);  // must reject the snapshot and carry on
    EXPECT_EQ(shard.warm_factors(), 0u);
    net::BlockingClient client;
    client.connect("127.0.0.1", shard.port());
    const auto fr = client.factorize("t", a, Factorization::LLT);
    ASSERT_EQ(fr.status, 0) << fr.error;  // recomputed cold
    EXPECT_EQ(shard.service_stats().factorizes, 1u);
  }
  fs::remove_all(dir);
}

TEST(ShardPersistenceTest, InconsistentSnapshotMeansColdStartNotCrash) {
  const fs::path dir = unique_dir("inconsistent");
  const auto a = gen::grid2d_laplacian(8, 8);
  {
    const std::vector<std::uint8_t> bytes = persist::encode_snapshot(
        with_structure(snapshot_of(a, Factorization::LLT),
                       off_by_one_in_degree));
    std::ofstream out(dir / "inconsistent.spxsnap", std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  net::ShardServerOptions opts;
  opts.name = "p3";
  opts.service.num_workers = 1;
  opts.persist_dir = dir.string();
  opts.persist_interval_s = 0;
  {
    net::ShardServer shard(opts);  // logs the rejection, starts cold
    EXPECT_EQ(shard.warm_factors(), 0u);
    net::BlockingClient client;
    client.connect("127.0.0.1", shard.port());
    const auto fr = client.factorize("t", a, Factorization::LLT);
    ASSERT_EQ(fr.status, 0) << fr.error;
    EXPECT_EQ(shard.service_stats().factorizes, 1u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace spx
