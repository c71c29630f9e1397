// Property / randomized sweeps across the whole stack:
//   * end-to-end solves on random matrices, many seeds, every kind;
//   * the row-segment maps against the row_position oracle;
//   * implicit dependency inference against a brute-force sequential-
//     consistency oracle on random access streams;
//   * symbolic-structure invariants on randomized patterns;
//   * scheduler completion under randomized popping order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/sequential.hpp"
#include "kernels/scatter.hpp"
#include "mat/generators.hpp"
#include "persist/snapshot.hpp"
#include "runtime/access_deps.hpp"
#include "runtime/flop_costs.hpp"
#include "runtime/parsec_scheduler.hpp"
#include "service/analysis_cache.hpp"
#include "test_support.hpp"

namespace spx {
namespace {

// ---- end-to-end solves over random matrices ----------------------------

class RandomSolves : public ::testing::TestWithParam<int> {};

TEST_P(RandomSolves, SpdCholesky) {
  Rng rng(1000 + GetParam());
  const index_t n = 40 + static_cast<index_t>(rng.next_below(120));
  const double density = rng.uniform(0.02, 0.15);
  const auto a = gen::random_spd(n, density, rng);
  EXPECT_LT(test::solve_residual<real_t>(
                a, Factorization::LLT,
                [](FactorData<real_t>& f) { factorize_sequential(f); }),
            1e-9);
}

TEST_P(RandomSolves, IndefiniteLdlt) {
  Rng rng(2000 + GetParam());
  const index_t n = 40 + static_cast<index_t>(rng.next_below(120));
  const auto a = gen::random_sym_indefinite(n, rng.uniform(0.02, 0.12), rng);
  EXPECT_LT(test::solve_residual<real_t>(
                a, Factorization::LDLT,
                [](FactorData<real_t>& f) { factorize_sequential(f); }),
            1e-8);
}

TEST_P(RandomSolves, UnsymmetricLu) {
  Rng rng(3000 + GetParam());
  const index_t n = 40 + static_cast<index_t>(rng.next_below(120));
  const auto a = gen::random_unsym(n, rng.uniform(0.02, 0.12), rng);
  EXPECT_LT(test::solve_residual<real_t>(
                a, Factorization::LU,
                [](FactorData<real_t>& f) { factorize_sequential(f); }),
            1e-8);
}

TEST_P(RandomSolves, ComplexSymmetricLdlt) {
  Rng rng(4000 + GetParam());
  const index_t n = 30 + static_cast<index_t>(rng.next_below(80));
  const auto a = gen::random_complex_sym(n, rng.uniform(0.03, 0.12), rng);
  EXPECT_LT(test::solve_residual<complex_t>(
                a, Factorization::LDLT,
                [](FactorData<complex_t>& f) { factorize_sequential(f); }),
            1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSolves, ::testing::Range(0, 8));

// ---- row-segment maps vs the row_position oracle ------------------------

TEST(SegmentProperty, EveryTrailingRowMapsCorrectly) {
  Rng rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    const auto a =
        gen::random_spd(80 + 20 * trial, 0.05 + 0.01 * trial, rng);
    const Analysis an = analyze(a);
    const SymbolicStructure& st = an.structure;
    FactorData<real_t> f(st, Factorization::LLT);
    for (index_t p = 0; p < st.num_panels(); ++p) {
      const Panel& sp = st.panels[p];
      for (const UpdateEdge& e : st.targets[p]) {
        const Panel& dp = st.panels[e.dst];
        for (index_t b = e.first_block; b < e.last_block; ++b) {
          const index_t off = sp.blocks[b].offset;
          const auto segs = kernels::build_row_segments(sp, off, dp);
          // Coverage: segments tile [off, nrows) exactly, in order.
          index_t covered = 0;
          for (const auto& s : segs) {
            EXPECT_EQ(s.src_offset, covered);
            covered += s.len;
          }
          EXPECT_EQ(covered, sp.nrows - off);
          // Mapping: each source row lands where row_position says.
          for (const auto& s : segs) {
            for (index_t r = 0; r < s.len; ++r) {
              // global row of source storage row off + src_offset + r:
              const index_t srow = off + s.src_offset + r;
              index_t grow = -1;
              for (const Block& blk : sp.blocks) {
                if (srow >= blk.offset &&
                    srow < blk.offset + blk.height()) {
                  grow = blk.row_begin + (srow - blk.offset);
                  break;
                }
              }
              ASSERT_GE(grow, 0);
              EXPECT_EQ(s.dst_offset + r, f.row_position(e.dst, grow));
            }
          }
        }
        // The stored map is the map from the first facing block, and its
        // tail clipped at the last facing block's end is the LU U side's
        // map.
        const index_t first_off = sp.blocks[e.first_block].offset;
        const index_t last_off =
            e.last_block < static_cast<index_t>(sp.blocks.size())
                ? sp.blocks[e.last_block].offset
                : sp.nrows;
        const std::span<const RowSegment> stored = st.row_map(e);
        EXPECT_TRUE(std::ranges::equal(
            stored, kernels::build_row_segments(sp, first_off, dp)));
        const index_t cut = last_off - first_off;
        std::vector<RowSegment> tail;
        for (const RowSegment& s : stored) {
          if (s.src_offset + s.len <= cut) continue;
          const index_t skip = std::max<index_t>(0, cut - s.src_offset);
          tail.push_back(
              {s.src_offset + skip - cut, s.dst_offset + skip, s.len - skip});
        }
        EXPECT_EQ(tail, kernels::build_row_segments(sp, last_off, dp));
      }
    }
    EXPECT_EQ(sizeof(RowSegment), 12u);

    // A .spxsnap round trip rebuilds identical maps.
    persist::FactorSnapshot snap;
    snap.analysis = std::make_shared<const Analysis>(an);
    snap.lval.assign(static_cast<std::size_t>(st.factor_entries), 0.0);
    const persist::FactorSnapshot back =
        persist::decode_snapshot(persist::encode_snapshot(snap));
    const SymbolicStructure& rst = back.analysis->structure;
    EXPECT_EQ(rst.row_maps, st.row_maps);
    for (index_t p = 0; p < st.num_panels(); ++p) {
      ASSERT_EQ(rst.targets[p].size(), st.targets[p].size());
      for (std::size_t e = 0; e < st.targets[p].size(); ++e) {
        EXPECT_EQ(rst.targets[p][e].map_begin, st.targets[p][e].map_begin);
        EXPECT_EQ(rst.targets[p][e].map_end, st.targets[p][e].map_end);
      }
    }

    // The analysis cache charges exactly the maps' bytes for them (two
    // copies, so every other vector has the same capacity in both).
    const Analysis with = an;
    Analysis without = an;
    std::vector<RowSegment>().swap(without.structure.row_maps);
    EXPECT_GT(with.structure.row_map_bytes(), 0u);
    EXPECT_EQ(service::AnalysisCache::analysis_bytes(with),
              service::AnalysisCache::analysis_bytes(without) +
                  with.structure.row_map_bytes());
  }
}

// ---- implicit deps vs a brute-force oracle -------------------------------

struct OracleAccess {
  index_t task;
  index_t handle;
  AccessMode mode;
};

// Brute force: task j depends on earlier task i iff they touch a common
// handle and the pair is not (Read, Read) and not two members of the same
// commute group with no interleaving non-commute access.
std::set<std::pair<index_t, index_t>> oracle_edges(
    const std::vector<std::vector<Access>>& tasks) {
  std::set<std::pair<index_t, index_t>> edges;
  const auto writes = [](AccessMode m) { return m != AccessMode::Read; };
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    for (const Access& aj : tasks[j]) {
      for (std::size_t i = 0; i < j; ++i) {
        for (const Access& ai : tasks[i]) {
          if (ai.handle != aj.handle) continue;
          if (!writes(ai.mode) && !writes(aj.mode)) continue;
          if (ai.mode == AccessMode::CommuteRW &&
              aj.mode == AccessMode::CommuteRW) {
            // Same open group?  Only if no non-commute access to the
            // handle strictly between i and j.
            bool interleaved = false;
            for (std::size_t k = i + 1; k < j; ++k) {
              for (const Access& ak : tasks[k]) {
                if (ak.handle == ai.handle &&
                    ak.mode != AccessMode::CommuteRW) {
                  interleaved = true;
                }
              }
            }
            if (!interleaved) continue;  // commute: no edge
          }
          edges.insert({i, j});
        }
      }
    }
  }
  return edges;
}

// Transitive closure of a DAG edge set over `n` nodes.
std::set<std::pair<index_t, index_t>> closure(
    const std::set<std::pair<index_t, index_t>>& edges, index_t n) {
  std::vector<std::set<index_t>> reach(n);
  for (index_t j = 0; j < n; ++j) {
    for (const auto& [a, b] : edges) {
      if (b == j) {
        reach[j].insert(a);
        reach[j].insert(reach[a].begin(), reach[a].end());
      }
    }
  }
  std::set<std::pair<index_t, index_t>> out;
  for (index_t j = 0; j < n; ++j) {
    for (const index_t i : reach[j]) out.insert({i, j});
  }
  return out;
}

TEST(ImplicitDepsProperty, MatchesOracleUpToTransitivity) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const index_t nh = 1 + static_cast<index_t>(rng.next_below(3));
    const index_t nt = 4 + static_cast<index_t>(rng.next_below(8));
    std::vector<std::vector<Access>> tasks(nt);
    for (index_t t = 0; t < nt; ++t) {
      const index_t na = 1 + static_cast<index_t>(rng.next_below(2));
      std::set<index_t> used;
      for (index_t a = 0; a < na; ++a) {
        const index_t h = static_cast<index_t>(rng.next_below(nh));
        if (used.count(h)) continue;
        used.insert(h);
        const AccessMode modes[] = {AccessMode::Read, AccessMode::Write,
                                    AccessMode::ReadWrite,
                                    AccessMode::CommuteRW};
        tasks[t].push_back({h, modes[rng.next_below(4)]});
      }
      if (tasks[t].empty()) tasks[t].push_back({0, AccessMode::Read});
    }
    ImplicitDeps deps(nh, nt);
    for (index_t t = 0; t < nt; ++t) deps.submit(t, tasks[t]);
    std::set<std::pair<index_t, index_t>> got;
    for (index_t i = 0; i < nt; ++i) {
      for (const index_t j : deps.successors()[i]) got.insert({i, j});
    }
    // The engine may elide transitively-implied edges and the oracle may
    // list them; compare transitive closures.
    EXPECT_EQ(closure(got, nt), closure(oracle_edges(tasks), nt))
        << "trial " << trial;
  }
}

// ---- randomized scheduler completion -------------------------------------

TEST(SchedulerProperty, RandomPoppingOrderAlwaysCompletes) {
  const Analysis an = analyze(gen::grid2d_laplacian(13, 13));
  TaskTable table(an.structure, Factorization::LLT);
  Machine machine(3);
  FlopCosts costs(table);
  ParsecScheduler sched(table, machine, costs);
  Rng rng(88);
  for (int trial = 0; trial < 5; ++trial) {
    sched.reset();
    std::vector<std::pair<Task, int>> inflight;
    index_t completed = 0;
    while (!sched.finished()) {
      // Randomly either pop from a random resource or complete a random
      // in-flight task.
      const bool pop = inflight.empty() || rng.next_below(2) == 0;
      if (pop) {
        const int r = static_cast<int>(rng.next_below(3));
        Task t;
        if (sched.try_pop(r, &t)) {
          inflight.emplace_back(t, r);
          continue;
        }
      }
      if (!inflight.empty()) {
        const std::size_t k = rng.next_below(inflight.size());
        sched.on_complete(inflight[k].first, inflight[k].second);
        inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(k));
        ++completed;
      }
    }
    EXPECT_EQ(completed, table.num_tasks()) << "trial " << trial;
  }
}

// ---- symbolic invariants on random patterns -------------------------------

TEST(SymbolicProperty, RandomPatternsValidate) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const index_t n = 30 + static_cast<index_t>(rng.next_below(100));
    const auto a = gen::random_spd(n, rng.uniform(0.02, 0.2), rng);
    AnalysisOptions opts;
    opts.symbolic.amalgamation.fill_ratio = rng.uniform(0.0, 0.3);
    opts.symbolic.max_panel_width =
        static_cast<index_t>(8 + rng.next_below(120));
    const Analysis an = analyze(a, opts);
    an.structure.validate();
    // nnz accounting is consistent.
    EXPECT_GE(an.structure.nnz_factor, a.nnz() / 2);
    EXPECT_LE(an.structure.nnz_factor,
              static_cast<size_type>(n) * (n + 1) / 2);
  }
}

}  // namespace
}  // namespace spx
