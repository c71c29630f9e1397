// End-to-end numerical tests of the sequential supernodal factorization:
// every factorization kind, all orderings, default and narrow panels,
// real and complex scalars.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "core/sequential.hpp"
#include "kernels/dispatch.hpp"
#include "mat/generators.hpp"
#include "mat/triplets.hpp"
#include "test_support.hpp"

namespace spx {
namespace {

using test::solve_residual;

constexpr double kTol = 1e-9;

TEST(SeqFactor, CholeskyGrid2d) {
  const auto a = gen::grid2d_laplacian(15, 15);
  const double r = solve_residual<real_t>(
      a, Factorization::LLT,
      [](FactorData<real_t>& f) { factorize_sequential(f); });
  EXPECT_LT(r, kTol);
}

TEST(SeqFactor, CholeskyGrid3d) {
  const auto a = gen::grid3d_laplacian(7, 7, 7);
  const double r = solve_residual<real_t>(
      a, Factorization::LLT,
      [](FactorData<real_t>& f) { factorize_sequential(f); });
  EXPECT_LT(r, kTol);
}

TEST(SeqFactor, CholeskyElasticity) {
  const auto a = gen::elasticity3d(5, 5, 5);
  const double r = solve_residual<real_t>(
      a, Factorization::LLT,
      [](FactorData<real_t>& f) { factorize_sequential(f); });
  EXPECT_LT(r, kTol);
}

TEST(SeqFactor, LdltRealIndefinite) {
  Rng rng(31);
  const auto a = gen::random_sym_indefinite(120, 0.05, rng);
  const double r = solve_residual<real_t>(
      a, Factorization::LDLT,
      [](FactorData<real_t>& f) { factorize_sequential(f); });
  EXPECT_LT(r, kTol);
}

TEST(SeqFactor, LdltComplexSymmetricHelmholtz) {
  const auto a = gen::helmholtz3d(6, 6, 6);
  const double r = solve_residual<complex_t>(
      a, Factorization::LDLT,
      [](FactorData<complex_t>& f) { factorize_sequential(f); });
  EXPECT_LT(r, kTol);
}

TEST(SeqFactor, LuRealConvectionDiffusion) {
  const auto a = gen::convection_diffusion3d(6, 6, 6, 20.0);
  const double r = solve_residual<real_t>(
      a, Factorization::LU,
      [](FactorData<real_t>& f) { factorize_sequential(f); });
  EXPECT_LT(r, kTol);
}

TEST(SeqFactor, LuComplexFilter) {
  const auto a = gen::filter3d(5, 5, 5);
  const double r = solve_residual<complex_t>(
      a, Factorization::LU,
      [](FactorData<complex_t>& f) { factorize_sequential(f); });
  EXPECT_LT(r, kTol);
}

TEST(SeqFactor, LuRandomStructurallySymmetric) {
  Rng rng(33);
  const auto a = gen::random_unsym(100, 0.06, rng);
  const double r = solve_residual<real_t>(
      a, Factorization::LU,
      [](FactorData<real_t>& f) { factorize_sequential(f); });
  EXPECT_LT(r, kTol);
}

// ---- parametrized sweep over orderings and panel widths --------------

struct Config {
  OrderingMethod ordering;
  index_t max_panel_width;
};

/// Prints the fields: gtest's default byte dump of a Config includes its
/// uninitialized padding, so the listed test names changed between runs.
void PrintTo(const Config& c, std::ostream* os) {
  static constexpr const char* kOrderings[] = {
      "NestedDissection", "MinimumDegree", "RCM", "Natural"};
  *os << "{" << kOrderings[static_cast<int>(c.ordering)]
      << ", max_panel_width=" << c.max_panel_width << "}";
}

AnalysisOptions config_options(const Config& cfg) {
  AnalysisOptions opts;
  opts.ordering = cfg.ordering;
  opts.symbolic.max_panel_width = cfg.max_panel_width;
  return opts;
}

class FactorConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(FactorConfigs, CholeskyResidualSmall) {
  const auto a = gen::grid2d_laplacian(13, 11);
  const double r = solve_residual<real_t>(
      a, Factorization::LLT,
      [](FactorData<real_t>& f) { factorize_sequential(f); },
      config_options(GetParam()));
  EXPECT_LT(r, kTol);
}

TEST_P(FactorConfigs, LdltResidualSmall) {
  Rng rng(37);
  const auto a = gen::random_sym_indefinite(90, 0.06, rng);
  const double r = solve_residual<real_t>(
      a, Factorization::LDLT,
      [](FactorData<real_t>& f) { factorize_sequential(f); },
      config_options(GetParam()));
  EXPECT_LT(r, kTol);
}

TEST_P(FactorConfigs, LuResidualSmall) {
  const auto a = gen::convection_diffusion3d(5, 5, 4, 10.0);
  const double r = solve_residual<real_t>(
      a, Factorization::LU,
      [](FactorData<real_t>& f) { factorize_sequential(f); },
      config_options(GetParam()));
  EXPECT_LT(r, kTol);
}

// ctest runs the first seven entries by index under the fixed names that
// tests/CMakeLists.txt gives them; keep their order, append new ones.
// Entries 1-3 split panels at 12 columns: more, thinner update edges.
INSTANTIATE_TEST_SUITE_P(
    VariantsAndOrderings, FactorConfigs,
    ::testing::Values(Config{OrderingMethod::NestedDissection, 128},
                      Config{OrderingMethod::NestedDissection, 12},
                      Config{OrderingMethod::MinimumDegree, 12},
                      Config{OrderingMethod::RCM, 12},
                      Config{OrderingMethod::MinimumDegree, 128},
                      Config{OrderingMethod::RCM, 128},
                      Config{OrderingMethod::Natural, 128}));

// The mapped update kernel must reproduce, byte for byte, a whole
// factorization whose updates run the buffered arithmetic (gemm_nt into a
// zeroed buffer, then scatter_sub), for every kind and on every ISA tier.
TEST(SeqFactor, VariantsProduceIdenticalFactors) {
  const auto a = gen::grid3d_laplacian(7, 7, 7);
  const auto lu_a = gen::convection_diffusion3d(6, 6, 6, 20.0);
  for (const kernels::Isa isa : kernels::Dispatch::instance().supported()) {
    SCOPED_TRACE(kernels::to_string(isa));
    kernels::ScopedIsaOverride force(isa);
    ASSERT_TRUE(force.ok());
    for (const Factorization kind :
         {Factorization::LLT, Factorization::LDLT, Factorization::LU}) {
      SCOPED_TRACE(to_string(kind));
      const auto& m = kind == Factorization::LU ? lu_a : a;
      AnalysisOptions opts;
      opts.symbolic.max_panel_width = 24;
      const Analysis an = analyze(m, opts);
      const auto ap = permute_symmetric(m, an.perm);
      FactorData<real_t> mapped(an.structure, kind);
      FactorData<real_t> buffered(an.structure, kind);
      mapped.initialize(ap);
      buffered.initialize(ap);
      factorize_sequential(mapped);
      for (index_t p = 0; p < an.structure.num_panels(); ++p) {
        factor_panel(buffered, p);
        for (const UpdateEdge& e : an.structure.targets[p]) {
          test::buffered_update(buffered, p, e);
        }
      }
      for (index_t p = 0; p < an.structure.num_panels(); ++p) {
        const Panel& panel = an.structure.panels[p];
        const std::size_t size =
            static_cast<std::size_t>(panel.nrows) * panel.width();
        ASSERT_EQ(std::memcmp(mapped.panel_l(p), buffered.panel_l(p),
                              size * sizeof(real_t)),
                  0)
            << "L of panel " << p;
        if (kind == Factorization::LU) {
          ASSERT_EQ(std::memcmp(mapped.panel_u(p), buffered.panel_u(p),
                                size * sizeof(real_t)),
                    0)
              << "U of panel " << p;
        }
      }
    }
  }
}

// Splitting panels must not change the numerical result.
TEST(SeqFactor, SplitWidthsAgree) {
  const auto a = gen::grid3d_laplacian(6, 6, 6);
  for (const index_t width : {0, 8, 32}) {
    AnalysisOptions opts;
    opts.symbolic.max_panel_width = width;
    const double r = solve_residual<real_t>(
        a, Factorization::LLT,
        [](FactorData<real_t>& f) { factorize_sequential(f); }, opts);
    EXPECT_LT(r, kTol) << "width " << width;
  }
}

// Amalgamation (extra explicit zeros) must not change the result either.
TEST(SeqFactor, AmalgamationLevelsAgree) {
  const auto a = gen::grid3d_laplacian(6, 6, 6);
  for (const double fill : {0.0, 0.12, 0.4}) {
    AnalysisOptions opts;
    opts.symbolic.amalgamation.fill_ratio = fill;
    const double r = solve_residual<real_t>(
        a, Factorization::LU,
        [](FactorData<real_t>& f) { factorize_sequential(f); }, opts);
    EXPECT_LT(r, kTol) << "fill " << fill;
  }
}

TEST(SeqFactor, ThrowsOnSingularMatrix) {
  // Exactly singular: a 2x2 block of ones.
  Triplets<real_t> t(4, 4);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add_sym(1, 0, 1.0);
  t.add(2, 2, 1.0);
  t.add(3, 3, 1.0);
  const auto a = t.to_csc();
  const Analysis an = analyze(a);
  const auto ap = permute_symmetric(a, an.perm);
  FactorData<real_t> f(an.structure, Factorization::LLT);
  f.initialize(ap);
  EXPECT_THROW(factorize_sequential(f), NumericalError);
}

TEST(FactorData, RowPositionFindsAllStructureRows) {
  const auto a = gen::grid2d_laplacian(9, 9);
  const Analysis an = analyze(a);
  FactorData<real_t> f(an.structure, Factorization::LLT);
  for (index_t p = 0; p < an.structure.num_panels(); ++p) {
    const Panel& panel = an.structure.panels[p];
    for (const Block& b : panel.blocks) {
      for (index_t r = b.row_begin; r < b.row_end; ++r) {
        EXPECT_EQ(f.row_position(p, r), b.offset + (r - b.row_begin));
      }
    }
  }
}

template <typename T>
void expect_same_bytes(std::span<const T> want, std::span<const T> got,
                       const char* array) {
  ASSERT_EQ(want.size(), got.size()) << array;
  if (want.empty()) return;  // unused array: data() may be null
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size_bytes()), 0)
      << array;
}

/// Assembling `values` (one per stored entry of `a`, cast to T) through
/// the assembly map must fill exactly the bytes initialize() writes from
/// the permuted matrix.
template <typename T, typename S>
void expect_assembly_matches_initialize(const CscMatrix<S>& a,
                                        const Analysis& an,
                                        Factorization kind) {
  const std::vector<T> cast(a.values().begin(), a.values().end());
  const CscMatrix<T> at(
      a.nrows(), a.ncols(),
      std::vector<size_type>(a.colptr().begin(), a.colptr().end()),
      std::vector<index_t>(a.rowind().begin(), a.rowind().end()), cast);
  FactorData<T> want(an.structure, kind);
  want.initialize(permute_symmetric(at, an.perm));
  FactorData<T> got(an.structure, kind);
  got.assemble(
      build_assembly_map(an.structure, an.perm, a.colptr(), a.rowind()),
      a.values());
  expect_same_bytes(want.lvalues(), got.lvalues(), "L");
  expect_same_bytes(want.uvalues(), got.uvalues(), "U");
  expect_same_bytes(want.dvalues(), got.dvalues(), "D");
}

TEST(FactorData, AssemblyMapMatchesInitializeOfThePermutedMatrix) {
  const auto spd = gen::grid3d_laplacian(5, 5, 5);
  const Analysis an_spd = analyze(spd);
  expect_assembly_matches_initialize<real_t>(spd, an_spd, Factorization::LLT);
  expect_assembly_matches_initialize<real32_t>(spd, an_spd,
                                               Factorization::LLT);
  Rng rng(34);
  const auto indef = gen::random_sym_indefinite(90, 0.05, rng);
  const Analysis an_indef = analyze(indef);
  expect_assembly_matches_initialize<real_t>(indef, an_indef,
                                             Factorization::LDLT);
  expect_assembly_matches_initialize<real32_t>(indef, an_indef,
                                               Factorization::LDLT);
  // Unsymmetric values: a U^T slot swapped with its L mirror shows.
  const auto uns = gen::random_unsym(100, 0.06, rng);
  const Analysis an_uns = analyze(uns);
  expect_assembly_matches_initialize<real_t>(uns, an_uns, Factorization::LU);
  expect_assembly_matches_initialize<real32_t>(uns, an_uns,
                                               Factorization::LU);
  const auto cd = gen::convection_diffusion3d(6, 6, 6, 15.0);
  expect_assembly_matches_initialize<real_t>(cd, analyze(cd),
                                             Factorization::LU);
  const auto helm = gen::helmholtz3d(5, 5, 4);
  expect_assembly_matches_initialize<complex_t>(helm, analyze(helm),
                                                Factorization::LDLT);
  const auto filt = gen::filter3d(4, 4, 4);
  expect_assembly_matches_initialize<complex_t>(filt, analyze(filt),
                                                Factorization::LU);

  // A Schur tail: the last grid row stays an unmerged trailing block
  // (made a clique in the analyzed pattern, as SchurComplement does).
  const index_t nx = 9;
  const auto grid = gen::grid2d_laplacian(nx, nx);
  const index_t n = grid.ncols();
  Triplets<real_t> aug(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (const index_t r : grid.col_rows(j)) aug.add(r, j, 1.0);
  }
  for (index_t x = n - nx; x < n; ++x) {
    for (index_t y = x + 1; y < n; ++y) aug.add_sym(x, y, 1.0);
  }
  const Analysis an_tail = analyze_ordered(
      Graph::from_pattern(aug.to_csc()), Ordering::identity(n), {}, nx);
  for (const Factorization kind :
       {Factorization::LLT, Factorization::LDLT, Factorization::LU}) {
    expect_assembly_matches_initialize<real_t>(grid, an_tail, kind);
  }
}

TEST(FactorData, AssembleRejectsAWronglySizedValueSpan) {
  const auto a = gen::grid2d_laplacian(6, 6);
  const Analysis an = analyze(a);
  const AssemblyMap map =
      build_assembly_map(an.structure, an.perm, a.colptr(), a.rowind());
  ASSERT_EQ(map.size(), static_cast<std::size_t>(a.nnz()));
  FactorData<real_t> f(an.structure, Factorization::LU);
  const std::vector<real_t> values(a.values().begin(), a.values().end());
  EXPECT_THROW(f.assemble(map, std::span<const real_t>(values).first(
                                   values.size() - 1)),
               InvalidArgument);
  std::vector<real_t> longer = values;
  longer.push_back(1.0);
  EXPECT_THROW(f.assemble(map, std::span<const real_t>(longer)),
               InvalidArgument);
}

// Larger mixed test: every kind on a moderately big 3D problem.
TEST(SeqFactor, MediumProblemAllKinds) {
  const auto spd = gen::grid3d_laplacian(9, 9, 9);
  EXPECT_LT(solve_residual<real_t>(
                spd, Factorization::LLT,
                [](FactorData<real_t>& f) { factorize_sequential(f); }),
            kTol);
  EXPECT_LT(solve_residual<real_t>(
                spd, Factorization::LDLT,
                [](FactorData<real_t>& f) { factorize_sequential(f); }),
            kTol);
  const auto uns = gen::convection_diffusion3d(8, 8, 8, 15.0);
  EXPECT_LT(solve_residual<real_t>(
                uns, Factorization::LU,
                [](FactorData<real_t>& f) { factorize_sequential(f); }),
            kTol);
}

}  // namespace
}  // namespace spx

// ---- left-looking traversal (paper §III's alternative) -----------------

namespace spx {
namespace {

TEST(LeftLooking, BitIdenticalToRightLooking) {
  const auto a = gen::grid3d_laplacian(6, 6, 6);
  const Analysis an = analyze(a);
  const auto ap = permute_symmetric(a, an.perm);
  FactorData<real_t> right(an.structure, Factorization::LLT);
  FactorData<real_t> left(an.structure, Factorization::LLT);
  right.initialize(ap);
  left.initialize(ap);
  // Right-looking applies the same updates in the same order per target
  // as the left-looking gather; results must match exactly.
  factorize_sequential(right);
  factorize_sequential_left(left);
  for (index_t p = 0; p < an.structure.num_panels(); ++p) {
    const Panel& panel = an.structure.panels[p];
    const real_t* lr = right.panel_l(p);
    const real_t* ll = left.panel_l(p);
    for (index_t j = 0; j < panel.width(); ++j) {
      for (index_t i = j; i < panel.nrows; ++i) {
        EXPECT_EQ(lr[i + (std::size_t)j * panel.nrows],
                  ll[i + (std::size_t)j * panel.nrows])
            << "panel " << p;
      }
    }
  }
}

TEST(LeftLooking, SolvesAllKinds) {
  EXPECT_LT(test::solve_residual<real_t>(
                gen::grid2d_laplacian(12, 12), Factorization::LLT,
                [](FactorData<real_t>& f) { factorize_sequential_left(f); }),
            1e-9);
  Rng rng(55);
  EXPECT_LT(test::solve_residual<real_t>(
                gen::random_sym_indefinite(90, 0.05, rng),
                Factorization::LDLT,
                [](FactorData<real_t>& f) { factorize_sequential_left(f); }),
            1e-9);
  EXPECT_LT(test::solve_residual<complex_t>(
                gen::filter3d(4, 4, 4), Factorization::LU,
                [](FactorData<complex_t>& f) {
                  factorize_sequential_left(f);
                }),
            1e-9);
}

}  // namespace
}  // namespace spx
