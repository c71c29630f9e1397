// End-to-end numerical tests of the sequential supernodal factorization:
// every factorization kind, both update-kernel variants, both LDLT
// strategies, all orderings, real and complex scalars.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "core/sequential.hpp"
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

// ---- parametrized sweep over variants and orderings -----------------

struct Config {
  UpdateVariant variant;
  OrderingMethod ordering;
};

/// Prints the fields: gtest's default byte dump of a Config includes its
/// uninitialized padding, so the listed test names changed between runs.
void PrintTo(const Config& c, std::ostream* os) {
  static constexpr const char* kVariants[] = {"TempBuffer", "Direct"};
  static constexpr const char* kOrderings[] = {
      "NestedDissection", "MinimumDegree", "RCM", "Natural"};
  *os << "{" << kVariants[static_cast<int>(c.variant)] << ", "
      << kOrderings[static_cast<int>(c.ordering)] << "}";
}

class FactorConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(FactorConfigs, CholeskyResidualSmall) {
  const Config cfg = GetParam();
  AnalysisOptions opts;
  opts.ordering = cfg.ordering;
  const auto a = gen::grid2d_laplacian(13, 11);
  const double r = solve_residual<real_t>(
      a, Factorization::LLT,
      [&](FactorData<real_t>& f) { factorize_sequential(f, cfg.variant); },
      opts);
  EXPECT_LT(r, kTol);
}

TEST_P(FactorConfigs, LdltResidualSmall) {
  const Config cfg = GetParam();
  AnalysisOptions opts;
  opts.ordering = cfg.ordering;
  Rng rng(37);
  const auto a = gen::random_sym_indefinite(90, 0.06, rng);
  const double r = solve_residual<real_t>(
      a, Factorization::LDLT,
      [&](FactorData<real_t>& f) { factorize_sequential(f, cfg.variant); },
      opts);
  EXPECT_LT(r, kTol);
}

TEST_P(FactorConfigs, LuResidualSmall) {
  const Config cfg = GetParam();
  AnalysisOptions opts;
  opts.ordering = cfg.ordering;
  const auto a = gen::convection_diffusion3d(5, 5, 4, 10.0);
  const double r = solve_residual<real_t>(
      a, Factorization::LU,
      [&](FactorData<real_t>& f) { factorize_sequential(f, cfg.variant); },
      opts);
  EXPECT_LT(r, kTol);
}

// ctest runs the first seven entries by index under the fixed names that
// tests/CMakeLists.txt gives them; keep their order, append new ones.
INSTANTIATE_TEST_SUITE_P(
    VariantsAndOrderings, FactorConfigs,
    ::testing::Values(
        Config{UpdateVariant::TempBuffer, OrderingMethod::NestedDissection},
        Config{UpdateVariant::Direct, OrderingMethod::NestedDissection},
        Config{UpdateVariant::Direct, OrderingMethod::MinimumDegree},
        Config{UpdateVariant::Direct, OrderingMethod::RCM},
        Config{UpdateVariant::TempBuffer, OrderingMethod::MinimumDegree},
        Config{UpdateVariant::TempBuffer, OrderingMethod::RCM},
        Config{UpdateVariant::TempBuffer, OrderingMethod::Natural}));

// Both update variants must produce *identical* factors (same arithmetic,
// different data movement).
TEST(SeqFactor, VariantsProduceIdenticalFactors) {
  const auto a = gen::grid3d_laplacian(5, 5, 5);
  const Analysis an = analyze(a);
  const auto ap = permute_symmetric(a, an.perm);
  FactorData<real_t> f1(an.structure, Factorization::LLT);
  FactorData<real_t> f2(an.structure, Factorization::LLT);
  f1.initialize(ap);
  f2.initialize(ap);
  factorize_sequential(f1, UpdateVariant::TempBuffer);
  factorize_sequential(f2, UpdateVariant::Direct);
  for (index_t p = 0; p < an.structure.num_panels(); ++p) {
    const Panel& panel = an.structure.panels[p];
    const real_t* l1 = f1.panel_l(p);
    const real_t* l2 = f2.panel_l(p);
    for (index_t j = 0; j < panel.width(); ++j) {
      for (index_t i = j; i < panel.nrows; ++i) {  // lower part only
        EXPECT_NEAR(l1[i + static_cast<std::size_t>(j) * panel.nrows],
                    l2[i + static_cast<std::size_t>(j) * panel.nrows],
                    1e-12)
            << "panel " << p;
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
  factorize_sequential(right, UpdateVariant::TempBuffer);
  factorize_sequential_left(left, UpdateVariant::TempBuffer);
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
