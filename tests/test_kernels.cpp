#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/dense.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/scatter.hpp"

namespace spx {
namespace {
namespace k = kernels;

template <typename T>
std::vector<T> random_matrix(index_t m, index_t n, Rng& rng) {
  std::vector<T> a(static_cast<std::size_t>(m) * n);
  for (auto& v : a) v = rng.scalar<T>();
  return a;
}

template <typename T>
double max_diff(const std::vector<T>& a, const std::vector<T>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, static_cast<double>(magnitude<T>(a[i] - b[i])));
  }
  return d;
}

using Dims = std::tuple<int, int, int>;

class GemmSizes : public ::testing::TestWithParam<Dims> {};

TEST_P(GemmSizes, OptimizedMatchesReferenceReal) {
  const auto [m, n, kk] = GetParam();
  Rng rng(100 + m + 7 * n + 13 * kk);
  const auto a = random_matrix<real_t>(m, kk, rng);
  const auto b = random_matrix<real_t>(n, kk, rng);
  auto c1 = random_matrix<real_t>(m, n, rng);
  auto c2 = c1;
  k::gemm_nt<real_t>(m, n, kk, -1.0, a.data(), m, b.data(), n, 1.0,
                     c1.data(), m);
  k::gemm_nt_ref<real_t>(m, n, kk, -1.0, a.data(), m, b.data(), n, 1.0,
                         c2.data(), m);
  EXPECT_LT(max_diff(c1, c2), 1e-12 * std::max(1, kk));
}

TEST_P(GemmSizes, OptimizedMatchesReferenceComplex) {
  const auto [m, n, kk] = GetParam();
  Rng rng(200 + m + 7 * n + 13 * kk);
  const auto a = random_matrix<complex_t>(m, kk, rng);
  const auto b = random_matrix<complex_t>(n, kk, rng);
  auto c1 = random_matrix<complex_t>(m, n, rng);
  auto c2 = c1;
  k::gemm_nt<complex_t>(m, n, kk, complex_t(0.5, -1.0), a.data(), m,
                        b.data(), n, complex_t(1.0), c1.data(), m);
  k::gemm_nt_ref<complex_t>(m, n, kk, complex_t(0.5, -1.0), a.data(), m,
                            b.data(), n, complex_t(1.0), c2.data(), m);
  EXPECT_LT(max_diff(c1, c2), 1e-12 * std::max(1, kk));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(Dims{1, 1, 1}, Dims{3, 5, 2}, Dims{8, 8, 8},
                      Dims{17, 4, 9}, Dims{33, 7, 21}, Dims{5, 1, 300},
                      Dims{64, 64, 64}, Dims{100, 3, 1}, Dims{2, 95, 37},
                      Dims{129, 17, 65}));

TEST(GemmNt, BetaZeroOverwritesNanFree) {
  // beta = 0 must overwrite C even when C holds garbage/NaN.
  const index_t m = 4, n = 3, kk = 2;
  Rng rng(5);
  const auto a = random_matrix<real_t>(m, kk, rng);
  const auto b = random_matrix<real_t>(n, kk, rng);
  std::vector<real_t> c(m * n, std::numeric_limits<real_t>::quiet_NaN());
  k::gemm_nt<real_t>(m, n, kk, 1.0, a.data(), m, b.data(), n, 0.0, c.data(),
                     m);
  for (const auto v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(GemmNt, RespectsLeadingDimensions) {
  const index_t m = 3, n = 2, kk = 2, lda = 5, ldb = 4, ldc = 7;
  Rng rng(6);
  const auto a = random_matrix<real_t>(lda, kk, rng);
  const auto b = random_matrix<real_t>(ldb, kk, rng);
  auto c1 = random_matrix<real_t>(ldc, n, rng);
  auto c2 = c1;
  k::gemm_nt<real_t>(m, n, kk, 2.0, a.data(), lda, b.data(), ldb, 1.0,
                     c1.data(), ldc);
  k::gemm_nt_ref<real_t>(m, n, kk, 2.0, a.data(), lda, b.data(), ldb, 1.0,
                         c2.data(), ldc);
  EXPECT_LT(max_diff(c1, c2), 1e-13);
  // Rows beyond m untouched.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = m; i < ldc; ++i) {
      EXPECT_EQ(c1[i + j * ldc], c2[i + j * ldc]);
    }
  }
}

TEST(Potrf, ReconstructsSpdMatrix) {
  const index_t n = 20;
  Rng rng(7);
  // A = B*B^T + n*I is SPD.
  const auto b = random_matrix<real_t>(n, n, rng);
  std::vector<real_t> a(n * n, 0.0);
  k::gemm_nt_ref<real_t>(n, n, n, 1.0, b.data(), n, b.data(), n, 0.0,
                         a.data(), n);
  for (index_t i = 0; i < n; ++i) a[i + i * n] += n;
  auto l = a;
  k::potrf<real_t>(n, l.data(), n);
  // Reconstruct lower(L*L^T) and compare to lower(A).
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      real_t acc = 0;
      for (index_t p = 0; p <= j; ++p) acc += l[i + p * n] * l[j + p * n];
      EXPECT_NEAR(acc, a[i + j * n], 1e-10 * n);
    }
  }
}

TEST(Potrf, ThrowsOnIndefinite) {
  std::vector<real_t> a{1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_THROW(k::potrf<real_t>(2, a.data(), 2), NumericalError);
}

TEST(Ldlt, ReconstructsSymmetricIndefinite) {
  const index_t n = 12;
  Rng rng(8);
  std::vector<real_t> a(n * n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      const real_t v = rng.uniform(-1, 1);
      a[i + j * n] = v;
      a[j + i * n] = v;
    }
    a[j + j * n] = (j % 2 ? -1.0 : 1.0) * (8.0 + j);  // dominant, indefinite
  }
  auto ld = a;
  k::ldlt<real_t>(n, ld.data(), n);
  bool saw_negative_pivot = false;
  for (index_t j = 0; j < n; ++j) {
    if (ld[j + j * n] < 0) saw_negative_pivot = true;
  }
  EXPECT_TRUE(saw_negative_pivot);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      real_t acc = 0;
      for (index_t p = 0; p <= j; ++p) {
        const real_t lip = (i == p) ? 1.0 : (i > p ? ld[i + p * n] : 0.0);
        const real_t ljp = (j == p) ? 1.0 : (j > p ? ld[j + p * n] : 0.0);
        acc += lip * ld[p + p * n] * ljp;
      }
      EXPECT_NEAR(acc, a[i + j * n], 1e-9 * n) << i << "," << j;
    }
  }
}

TEST(Ldlt, ComplexSymmetricReconstruction) {
  const index_t n = 8;
  Rng rng(9);
  std::vector<complex_t> a(n * n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      const complex_t v = rng.scalar<complex_t>();
      a[i + j * n] = v;
      a[j + i * n] = v;  // plain symmetric, NOT Hermitian
    }
    a[j + j * n] += complex_t(10.0, 3.0);
  }
  auto ld = a;
  k::ldlt<complex_t>(n, ld.data(), n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      complex_t acc = 0;
      for (index_t p = 0; p <= j; ++p) {
        const complex_t lip =
            (i == p) ? complex_t(1) : (i > p ? ld[i + p * n] : complex_t(0));
        const complex_t ljp =
            (j == p) ? complex_t(1) : (j > p ? ld[j + p * n] : complex_t(0));
        acc += lip * ld[p + p * n] * ljp;
      }
      EXPECT_LT(magnitude<complex_t>(acc - a[i + j * n]), 1e-9 * n);
    }
  }
}

TEST(Getrf, ReconstructsLu) {
  const index_t n = 15;
  Rng rng(10);
  auto a = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) a[j + j * n] += n;  // dominance
  auto lu = a;
  k::getrf_nopiv<real_t>(n, lu.data(), n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      real_t acc = 0;
      for (index_t p = 0; p <= std::min(i, j); ++p) {
        const real_t lip = (i == p) ? 1.0 : lu[i + p * n];
        acc += lip * lu[p + j * n];
      }
      EXPECT_NEAR(acc, a[i + j * n], 1e-9 * n);
    }
  }
}

TEST(TrsmRightLowerTrans, SolvesAgainstGemmCheck) {
  const index_t m = 9, n = 6;
  Rng rng(11);
  auto l = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) l[j + j * n] += n;
  const auto b = random_matrix<real_t>(m, n, rng);
  auto x = b;
  k::trsm_right_lower_trans<real_t>(m, n, l.data(), n, x.data(), m, false);
  // Check X * L^T == B: (X L^T)(i,j) = sum_{p<=j} X(i,p) * L(j,p).
  std::vector<real_t> back(m * n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      real_t acc = 0;
      for (index_t p = 0; p <= j; ++p) {
        acc += x[i + p * m] * l[j + p * n];
      }
      back[i + j * m] = acc;
    }
  }
  EXPECT_LT(max_diff(back, b), 1e-10 * n);
}

TEST(TrsmRightLowerTrans, UnitDiagIgnoresDiagonal) {
  const index_t m = 4, n = 3;
  Rng rng(12);
  auto l = random_matrix<real_t>(n, n, rng);
  const auto b = random_matrix<real_t>(m, n, rng);
  auto x1 = b, x2 = b;
  k::trsm_right_lower_trans<real_t>(m, n, l.data(), n, x1.data(), m, true);
  for (index_t j = 0; j < n; ++j) l[j + j * n] = 77.0;  // perturb diag
  k::trsm_right_lower_trans<real_t>(m, n, l.data(), n, x2.data(), m, true);
  EXPECT_EQ(max_diff(x1, x2), 0.0);
}

TEST(TrsmRightUpper, SolvesAgainstGemmCheck) {
  const index_t m = 7, n = 5;
  Rng rng(13);
  auto u = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) u[j + j * n] += n;
  const auto b = random_matrix<real_t>(m, n, rng);
  auto x = b;
  k::trsm_right_upper<real_t>(m, n, u.data(), n, x.data(), m);
  std::vector<real_t> back(m * n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      real_t acc = 0;
      for (index_t p = 0; p <= j; ++p) acc += x[i + p * m] * u[p + j * n];
      back[i + j * m] = acc;
    }
  }
  EXPECT_LT(max_diff(back, b), 1e-10 * n);
}

TEST(Trsv, ForwardBackwardRoundTrip) {
  const index_t n = 10;
  Rng rng(14);
  auto l = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) l[j + j * n] += n;
  std::vector<real_t> x(n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  // y = L*x, then forward solve must return x.
  std::vector<real_t> y(n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) y[i] += l[i + j * n] * x[j];
  }
  k::trsv_lower<real_t>(n, l.data(), n, false, y.data());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], x[i], 1e-10);
  // y2 = L^T*x, backward transposed solve must return x.
  std::vector<real_t> y2(n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) y2[j] += l[i + j * n] * x[i];
  }
  k::trsv_lower_trans<real_t>(n, l.data(), n, false, y2.data());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(y2[i], x[i], 1e-10);
}

TEST(TrsvUpper, RoundTrip) {
  const index_t n = 9;
  Rng rng(15);
  auto u = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) u[j + j * n] += n;
  std::vector<real_t> x(n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<real_t> y(n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) y[i] += u[i + j * n] * x[j];
  }
  k::trsv_upper<real_t>(n, u.data(), n, y.data());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], x[i], 1e-10);
}

TEST(ScaleCols, ForwardAndInverseCancel) {
  const index_t m = 6, n = 4;
  Rng rng(16);
  auto a = random_matrix<real_t>(m, n, rng);
  const auto orig = a;
  std::vector<real_t> d{2.0, -3.0, 0.5, 7.0};
  k::scale_cols<real_t>(m, n, a.data(), m, d.data(), a.data(), m);
  k::scale_cols_inv<real_t>(m, n, a.data(), m, d.data());
  EXPECT_LT(max_diff(a, orig), 1e-14);
}

TEST(Gemv, SubMatchesManual) {
  // n = 7: one four-column pass and three single columns.
  const index_t m = 5, n = 7;
  Rng rng(17);
  const auto a = random_matrix<real_t>(m, n, rng);
  std::vector<real_t> x(n), y(m, 1.0), expect(m, 1.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) expect[i] -= a[i + j * m] * x[j];
  }
  k::gemv_sub<real_t>(m, n, a.data(), m, x.data(), y.data());
  EXPECT_LT(max_diff(y, expect), 1e-13);
}

TEST(Gemv, TransSubMatchesManual) {
  // n = 7: one four-column pass and three single columns.
  const index_t m = 9, n = 7, lda = m + 2;
  Rng rng(18);
  const auto a = random_matrix<real_t>(lda, n, rng);
  std::vector<real_t> x(m), y(n, 1.0), expect(n, 1.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) expect[j] -= a[i + j * lda] * x[i];
  }
  k::gemv_trans_sub<real_t>(m, n, a.data(), lda, x.data(), y.data());
  EXPECT_LT(max_diff(y, expect), 1e-13);
}

}  // namespace
}  // namespace spx

// ---- blocked kernels: sizes crossing the 48-wide blocking factor ------

namespace spx {
namespace {
namespace k2 = kernels;

class BlockedSizes : public ::testing::TestWithParam<int> {};

TEST_P(BlockedSizes, GemmNnMatchesReference) {
  const index_t n = GetParam();
  Rng rng(300 + n);
  const auto a = random_matrix<real_t>(n, n, rng);
  const auto b = random_matrix<real_t>(n, n, rng);
  auto c1 = random_matrix<real_t>(n, n, rng);
  auto c2 = c1;
  k2::gemm_nn<real_t>(n, n, n, -1.0, a.data(), n, b.data(), n, 0.5,
                      c1.data(), n);
  k2::gemm_nn_ref<real_t>(n, n, n, -1.0, a.data(), n, b.data(), n, 0.5,
                          c2.data(), n);
  EXPECT_LT(max_diff(c1, c2), 1e-11 * n);
}

TEST_P(BlockedSizes, PotrfReconstructs) {
  const index_t n = GetParam();
  Rng rng(310 + n);
  const auto b = random_matrix<real_t>(n, n, rng);
  std::vector<real_t> a(static_cast<std::size_t>(n) * n, 0.0);
  k2::gemm_nt<real_t>(n, n, n, 1.0, b.data(), n, b.data(), n, 0.0,
                      a.data(), n);
  for (index_t i = 0; i < n; ++i) a[i + static_cast<std::size_t>(i) * n] += n;
  auto l = a;
  k2::potrf<real_t>(n, l.data(), n);
  // Sample a set of entries of L*L^T against A (full check is O(n^3)).
  Rng pick(17);
  for (int trial = 0; trial < 200; ++trial) {
    const index_t i = static_cast<index_t>(pick.next_below(n));
    const index_t j = static_cast<index_t>(pick.next_below(i + 1));
    real_t acc = 0;
    for (index_t p = 0; p <= j; ++p) {
      acc += l[i + static_cast<std::size_t>(p) * n] *
             l[j + static_cast<std::size_t>(p) * n];
    }
    EXPECT_NEAR(acc, a[i + static_cast<std::size_t>(j) * n], 1e-9 * n);
  }
}

TEST_P(BlockedSizes, LdltReconstructs) {
  const index_t n = GetParam();
  Rng rng(320 + n);
  std::vector<real_t> a(static_cast<std::size_t>(n) * n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      const real_t v = rng.uniform(-1, 1);
      a[i + static_cast<std::size_t>(j) * n] = v;
      a[j + static_cast<std::size_t>(i) * n] = v;
    }
    a[j + static_cast<std::size_t>(j) * n] =
        (j % 2 ? -1.0 : 1.0) * (2.0 * n + j);
  }
  auto ld = a;
  k2::ldlt<real_t>(n, ld.data(), n);
  Rng pick(19);
  for (int trial = 0; trial < 200; ++trial) {
    const index_t i = static_cast<index_t>(pick.next_below(n));
    const index_t j = static_cast<index_t>(pick.next_below(i + 1));
    real_t acc = 0;
    for (index_t p = 0; p <= j; ++p) {
      const real_t lip =
          (i == p) ? 1.0 : ld[i + static_cast<std::size_t>(p) * n];
      const real_t ljp =
          (j == p) ? 1.0 : ld[j + static_cast<std::size_t>(p) * n];
      acc += lip * ld[p + static_cast<std::size_t>(p) * n] * ljp;
    }
    EXPECT_NEAR(acc, a[i + static_cast<std::size_t>(j) * n], 1e-8 * n);
  }
}

TEST_P(BlockedSizes, GetrfReconstructs) {
  const index_t n = GetParam();
  Rng rng(330 + n);
  auto a = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) {
    a[j + static_cast<std::size_t>(j) * n] += 2.0 * n;
  }
  auto lu = a;
  k2::getrf_nopiv<real_t>(n, lu.data(), n);
  Rng pick(23);
  for (int trial = 0; trial < 200; ++trial) {
    const index_t i = static_cast<index_t>(pick.next_below(n));
    const index_t j = static_cast<index_t>(pick.next_below(n));
    real_t acc = 0;
    for (index_t p = 0; p <= std::min(i, j); ++p) {
      const real_t lip =
          (i == p) ? 1.0 : lu[i + static_cast<std::size_t>(p) * n];
      acc += lip * lu[p + static_cast<std::size_t>(j) * n];
    }
    EXPECT_NEAR(acc, a[i + static_cast<std::size_t>(j) * n], 1e-8 * n);
  }
}

TEST_P(BlockedSizes, TrsmRightLowerTransSolves) {
  const index_t n = GetParam(), m = 13;
  Rng rng(340 + n);
  auto l = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) {
    l[j + static_cast<std::size_t>(j) * n] += n;
  }
  const auto b = random_matrix<real_t>(m, n, rng);
  auto x = b;
  k2::trsm_right_lower_trans<real_t>(m, n, l.data(), n, x.data(), m, false);
  // (X L^T)(i, j) must reproduce B.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      real_t acc = 0;
      for (index_t p = 0; p <= j; ++p) {
        acc += x[i + static_cast<std::size_t>(p) * m] *
               l[j + static_cast<std::size_t>(p) * n];
      }
      EXPECT_NEAR(acc, b[i + static_cast<std::size_t>(j) * m], 1e-9 * n);
    }
  }
}

TEST_P(BlockedSizes, TrsmLeftLowerUnitSolves) {
  const index_t n = GetParam(), m = 7;
  Rng rng(350 + n);
  auto l = random_matrix<real_t>(n, n, rng);
  // Keep the unit triangle well conditioned: random unit-lower matrices
  // with O(1) entries have exponentially large inverses.
  for (auto& v : l) v *= 4.0 / n;
  const auto b = random_matrix<real_t>(n, m, rng);
  auto x = b;
  k2::trsm_left_lower_unit<real_t>(n, m, l.data(), n, x.data(), n);
  // L (unit) * X == B.
  for (index_t c = 0; c < m; ++c) {
    for (index_t i = 0; i < n; ++i) {
      real_t acc = x[i + static_cast<std::size_t>(c) * n];
      for (index_t p = 0; p < i; ++p) {
        acc += l[i + static_cast<std::size_t>(p) * n] *
               x[p + static_cast<std::size_t>(c) * n];
      }
      EXPECT_NEAR(acc, b[i + static_cast<std::size_t>(c) * n], 1e-9 * n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AcrossBlockBoundary, BlockedSizes,
                         ::testing::Values(47, 48, 49, 96, 131, 200));

TEST(BlockedKernels, ComplexLdltLargeSize) {
  const index_t n = 100;
  Rng rng(360);
  std::vector<complex_t> a(static_cast<std::size_t>(n) * n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      const complex_t v = rng.scalar<complex_t>();
      a[i + static_cast<std::size_t>(j) * n] = v;
      a[j + static_cast<std::size_t>(i) * n] = v;
    }
    a[j + static_cast<std::size_t>(j) * n] += complex_t(3.0 * n, n);
  }
  auto ld = a;
  k2::ldlt<complex_t>(n, ld.data(), n);
  Rng pick(29);
  for (int trial = 0; trial < 100; ++trial) {
    const index_t i = static_cast<index_t>(pick.next_below(n));
    const index_t j = static_cast<index_t>(pick.next_below(i + 1));
    complex_t acc = 0;
    for (index_t p = 0; p <= j; ++p) {
      const complex_t lip =
          (i == p) ? complex_t(1) : ld[i + static_cast<std::size_t>(p) * n];
      const complex_t ljp =
          (j == p) ? complex_t(1) : ld[j + static_cast<std::size_t>(p) * n];
      acc += lip * ld[p + static_cast<std::size_t>(p) * n] * ljp;
    }
    EXPECT_LT(magnitude<complex_t>(acc - a[i + static_cast<std::size_t>(j) * n]),
              1e-8 * n);
  }
}

// ---------------------------------------------------------------------------
// ISA-dispatch conformance sweep (docs/KERNELS.md): every GEMM variant the
// host can run -- forced via the ScopedIsaOverride test knob -- must agree
// with the *_ref oracle over a size grid that exercises the degenerate
// (0/1), sub-tile, tile-boundary (47/48/49) and multi-block (129) cases,
// with non-tight leading dimensions and every alpha/beta combination from
// {0, 1, -1, 0.5}.  Runs clean under -DSPX_SANITIZE=address.
// ---------------------------------------------------------------------------

template <typename T>
void run_isa_conformance_sweep(double tol_unit) {
  const index_t sizes[] = {0, 1, 3, 17, 47, 48, 49, 129};
  const T coeffs[] = {T(0), T(1), T(-1), T(0.5)};
  const std::vector<kernels::Isa>& sup =
      kernels::Dispatch::instance().supported();
  ASSERT_FALSE(sup.empty());
  Rng rng(9000 + static_cast<int>(sizeof(T)));
  for (const index_t m : sizes) {
    for (const index_t n : sizes) {
      for (const index_t kk : sizes) {
        const index_t lda = m + 5;
        const index_t ldb_nt = n + 3;
        const index_t ldb_nn = kk + 2;
        const index_t ldc = m + 7;
        const auto a = random_matrix<T>(lda, kk, rng);
        const auto b_nt = random_matrix<T>(ldb_nt, kk, rng);
        const auto b_nn = random_matrix<T>(ldb_nn, n, rng);
        const auto c0 = random_matrix<T>(ldc, n, rng);
        const double tol = tol_unit * std::max<index_t>(1, kk);
        for (const T alpha : coeffs) {
          for (const T beta : coeffs) {
            auto ref_nt = c0;
            auto ref_nn = c0;
            k::gemm_nt_ref<T>(m, n, kk, alpha, a.data(), lda, b_nt.data(),
                              ldb_nt, beta, ref_nt.data(), ldc);
            k::gemm_nn_ref<T>(m, n, kk, alpha, a.data(), lda, b_nn.data(),
                              ldb_nn, beta, ref_nn.data(), ldc);
            for (const kernels::Isa isa : sup) {
              kernels::ScopedIsaOverride force(isa);
              ASSERT_TRUE(force.ok());
              auto got = c0;
              k::gemm_nt<T>(m, n, kk, alpha, a.data(), lda, b_nt.data(),
                            ldb_nt, beta, got.data(), ldc);
              EXPECT_LT(max_diff(got, ref_nt), tol)
                  << "gemm_nt isa=" << kernels::to_string(isa) << " m=" << m
                  << " n=" << n << " k=" << kk << " alpha=" << double(alpha)
                  << " beta=" << double(beta);
              got = c0;
              k::gemm_nn<T>(m, n, kk, alpha, a.data(), lda, b_nn.data(),
                            ldb_nn, beta, got.data(), ldc);
              EXPECT_LT(max_diff(got, ref_nn), tol)
                  << "gemm_nn isa=" << kernels::to_string(isa) << " m=" << m
                  << " n=" << n << " k=" << kk << " alpha=" << double(alpha)
                  << " beta=" << double(beta);
            }
          }
        }
      }
    }
  }
}

TEST(IsaConformance, GemmAllVariantsMatchReferenceFp64) {
  run_isa_conformance_sweep<real_t>(1e-12);
}

TEST(IsaConformance, GemmAllVariantsMatchReferenceFp32) {
  run_isa_conformance_sweep<real32_t>(2e-4);
}

// ---------------------------------------------------------------------------
// Mapped-GEMM conformance sweep: gemm_nt_mapped on every tier against
// gemm_nt_ref into a buffer, subtracted entry by entry through the same
// maps.  The maps reach every write-back case of every tier's tile (MR in
// {8, 16, 32}, NR in {4, 6, 8}): contiguous tiles (identity rows), row
// runs shorter than MR, trapezoids whose first rows straddle a tile or
// lie wholly below one (block starts at 5 and at 40 or more), edge tiles
// (m, n not multiples of MR, NR), products under the small-GEMM cutoff,
// and k above kKC (two k passes).  Entries outside the footprint must keep
// their bytes.  For complex types, and for real types with k <= kKC, the
// result must also equal, byte for byte, gemm_nt into a zeroed buffer
// followed by the subtract.
// ---------------------------------------------------------------------------

/// One mapped destination: rows, columns and (optional) first rows of an
/// m x n product, with the target's leading dimension and column count.
struct TestMap {
  std::vector<index_t> rows, cols, first;
  index_t ldc = 1, ncols = 1;
};

/// `style` 0: identity rows and columns, no trapezoid.  1: rows in runs
/// of 3 with gaps of 2; two column blocks, the second starting at column
/// n/2 with first row 5, and a trapezoid.  2: random row runs of 1-40
/// with gaps of 1-3, random column blocks of 1-20 with gaps of 0-2, each
/// block's first row its own column offset plus 40 (every block after
/// the first has tiles wholly above it).
TestMap make_map(index_t m, index_t n, int style, Rng& rng) {
  TestMap t;
  t.rows.resize(static_cast<std::size_t>(m));
  t.cols.resize(static_cast<std::size_t>(n));
  if (style == 0) {
    for (index_t i = 0; i < m; ++i) t.rows[i] = i;
    for (index_t j = 0; j < n; ++j) t.cols[j] = j;
  } else if (style == 1) {
    t.first.resize(static_cast<std::size_t>(n));
    for (index_t i = 0; i < m; ++i) t.rows[i] = i + 2 * (i / 3);
    for (index_t j = 0; j < n; ++j) {
      t.cols[j] = j < n / 2 ? j : j + 3;
      t.first[j] = j < n / 2 ? 0 : std::min<index_t>(5, m);
    }
  } else {
    t.first.resize(static_cast<std::size_t>(n));
    index_t r = 0;
    for (index_t i = 0; i < m;) {
      const index_t len = 1 + static_cast<index_t>(rng.next_below(40));
      for (index_t q = 0; q < len && i < m; ++q) t.rows[i++] = r++;
      r += 1 + static_cast<index_t>(rng.next_below(3));
    }
    index_t c = 0;
    for (index_t j = 0; j < n;) {
      const index_t height = 1 + static_cast<index_t>(rng.next_below(20));
      const index_t top = j == 0 ? 0 : std::min<index_t>(j + 40, m);
      for (index_t q = 0; q < height && j < n; ++q) {
        t.first[j] = top;
        t.cols[j++] = c++;
      }
      c += static_cast<index_t>(rng.next_below(3));
    }
  }
  t.ldc = m == 0 ? 1 : t.rows[m - 1] + 3;
  t.ncols = n == 0 ? 1 : t.cols[n - 1] + 2;
  return t;
}

template <typename T>
void run_mapped_conformance_sweep(double tol_unit) {
  const index_t ms[] = {1, 3, 17, 47, 48, 49, 129, 200};
  const index_t ns[] = {1, 3, 8, 17, 49};
  const index_t ks[] = {1, 3, 17, 64, 300};
  const std::vector<kernels::Isa> tiers =
      is_complex_v<T> ? std::vector<kernels::Isa>{kernels::Isa::Generic}
                      : kernels::Dispatch::instance().supported();
  Rng rng(9100 + static_cast<int>(sizeof(T)));
  for (const index_t m : ms) {
    for (const index_t n : ns) {
      for (const index_t kk : ks) {
        for (int style = 0; style < 3; ++style) {
          const TestMap map = make_map(m, n, style, rng);
          const index_t lda = m + 5;
          const index_t ldb = n + 3;
          const auto a = random_matrix<T>(lda, kk, rng);
          const auto b = random_matrix<T>(ldb, kk, rng);
          const auto c0 = random_matrix<T>(map.ldc, map.ncols, rng);
          std::vector<T> p(static_cast<std::size_t>(m) * n);
          k::gemm_nt_ref<T>(m, n, kk, T(1), a.data(), lda, b.data(), ldb,
                            T(0), p.data(), m);
          auto subtract = [&](const std::vector<T>& prod) {
            std::vector<T> c = c0;
            for (index_t j = 0; j < n; ++j) {
              for (index_t i = map.first.empty() ? 0 : map.first[j]; i < m;
                   ++i) {
                c[map.rows[i] +
                  static_cast<std::size_t>(map.cols[j]) * map.ldc] -=
                    prod[i + static_cast<std::size_t>(j) * m];
              }
            }
            return c;
          };
          const std::vector<T> want = subtract(p);
          std::vector<bool> owned(c0.size(), false);
          for (index_t j = 0; j < n; ++j) {
            for (index_t i = map.first.empty() ? 0 : map.first[j]; i < m;
                 ++i) {
              owned[map.rows[i] +
                    static_cast<std::size_t>(map.cols[j]) * map.ldc] = true;
            }
          }
          for (const kernels::Isa isa : tiers) {
            kernels::ScopedIsaOverride force(isa);
            ASSERT_TRUE(force.ok());
            std::vector<T> got = c0;
            k::gemm_nt_mapped<T>(
                m, n, kk, a.data(), lda, b.data(), ldb,
                {got.data(), map.ldc, map.rows.data(), map.cols.data(),
                 map.first.empty() ? nullptr : map.first.data()});
            const std::string where =
                std::string("isa=") + kernels::to_string(isa) +
                " m=" + std::to_string(m) + " n=" + std::to_string(n) +
                " k=" + std::to_string(kk) + " style=" +
                std::to_string(style);
            EXPECT_LT(max_diff(got, want), tol_unit * kk) << where;
            for (std::size_t i = 0; i < got.size(); ++i) {
              if (owned[i]) continue;
              ASSERT_EQ(std::memcmp(&got[i], &c0[i], sizeof(T)), 0)
                  << where << ": wrote entry " << i << " outside the map";
            }
            if (is_complex_v<T> || kk <= 256) {
              std::vector<T> buf(p.size());
              k::gemm_nt<T>(m, n, kk, T(1), a.data(), lda, b.data(), ldb,
                            T(0), buf.data(), m);
              const std::vector<T> buffered = subtract(buf);
              ASSERT_EQ(std::memcmp(got.data(), buffered.data(),
                                    got.size() * sizeof(T)),
                        0)
                  << where << ": differs from the buffered arithmetic";
            }
          }
        }
      }
    }
  }
}

TEST(IsaConformance, MappedGemmAllVariantsMatchReferenceFp64) {
  run_mapped_conformance_sweep<real_t>(1e-12);
}

TEST(IsaConformance, MappedGemmAllVariantsMatchReferenceFp32) {
  run_mapped_conformance_sweep<real32_t>(2e-4);
}

TEST(IsaConformance, MappedGemmMatchesReferenceComplex) {
  run_mapped_conformance_sweep<complex_t>(1e-12);
}

TEST(IsaConformance, ForceRejectsUnsupportedTier) {
  const auto& sup = kernels::Dispatch::instance().supported();
  for (const kernels::Isa isa :
       {kernels::Isa::Generic, kernels::Isa::Neon, kernels::Isa::Avx2,
        kernels::Isa::Avx512}) {
    const bool in_sup = std::find(sup.begin(), sup.end(), isa) != sup.end();
    kernels::ScopedIsaOverride force(isa);
    EXPECT_EQ(force.ok(), in_sup) << kernels::to_string(isa);
    // A rejected force must leave the active selection untouched.
    if (!force.ok()) {
      EXPECT_NE(kernels::Dispatch::instance().active(), isa);
    }
  }
  // After every override scope closed, we are back on the auto choice.
  EXPECT_EQ(kernels::Dispatch::instance().active(),
            kernels::Dispatch::instance().supported().back());
}

// ---------------------------------------------------------------------------
// Blocked vs unblocked TRSM: the factor kernels route their panel solves
// through the blocked right-TRSMs, which must agree with the unblocked
// base case for every n, including n below, at, just above and at several
// multiples of the blocking factor (48): n in {1, 47, 48, 49, 149}.
// ---------------------------------------------------------------------------

class TrsmBlockedVsUnblocked : public ::testing::TestWithParam<int> {};

TEST_P(TrsmBlockedVsUnblocked, RightLowerTransMatches) {
  const index_t n = GetParam();
  const index_t m = 37;
  Rng rng(500 + n);
  auto l = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) l[j + static_cast<std::size_t>(j) * n] += n;
  const auto x0 = random_matrix<real_t>(m, n, rng);
  for (const bool unit : {false, true}) {
    auto xb = x0;
    auto xu = x0;
    k::trsm_right_lower_trans<real_t>(m, n, l.data(), n, xb.data(), m, unit);
    k::trsm_right_lower_trans_unblocked<real_t>(m, n, l.data(), n, xu.data(),
                                                m, unit);
    // Relative comparison: the unit-diagonal solve amplifies |X| by the
    // (exponentially large) norm of the unit-triangular inverse, so the
    // agreement bound must scale with the solution magnitude.
    double xmax = 1.0;
    for (const real_t v : xu) xmax = std::max(xmax, std::abs(v));
    EXPECT_LT(max_diff(xb, xu), 1e-13 * n * xmax) << "unit=" << unit;
  }
}

TEST_P(TrsmBlockedVsUnblocked, RightUpperMatches) {
  const index_t n = GetParam();
  const index_t m = 37;
  Rng rng(600 + n);
  auto u = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) u[j + static_cast<std::size_t>(j) * n] += n;
  const auto x0 = random_matrix<real_t>(m, n, rng);
  auto xb = x0;
  auto xu = x0;
  k::trsm_right_upper<real_t>(m, n, u.data(), n, xb.data(), m);
  k::trsm_right_upper_unblocked<real_t>(m, n, u.data(), n, xu.data(), m);
  EXPECT_LT(max_diff(xb, xu), 1e-11 * n);
}

/// The triangle of a random n x n matrix: lower (or upper) part kept,
/// the diagonal lifted by n, or set to one for a unit triangle.
std::vector<real_t> triangle(index_t n, bool lower, bool unit, Rng& rng) {
  auto t = random_matrix<real_t>(n, n, rng);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      real_t& v = t[i + static_cast<std::size_t>(j) * n];
      if (i == j) {
        v = unit ? 1.0 : v + n;
      } else if ((i > j) != lower) {
        v = 0;
      }
    }
  }
  return t;
}

TEST_P(TrsmBlockedVsUnblocked, RightLowerMatches) {
  const index_t n = GetParam();
  const index_t m = 37;
  Rng rng(700 + n);
  for (const bool unit : {false, true}) {
    const auto l = triangle(n, /*lower=*/true, unit, rng);
    const auto x0 = random_matrix<real_t>(m, n, rng);
    auto xb = x0;
    auto xu = x0;
    k::trsm_right_lower<real_t>(m, n, l.data(), n, xb.data(), m, unit);
    k::trsm_right_lower_unblocked<real_t>(m, n, l.data(), n, xu.data(), m,
                                          unit);
    double xmax = 1.0;
    for (const real_t v : xu) xmax = std::max(xmax, std::abs(v));
    EXPECT_LT(max_diff(xb, xu), 1e-13 * n * xmax) << "unit=" << unit;
    // And it solves X * L = B.
    std::vector<real_t> back(x0.size(), 0.0);
    k::gemm_nn_ref<real_t>(m, n, n, 1.0, xb.data(), m, l.data(), n, 0.0,
                           back.data(), m);
    EXPECT_LT(max_diff(back, x0), 1e-12 * n * xmax) << "unit=" << unit;
  }
}

TEST_P(TrsmBlockedVsUnblocked, RightUpperTransMatches) {
  const index_t n = GetParam();
  const index_t m = 37;
  Rng rng(800 + n);
  const auto u = triangle(n, /*lower=*/false, /*unit=*/false, rng);
  const auto x0 = random_matrix<real_t>(m, n, rng);
  auto xb = x0;
  auto xu = x0;
  k::trsm_right_upper_trans<real_t>(m, n, u.data(), n, xb.data(), m);
  k::trsm_right_upper_trans_unblocked<real_t>(m, n, u.data(), n, xu.data(),
                                              m);
  EXPECT_LT(max_diff(xb, xu), 1e-11 * n);
  // And it solves X * U^T = B.
  std::vector<real_t> back(x0.size(), 0.0);
  k::gemm_nt_ref<real_t>(m, n, n, 1.0, xb.data(), m, u.data(), n, 0.0,
                         back.data(), m);
  EXPECT_LT(max_diff(back, x0), 1e-11 * n);
}

INSTANTIATE_TEST_SUITE_P(BlockBoundary, TrsmBlockedVsUnblocked,
                         ::testing::Values(1, 47, 48, 49, 149));

// Regression for the blocked-LDL^T W scratch: with a padded leading
// dimension the old whole-panel copy dragged the inter-column gaps into
// the scratch buffer.  Seed the gaps with NaN so any read of them poisons
// the factorization, and check the factors still reconstruct A.
TEST(BlockedKernels, LdltPaddedLeadingDimension) {
  const index_t n = 120;  // three kNB=48 blocks: 48 + 48 + 24
  const index_t lda = n + 7;
  Rng rng(777);
  std::vector<real_t> a(static_cast<std::size_t>(lda) * n,
                        std::numeric_limits<real_t>::quiet_NaN());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      const real_t v = rng.scalar<real_t>();
      a[i + static_cast<std::size_t>(j) * lda] = v;
      a[j + static_cast<std::size_t>(i) * lda] = v;
    }
    a[j + static_cast<std::size_t>(j) * lda] += 3.0 * n;
  }
  auto ld = a;
  k::ldlt<real_t>(n, ld.data(), lda);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      real_t acc = 0;
      for (index_t p = 0; p <= j; ++p) {
        const real_t lip =
            (i == p) ? 1.0 : ld[i + static_cast<std::size_t>(p) * lda];
        const real_t ljp =
            (j == p) ? 1.0 : ld[j + static_cast<std::size_t>(p) * lda];
        acc += lip * ld[p + static_cast<std::size_t>(p) * lda] * ljp;
      }
      EXPECT_NEAR(acc, a[i + static_cast<std::size_t>(j) * lda], 1e-9 * n);
    }
  }
  // The padding rows were never part of the matrix and must stay NaN.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = n; i < lda; ++i) {
      EXPECT_TRUE(std::isnan(ld[i + static_cast<std::size_t>(j) * lda]));
    }
  }
}

#ifndef NDEBUG
// The uniform dimension guards only exist in debug builds
// (SPX_DEBUG_ASSERT compiles away under NDEBUG).
TEST(KernelAssertsDeathTest, GemmRejectsBadLeadingDimensions) {
  std::vector<real_t> a(64), b(64), c(64);
  EXPECT_DEATH(k::gemm_nt<real_t>(4, 4, 4, 1.0, a.data(), 3, b.data(), 4,
                                  0.0, c.data(), 4),
               "lda");
  EXPECT_DEATH(k::gemm_nt<real_t>(4, 4, 4, 1.0, a.data(), 4, b.data(), 3,
                                  0.0, c.data(), 4),
               "ldb");
  EXPECT_DEATH(k::gemm_nn<real_t>(4, 4, 4, 1.0, a.data(), 4, b.data(), 3,
                                  0.0, c.data(), 4),
               "ldb");
  EXPECT_DEATH(k::gemm_nt<real_t>(-1, 4, 4, 1.0, a.data(), 4, b.data(), 4,
                                  0.0, c.data(), 4),
               "m");
}

TEST(KernelAssertsDeathTest, TrsmRejectsBadLeadingDimensions) {
  std::vector<real_t> l(64), x(64);
  EXPECT_DEATH(
      k::trsm_right_lower_trans<real_t>(4, 4, l.data(), 3, x.data(), 4,
                                        false),
      "ldl");
  EXPECT_DEATH(k::trsm_right_upper<real_t>(4, 4, l.data(), 4, x.data(), 3),
               "ldx");
}
#endif  // NDEBUG

}  // namespace
}  // namespace spx
