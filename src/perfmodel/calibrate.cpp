#include "perfmodel/calibrate.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "kernels/dense.hpp"
#include "kernels/scatter.hpp"

namespace spx::perfmodel {
namespace {

void fill_random(std::vector<real_t>& v, Rng& rng) {
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
}

/// Current duration of a fixed warm reference GEMM.  Shared hosts and
/// containers drift 1.5-2x on second-scale windows (frequency scaling,
/// cgroup throttling, noisy neighbours); a grid point measured inside a
/// slow window would bake that window into its rate -- and, through the
/// monotone fit, into every neighbouring prediction.  Timing this probe
/// next to each measurement lets the harness divide the common mode out.
double reference_seconds() {
  constexpr index_t kN = 48;
  static const std::vector<real_t> a = [] {
    Rng rng(23);
    std::vector<real_t> v(static_cast<std::size_t>(kN) * kN);
    fill_random(v, rng);
    return v;
  }();
  static const std::vector<real_t> b = [] {
    Rng rng(29);
    std::vector<real_t> v(static_cast<std::size_t>(kN) * kN);
    fill_random(v, rng);
    return v;
  }();
  static std::vector<real_t> c(static_cast<std::size_t>(kN) * kN, 0.0);
  double best = 0.0;
  for (int probe = 0; probe < 3; ++probe) {
    Timer t;
    kernels::gemm_nt<real_t>(kN, kN, kN, -1.0, a.data(), kN, b.data(), kN,
                             1.0, c.data(), kN);
    const double s = t.elapsed();
    if (probe == 0 || s < best) best = s;
  }
  return best;
}

/// Median-of-`repeat` sustained rate of `kernel` (work units/s).  Each
/// repetition accumulates invocations until `min_seconds` of kernel time;
/// `setup` re-initializes inputs outside the timed region.  The median
/// (not the best) across repetitions resists interference spikes without
/// the optimistic bias a best-of would bake into every prediction.  Every
/// repetition is drift-corrected against the reference probe, normalized
/// to the first probe this process took, so all rates -- grid and holdout
/// alike -- describe the same (baseline) machine speed.
template <typename Setup, typename Kernel>
double measure_rate(double work, const CalibrationOptions& o, Setup&& setup,
                    Kernel&& kernel) {
  static const double ref_baseline = reference_seconds();
  std::vector<double> rates;
  for (int r = 0; r < o.repeat; ++r) {
    const double ref_now = reference_seconds();
    double total = 0.0;
    long iters = 0;
    while (total < o.min_seconds && iters < 100000) {
      setup();
      Timer t;
      kernel();
      total += t.elapsed();
      ++iters;
    }
    if (total > 0.0 && ref_now > 0.0) {
      const double drift = ref_now / ref_baseline;  // > 1 when host is slow
      rates.push_back(drift * work * static_cast<double>(iters) / total);
    }
  }
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

/// Replica count so rotating input/output sets defeat per-core (L1/L2)
/// warmth: repeating a kernel on one buffer measures L1-warm rates real
/// tasks never see.  The budget deliberately stays *below* a typical
/// shared LLC -- real update tasks touch panels that other tasks recently
/// wrote, so their data is L2-cold but LLC-resident; pushing the rotation
/// past the LLC would instead measure DRAM-cold rates and (through the
/// monotone fit) drag every mid-sized prediction up with them.
std::size_t replicas_for(std::size_t bytes) {
  constexpr std::size_t kColdBudget = 8u << 20;  // > L2, < typical LLC
  if (bytes == 0) return 1;
  return std::clamp<std::size_t>(kColdBudget / bytes + 1, 2, 128);
}

/// Diagonally dominant n x n base matrix (SPD enough for every factor
/// kernel, well-conditioned so repeated TRSMs stay out of denormals).
std::vector<real_t> dominant_matrix(index_t n, Rng& rng) {
  std::vector<real_t> a(static_cast<std::size_t>(n) * n);
  fill_random(a, rng);
  for (index_t j = 0; j < n; ++j) {
    a[static_cast<std::size_t>(j) * n + j] = 2.0 * static_cast<double>(n);
  }
  return a;
}

CalPoint factor_point(KernelClass c, index_t n,
                      const CalibrationOptions& o) {
  Rng rng(7 + n);
  const std::vector<real_t> base = dominant_matrix(n, rng);
  std::vector<real_t> work_mat;
  const KernelShape shape{static_cast<double>(n), static_cast<double>(n),
                          static_cast<double>(n)};
  const double w = kernel_work(c, shape);
  const double rate = measure_rate(
      w, o, [&] { work_mat = base; },
      [&] {
        switch (c) {
          case KernelClass::Potrf:
            kernels::potrf<real_t>(n, work_mat.data(), n);
            break;
          case KernelClass::Ldlt:
            kernels::ldlt<real_t>(n, work_mat.data(), n);
            break;
          case KernelClass::Getrf:
            kernels::getrf_nopiv<real_t>(n, work_mat.data(), n);
            break;
          default:
            SPX_ASSERT(false);
        }
      });
  return {shape, w, rate, o.repeat};
}

CalPoint trsm_point(index_t m, index_t n, const CalibrationOptions& o) {
  Rng rng(11 + m + n);
  const std::vector<real_t> l = dominant_matrix(n, rng);
  std::vector<real_t> x_base(static_cast<std::size_t>(m) * n);
  fill_random(x_base, rng);
  // The triangle stays warm (it was just factored when the real TRSM
  // runs); the solved panel rows rotate cold.  Each setup re-initializes
  // a replica half a cycle *ahead* of use, so the refill's cache warmth
  // has been evicted again by the time that replica is solved.
  const std::size_t reps = replicas_for(sizeof(real_t) * x_base.size());
  std::vector<std::vector<real_t>> xs(reps, x_base);
  const KernelShape shape{static_cast<double>(m), static_cast<double>(n),
                          static_cast<double>(n)};
  const double w = kernel_work(KernelClass::TrsmPanel, shape);
  std::size_t idx = 0;
  const double rate = measure_rate(
      w, o, [&] { xs[(idx + reps / 2) % reps] = x_base; },
      [&] {
        kernels::trsm_right_lower_trans<real_t>(m, n, l.data(), n,
                                                xs[idx].data(), m,
                                                /*unit_diag=*/false);
        idx = (idx + 1) % reps;
      });
  return {shape, w, rate, o.repeat};
}

CalPoint gemm_point(index_t m, index_t n, index_t k,
                    const CalibrationOptions& o) {
  Rng rng(13 + m + n + k);
  const std::size_t foot =
      sizeof(real_t) * (static_cast<std::size_t>(m) * k +
                        static_cast<std::size_t>(n) * k +
                        static_cast<std::size_t>(m) * n);
  const std::size_t reps = replicas_for(foot);
  std::vector<std::vector<real_t>> as(reps), bs(reps), cs(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    as[r].resize(static_cast<std::size_t>(m) * k);
    bs[r].resize(static_cast<std::size_t>(n) * k);
    cs[r].assign(static_cast<std::size_t>(m) * n, 0.0);
    fill_random(as[r], rng);
    fill_random(bs[r], rng);
  }
  const KernelShape shape{static_cast<double>(m), static_cast<double>(n),
                          static_cast<double>(k)};
  const double w = kernel_work(KernelClass::GemmNt, shape);
  std::size_t idx = 0;
  const double rate = measure_rate(
      w, o, [] {},
      [&] {
        kernels::gemm_nt<real_t>(m, n, k, -1.0, as[idx].data(), m,
                                 bs[idx].data(), n, 1.0, cs[idx].data(), m);
        idx = (idx + 1) % reps;
      });
  return {shape, w, rate, o.repeat};
}

/// Synthetic gapped destination: m source rows in 4 segments, each
/// followed by a gap of m/8 rows, mimicking a sparse update whose target
/// panel stores ~1.4x the updated rows.
std::vector<RowSegment> synthetic_segments(index_t m, index_t* dst_rows) {
  const index_t nseg = 4;
  const index_t seg = std::max<index_t>(1, m / nseg);
  const index_t gap = std::max<index_t>(1, m / 8);
  std::vector<RowSegment> segs;
  index_t src = 0, dst = 0;
  while (src < m) {
    const index_t len = std::min(seg, m - src);
    segs.push_back({src, dst, len});
    src += len;
    dst += len + gap;
  }
  *dst_rows = dst;
  return segs;
}

/// The update kernel (kernels::gemm_nt_mapped) at (m, n, k): the rows go
/// through the synthetic gapped map, the n columns to contiguous target
/// columns, with no trapezoid.
CalPoint gapped_gemm_point(index_t m, index_t n, index_t k,
                           const CalibrationOptions& o) {
  Rng rng(17 + m + n + k);
  index_t dst_rows = 0;
  const std::vector<RowSegment> segs = synthetic_segments(m, &dst_rows);
  std::vector<index_t> rows(static_cast<std::size_t>(m));
  kernels::expand_row_map(segs, rows.data());
  std::vector<index_t> cols(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) cols[j] = j;
  const std::size_t foot =
      sizeof(real_t) * (static_cast<std::size_t>(m) * k +
                        static_cast<std::size_t>(n) * k +
                        static_cast<std::size_t>(dst_rows) * n);
  const std::size_t reps = replicas_for(foot);
  std::vector<std::vector<real_t>> as(reps), bs(reps), dsts(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    as[r].resize(static_cast<std::size_t>(m) * k);
    bs[r].resize(static_cast<std::size_t>(n) * k);
    dsts[r].assign(static_cast<std::size_t>(dst_rows) * n, 0.0);
    fill_random(as[r], rng);
    fill_random(bs[r], rng);
  }
  const KernelShape shape{static_cast<double>(m), static_cast<double>(n),
                          static_cast<double>(k)};
  const double w = kernel_work(KernelClass::GemmNtGapped, shape);
  std::size_t idx = 0;
  const double rate = measure_rate(
      w, o, [] {},
      [&] {
        kernels::gemm_nt_mapped<real_t>(
            m, n, k, as[idx].data(), m, bs[idx].data(), n,
            {dsts[idx].data(), dst_rows, rows.data(), cols.data(), nullptr});
        idx = (idx + 1) % reps;
      });
  return {shape, w, rate, o.repeat};
}

CalPoint scatter_point(index_t m, index_t n, const CalibrationOptions& o) {
  Rng rng(19 + m + n);
  index_t dst_rows = 0;
  const std::vector<RowSegment> segs = synthetic_segments(m, &dst_rows);
  // The W buffer stays warm on purpose (the real codelet's GEMM just
  // wrote it); only the scattered-into destination panels rotate cold.
  std::vector<real_t> wbuf(static_cast<std::size_t>(m) * n);
  fill_random(wbuf, rng);
  const std::size_t reps =
      replicas_for(sizeof(real_t) * static_cast<std::size_t>(dst_rows) * n);
  std::vector<std::vector<real_t>> dsts(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    dsts[r].assign(static_cast<std::size_t>(dst_rows) * n, 0.0);
  }
  const KernelShape shape{static_cast<double>(m), static_cast<double>(n),
                          0.0};
  const double w = kernel_work(KernelClass::Scatter, shape);
  std::size_t idx = 0;
  const double rate = measure_rate(
      w, o, [] {},
      [&] {
        kernels::scatter_sub<real_t>(segs, n, wbuf.data(), m,
                                     dsts[idx].data(), dst_rows, 0);
        idx = (idx + 1) % reps;
      });
  return {shape, w, rate, o.repeat};
}

/// The quick grid's settings: shorter repetitions, as many of them as the
/// caller asks for, in calibration and holdout alike.
CalibrationOptions quick_options(const CalibrationOptions& options) {
  CalibrationOptions o = options;
  if (o.quick) o.min_seconds = std::min(o.min_seconds, 1e-3);
  return o;
}

}  // namespace

CalPoint measure_point(KernelClass c, const KernelShape& shape,
                       const CalibrationOptions& options) {
  CalibrationOptions o = quick_options(options);
  const auto m = static_cast<index_t>(shape.m);
  const auto n = static_cast<index_t>(shape.n);
  const auto k = static_cast<index_t>(shape.k);
  switch (c) {
    case KernelClass::Potrf:
    case KernelClass::Ldlt:
    case KernelClass::Getrf:
      return factor_point(c, n, o);
    case KernelClass::TrsmPanel:
      return trsm_point(m, n, o);
    case KernelClass::GemmNt:
      return gemm_point(m, n, k, o);
    case KernelClass::GemmNtGapped:
      return gapped_gemm_point(m, n, k, o);
    case KernelClass::Scatter:
      return scatter_point(m, n, o);
  }
  SPX_ASSERT(false);
  return {};
}

PerfModel calibrate_kernels(const CalibrationOptions& options) {
  CalibrationOptions o = quick_options(options);
  const std::vector<index_t> factor_n =
      o.quick ? std::vector<index_t>{8, 48}
              : std::vector<index_t>{4, 8, 16, 32, 64, 96, 128};
  const std::vector<index_t> trsm_w =
      o.quick ? std::vector<index_t>{8, 32}
              : std::vector<index_t>{8, 16, 32, 64, 128};
  const std::vector<index_t> trsm_ratio =
      o.quick ? std::vector<index_t>{1, 4} : std::vector<index_t>{1, 4, 12};
  const std::vector<index_t> gemm_k =
      o.quick ? std::vector<index_t>{16, 32, 64}
              : std::vector<index_t>{16, 32, 64, 128};
  // (m, n) multipliers of k per point: square-ish small blocks up to the
  // tall trailing updates the supernodal DAG actually produces.
  const std::vector<std::pair<index_t, index_t>> gemm_mn =
      o.quick ? std::vector<std::pair<index_t, index_t>>{
                    {1, 1}, {4, 2}, {12, 4}}
              : std::vector<std::pair<index_t, index_t>>{
                    {1, 1}, {4, 2}, {12, 4}};
  // Thin-block (m, n, k) shapes: sparse update tasks are dominated by
  // GEMMs whose middle dimension is a small block height; the effective-
  // work key needs measured anchors in that regime too.  The quick grid
  // keeps a mid-size square and a large anchor: the packed SIMD GEMM's
  // rate curve has a knee where packing starts to amortize, and a grid
  // without points on both sides of it mispredicts every mid-size shape.
  const std::vector<std::array<index_t, 3>> gemm_thin =
      o.quick ? std::vector<std::array<index_t, 3>>{{256, 4, 64},
                                                    {96, 96, 96},
                                                    {320, 160, 80}}
              : std::vector<std::array<index_t, 3>>{{256, 2, 64},
                                                    {256, 4, 128},
                                                    {512, 8, 128},
                                                    {512, 16, 96},
                                                    {768, 12, 64},
                                                    {1024, 4, 32},
                                                    // square-ish mid
                                                    // shapes whose keys
                                                    // fall between the
                                                    // thin anchors
                                                    {96, 96, 96},
                                                    {160, 64, 64},
                                                    {224, 112, 56}};
  const std::vector<std::pair<index_t, index_t>> scatter_mn =
      o.quick
          ? std::vector<std::pair<index_t, index_t>>{{64, 32}, {256, 64}}
          : std::vector<std::pair<index_t, index_t>>{
                {64, 32}, {256, 64}, {1024, 128}, {2048, 128}};

  PerfModel model;
  model.set_host(o.host);

  for (const KernelClass c :
       {KernelClass::Potrf, KernelClass::Ldlt, KernelClass::Getrf}) {
    KernelTable t;
    for (const index_t n : factor_n) t.add(factor_point(c, n, o));
    t.fit();
    model.set_table(c, ResourceKind::Cpu, std::move(t));
  }
  {
    KernelTable t;
    for (const index_t w : trsm_w) {
      for (const index_t r : trsm_ratio) t.add(trsm_point(w * r, w, o));
    }
    t.fit();
    model.set_table(KernelClass::TrsmPanel, ResourceKind::Cpu,
                    std::move(t));
  }
  {
    KernelTable t;
    for (const index_t k : gemm_k) {
      for (const auto& [rm, rn] : gemm_mn) {
        t.add(gemm_point(k * rm, k * rn, k, o));
      }
    }
    for (const auto& [m, n, k] : gemm_thin) t.add(gemm_point(m, n, k, o));
    t.fit();
    model.set_table(KernelClass::GemmNt, ResourceKind::Cpu, std::move(t));
  }
  {
    KernelTable t;
    for (const index_t k : gemm_k) {
      for (const auto& [rm, rn] : gemm_mn) {
        t.add(gapped_gemm_point(k * rm, k * rn, k, o));
      }
    }
    for (const auto& [m, n, k] : gemm_thin) {
      t.add(gapped_gemm_point(m, n, k, o));
    }
    t.fit();
    // CPU workers and GPU-stream workers run the same update kernel.
    model.set_table(KernelClass::GemmNtGapped, ResourceKind::GpuStream, t);
    model.set_table(KernelClass::GemmNtGapped, ResourceKind::Cpu,
                    std::move(t));
  }
  {
    KernelTable t;
    for (const auto& [m, n] : scatter_mn) t.add(scatter_point(m, n, o));
    t.fit();
    model.set_table(KernelClass::Scatter, ResourceKind::Cpu, std::move(t));
  }
  return model;
}

}  // namespace spx::perfmodel
