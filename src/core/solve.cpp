#include "core/solve.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "kernels/dense.hpp"
#include "runtime/worker_queues.hpp"

namespace spx {
namespace k = kernels;
namespace {

/// Smallest nrhs that solve_permuted_multi runs on the RHS-contiguous
/// tile; fewer columns take the vector sweep one column at a time.  A
/// probe on the serving and `solve` surrogates timed both paths per
/// nrhs: the tile path lost at nrhs 1 and 2, the two tied at nrhs 3 and
/// the tile won from nrhs 4 on (DESIGN.md §16).
constexpr index_t kTileMinRhs = 3;

/// Grows a scratch vector to at least `n` elements, never shrinking it,
/// so a steady stream of solves allocates and zero-fills nothing.
template <typename T>
T* grown(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// Per-thread scratch of the sweeps.  Const solves run concurrently on
/// one factor (the solve service takes a shared lock), so the scratch
/// belongs to the calling thread, never to the factor or the Solver.
/// `below` holds a panel's off-diagonal rows, `tile` its RHS tile.
template <typename T>
struct Scratch {
  std::vector<T> below;
  std::vector<T> tile;
};

template <typename T>
Scratch<T>& scratch() {
  thread_local Scratch<T> s;
  return s;
}

index_t panels_in(const SymbolicStructure& st, index_t panel_limit) {
  return panel_limit < 0 ? st.num_panels()
                         : std::min(panel_limit, st.num_panels());
}

/// Y(nrhs x w) := X(panel rows, :)^T, the RHS-contiguous tile: row j of
/// the panel's slice of X becomes column j of Y (leading dimension nrhs).
template <typename T>
void load_tile(const Panel& panel, const T* x, index_t nrhs, index_t ldx,
               T* y) {
  const index_t w = panel.width();
  for (index_t c = 0; c < nrhs; ++c) {
    const T* xc = x + panel.col_begin + static_cast<std::size_t>(c) * ldx;
    for (index_t j = 0; j < w; ++j) {
      y[c + static_cast<std::size_t>(j) * nrhs] = xc[j];
    }
  }
}

template <typename T>
void store_tile(const Panel& panel, const T* y, index_t nrhs, index_t ldx,
                T* x) {
  const index_t w = panel.width();
  for (index_t c = 0; c < nrhs; ++c) {
    T* xc = x + panel.col_begin + static_cast<std::size_t>(c) * ldx;
    for (index_t j = 0; j < w; ++j) {
      xc[j] = y[c + static_cast<std::size_t>(j) * nrhs];
    }
  }
}

/// The off-diagonal part of the panel the backward sweep multiplies by:
/// L21, or for LU the stored U12^T (same rows, same leading dimension).
template <typename T>
const T* backward_below(const FactorData<T>& f, index_t p) {
  return (f.kind() == Factorization::LU ? f.panel_u(p) : f.panel_l(p)) +
         f.structure().panels[p].width();
}

// ---- per-panel steps --------------------------------------------------
//
// The one-thread sweeps and the DAG workers call the same steps, so each
// step's arithmetic is written once.  A forward step leaves the panel's
// whole off-diagonal product, negated, in `prod` (nrows_below x nrhs,
// leading dimension nrows_below); add_product then adds it into the
// target rows of x.  Every entry of x thus receives its sources'
// products in the order they are added, which both sweeps make
// ascending by source panel.

/// Forward step of panel p on one column: x_p := L11^{-1} x_p, then
/// prod := -L21 x_p (one gemv into a zeroed buffer).
template <typename T>
void forward_vec(const FactorData<T>& f, index_t p, T* x, T* prod) {
  const Panel& panel = f.structure().panels[p];
  const index_t w = panel.width();
  const T* l = f.panel_l(p);
  T* xp = x + panel.col_begin;
  k::trsv_lower(w, l, panel.nrows, f.kind() != Factorization::LLT, xp);
  const index_t below = panel.nrows_below();
  if (below == 0) return;
  std::fill_n(prod, below, T(0));
  k::gemv_sub(below, w, l + w, panel.nrows, xp, prod);
}

/// Forward step of panel p on an RHS tile: X_p := L11^{-1} X_p (the
/// panel TRSM on Y = X_p^T), then prod := -L21 X_p (one GEMM).
template <typename T>
void forward_tile(const FactorData<T>& f, index_t p, T* x, index_t nrhs,
                  index_t ldx, T* prod, std::vector<T>& tile) {
  const Panel& panel = f.structure().panels[p];
  const index_t w = panel.width();
  const index_t ld = panel.nrows;
  const T* l = f.panel_l(p);
  T* y = grown(tile, static_cast<std::size_t>(w) * nrhs);
  load_tile(panel, x, nrhs, ldx, y);
  k::trsm_right_lower_trans(nrhs, w, l, ld, y, nrhs,
                            f.kind() != Factorization::LLT);
  store_tile(panel, y, nrhs, ldx, x);
  const index_t below = panel.nrows_below();
  if (below == 0) return;
  k::gemm_nt(below, nrhs, w, T(-1), l + w, ld, y, nrhs, T(0), prod, below);
}

/// X(rows of blocks [b0, b1) of `panel`, :) += those blocks' rows of
/// `prod`, the panel's negated product.
template <typename T>
void add_product(const Panel& panel, index_t b0, index_t b1, const T* prod,
                 T* x, index_t nrhs, index_t ldx) {
  const index_t w = panel.width();
  const index_t below = panel.nrows_below();
  for (index_t c = 0; c < nrhs; ++c) {
    T* xc = x + static_cast<std::size_t>(c) * ldx;
    const T* pc = prod + static_cast<std::size_t>(c) * below;
    for (index_t b = b0; b < b1; ++b) {
      const Block& blk = panel.blocks[b];
      const T* src = pc + (blk.offset - w);
      T* dst = xc + blk.row_begin;
      for (index_t i = 0; i < blk.height(); ++i) dst[i] += src[i];
    }
  }
}

/// X_p := D_p^{-1} X_p (LDLT).
template <typename T>
void scale_panel(const FactorData<T>& f, index_t p, T* x, index_t nrhs,
                 index_t ldx) {
  const Panel& panel = f.structure().panels[p];
  const T* d = f.panel_d(p);
  for (index_t c = 0; c < nrhs; ++c) {
    T* col = x + panel.col_begin + static_cast<std::size_t>(c) * ldx;
    for (index_t j = 0; j < panel.width(); ++j) col[j] /= d[j];
  }
}

/// Backward step of panel p on one column (after D^{-1} when `scale`):
/// x_p -= A21^T x_below, one gemv over the gathered rows, then the
/// diagonal solve.
template <typename T>
void backward_vec(const FactorData<T>& f, index_t p, T* x, bool scale,
                  std::vector<T>& below_rows) {
  const Panel& panel = f.structure().panels[p];
  const index_t w = panel.width();
  const index_t ld = panel.nrows;
  const index_t below = panel.nrows_below();
  if (scale) scale_panel(f, p, x, 1, 0);
  T* xp = x + panel.col_begin;
  if (below > 0) {
    T* buf = grown(below_rows, static_cast<std::size_t>(below));
    for (std::size_t b = 1; b < panel.blocks.size(); ++b) {
      const Block& blk = panel.blocks[b];
      std::copy_n(x + blk.row_begin, blk.height(), buf + (blk.offset - w));
    }
    k::gemv_trans_sub(below, w, backward_below(f, p), ld, buf, xp);
  }
  if (f.kind() == Factorization::LU) {
    k::trsv_upper(w, f.panel_l(p), ld, xp);
  } else {
    k::trsv_lower_trans(w, f.panel_l(p), ld, f.kind() == Factorization::LDLT,
                        xp);
  }
}

/// Backward step of panel p on an RHS tile (after D^{-1} when `scale`).
template <typename T>
void backward_tile(const FactorData<T>& f, index_t p, T* x, index_t nrhs,
                   index_t ldx, bool scale, Scratch<T>& s) {
  const Panel& panel = f.structure().panels[p];
  const index_t w = panel.width();
  const index_t ld = panel.nrows;
  const index_t below = panel.nrows_below();
  if (scale) scale_panel(f, p, x, nrhs, ldx);
  T* y = grown(s.tile, static_cast<std::size_t>(w) * nrhs);
  load_tile(panel, x, nrhs, ldx, y);
  if (below > 0) {
    // G(nrhs x below) := X(below rows, :)^T, gathered block by block,
    // then one GEMM: Y -= G * A21 (A21 = L21, or U12^T for LU).
    T* g = grown(s.below, static_cast<std::size_t>(below) * nrhs);
    for (std::size_t b = 1; b < panel.blocks.size(); ++b) {
      const Block& blk = panel.blocks[b];
      T* gb = g + static_cast<std::size_t>(blk.offset - w) * nrhs;
      for (index_t c = 0; c < nrhs; ++c) {
        const T* xc = x + blk.row_begin + static_cast<std::size_t>(c) * ldx;
        for (index_t i = 0; i < blk.height(); ++i) {
          gb[c + static_cast<std::size_t>(i) * nrhs] = xc[i];
        }
      }
    }
    k::gemm_nn(nrhs, w, below, T(-1), g, nrhs, backward_below(f, p), ld,
               T(1), y, nrhs);
  }
  // Y := Y * L11^{-1} (or U11^{-T}) is X_panel := L11^{-T} X_panel (or
  // U11^{-1} X_panel) on the tile.
  if (f.kind() == Factorization::LU) {
    k::trsm_right_upper_trans(nrhs, w, f.panel_l(p), ld, y, nrhs);
  } else {
    k::trsm_right_lower(nrhs, w, f.panel_l(p), ld, y, nrhs,
                        f.kind() == Factorization::LDLT);
  }
  store_tile(panel, y, nrhs, ldx, x);
}

// ---- the panel DAG ------------------------------------------------------

/// Lets a sibling hardware thread run while this one waits for a task.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

/// What one calling thread keeps across its parallel solves: the forward
/// products, every worker's scratch, the dependency counters and the
/// ready list.  The helpers of a call borrow the caller's; all of it only
/// grows, so a steady stream of solves allocates nothing.
template <typename T>
struct DagScratch {
  std::vector<T> products;
  std::vector<std::size_t> product_at;  ///< per panel, into products
  std::vector<Scratch<T>> workers;
  std::vector<index_t> backward_deps;
  AtomicCounters forward_pending, backward_pending;
  std::unique_ptr<std::atomic<index_t>[]> ready;
  std::size_t capacity = 0;  ///< panels the counters and ready list fit

  void fit(std::size_t panels) {
    if (panels <= capacity) return;
    forward_pending.configure(panels);
    backward_pending.configure(panels);
    ready = std::make_unique<std::atomic<index_t>[]>(2 * panels);
    capacity = panels;
  }
};

template <typename T>
DagScratch<T>& dag_scratch() {
  thread_local DagScratch<T> s;
  return s;
}

/// One call's sweeps as a DAG over the panels.  Task p < np is panel p's
/// forward step: it adds its sources' products in ascending source
/// order, then writes its own product into its slice of the arena, and
/// is ready once all its sources have run.  Task np + p is panel p's
/// backward step, D^{-1} first, and is ready once p's forward task (when
/// the forward sweep is in the DAG) and all of p's targets have run.
///
/// The ready list is a ticket array: a task is pushed into the next free
/// slot, and each worker takes the next ticket and runs whatever lands in
/// that slot, spinning until it is filled.  Every task is pushed exactly
/// once, so every ticket below the task count is eventually served, by
/// however many workers there are.  Workers spin rather than block: a
/// ticket names the worker that runs its task, so a worker asleep on its
/// slot would hold up its task behind a wake-up.
template <typename T>
class PanelDag {
 public:
  PanelDag(const FactorData<T>& f, T* x, index_t nrhs, index_t ldx,
           bool forward, const obs::Tracer* clock, DagScratch<T>& ds)
      : f_(f),
        st_(f.structure()),
        x_(x),
        nrhs_(nrhs),
        ldx_(ldx),
        np_(st_.num_panels()),
        forward_(forward),
        ntasks_(forward ? 2 * np_ : np_),
        clock_(clock),
        ds_(ds),
        forward_left_(np_) {
    SPX_ASSERT(static_cast<index_t>(st_.source_begin.size()) == np_ + 1);
    const auto np = static_cast<std::size_t>(np_);
    ds_.fit(np);
    ds_.backward_deps.resize(np);
    for (std::size_t p = 0; p < np; ++p) {
      ds_.backward_deps[p] =
          static_cast<index_t>(st_.targets[p].size()) + (forward_ ? 1 : 0);
    }
    ds_.backward_pending.assign(ds_.backward_deps);
    for (index_t t = 0; t < ntasks_; ++t) {
      ds_.ready[static_cast<std::size_t>(t)].store(kEmpty,
                                                   std::memory_order_relaxed);
    }
    if (forward_) {
      ds_.forward_pending.assign(st_.in_degree);
      ds_.product_at.resize(np + 1);
      ds_.product_at[0] = 0;
      for (std::size_t p = 0; p < np; ++p) {
        ds_.product_at[p + 1] =
            ds_.product_at[p] +
            static_cast<std::size_t>(st_.panels[p].nrows_below()) * nrhs_;
      }
      products_ = grown(ds_.products, ds_.product_at[np]);
      for (index_t p = 0; p < np_; ++p) {
        if (st_.in_degree[p] == 0) push(p);
      }
    } else {
      for (index_t p = 0; p < np_; ++p) {
        if (st_.targets[p].empty()) push(np_ + p);
      }
    }
  }

  /// Works through the DAG on the caller and threads - 1 helpers, then
  /// rethrows the first step's exception, if any, once they have joined.
  void run(int threads) {
    if (static_cast<int>(ds_.workers.size()) < threads) {
      ds_.workers.resize(static_cast<std::size_t>(threads));
    }
    {
      std::vector<std::jthread> helpers;
      helpers.reserve(static_cast<std::size_t>(threads - 1));
      for (int r = 1; r < threads; ++r) {
        helpers.emplace_back([this, r] { work(r); });
      }
      work(0);
    }
    if (error_) std::rethrow_exception(error_);
  }

  /// Clock reading when the last forward task completed (clocked runs).
  double forward_end() const { return forward_end_; }

 private:
  static constexpr index_t kEmpty = -1;
  /// Pauses (a few ms) a worker spends on an empty slot before it
  /// yields its core between polls, which only an oversubscribed host
  /// reaches: yielding, or blocking, after 4096 pauses made 4 threads
  /// 1.2-1.4x slower than one on the `solve` surrogates (DESIGN.md §16).
  static constexpr int kSpins = 1 << 16;

  void push(index_t task) {
    ds_.ready[static_cast<std::size_t>(
                  next_push_.fetch_add(1, std::memory_order_relaxed))]
        .store(task, std::memory_order_release);
  }

  /// The task of slot `ticket`, or kEmpty once a step has failed.
  index_t take(index_t ticket) {
    const std::atomic<index_t>& slot =
        ds_.ready[static_cast<std::size_t>(ticket)];
    for (int spin = 0;; ++spin) {
      const index_t task = slot.load(std::memory_order_acquire);
      if (task != kEmpty) return task;
      if (failed_.load(std::memory_order_relaxed)) return kEmpty;
      if (spin < kSpins) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  void work(int r) {
    Scratch<T>& s = ds_.workers[static_cast<std::size_t>(r)];
    while (!failed_.load(std::memory_order_relaxed)) {
      const index_t ticket = next_take_.fetch_add(1, std::memory_order_relaxed);
      if (ticket >= ntasks_) return;
      const index_t task = take(ticket);
      if (task == kEmpty) return;
      try {
        if (task < np_) {
          run_forward(task, s);
        } else {
          run_backward(task - np_, s);
        }
      } catch (...) {
        fail();
        return;
      }
    }
  }

  void run_forward(index_t q, Scratch<T>& s) {
    for (const SourceEdge& se : st_.sources_of(q)) {
      const UpdateEdge& e = st_.targets[se.src][se.edge];
      add_product(st_.panels[se.src], e.first_block, e.last_block,
                  products_ + ds_.product_at[se.src], x_, nrhs_, ldx_);
    }
    T* prod = products_ + ds_.product_at[q];
    if (nrhs_ < kTileMinRhs) {
      const auto below = static_cast<std::size_t>(st_.panels[q].nrows_below());
      for (index_t c = 0; c < nrhs_; ++c) {
        forward_vec(f_, q, x_ + static_cast<std::size_t>(c) * ldx_,
                    prod + c * below);
      }
    } else {
      forward_tile(f_, q, x_, nrhs_, ldx_, prod, s.tile);
    }
    for (const UpdateEdge& e : st_.targets[q]) {
      if (ds_.forward_pending.release_one(e.dst)) push(e.dst);
    }
    if (ds_.backward_pending.release_one(q)) push(np_ + q);
    if (clock_ != nullptr &&
        forward_left_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      forward_end_ = clock_->now();
    }
  }

  void run_backward(index_t p, Scratch<T>& s) {
    const bool scale = f_.kind() == Factorization::LDLT;
    if (nrhs_ < kTileMinRhs) {
      for (index_t c = 0; c < nrhs_; ++c) {
        backward_vec(f_, p, x_ + static_cast<std::size_t>(c) * ldx_, scale,
                     s.below);
      }
    } else {
      backward_tile(f_, p, x_, nrhs_, ldx_, scale, s);
    }
    for (const SourceEdge& se : st_.sources_of(p)) {
      if (ds_.backward_pending.release_one(se.src)) push(np_ + se.src);
    }
  }

  /// Keeps the first exception; the flag stops every worker, also those
  /// waiting for a task the failed step will never release.
  void fail() {
    bool first = false;
    if (failed_.compare_exchange_strong(first, true)) {
      error_ = std::current_exception();
    }
  }

  const FactorData<T>& f_;
  const SymbolicStructure& st_;
  T* const x_;
  const index_t nrhs_;
  const index_t ldx_;
  const index_t np_;
  const bool forward_;
  const index_t ntasks_;
  const obs::Tracer* const clock_;
  DagScratch<T>& ds_;
  T* products_ = nullptr;
  alignas(64) std::atomic<index_t> next_push_{0};
  alignas(64) std::atomic<index_t> next_take_{0};
  alignas(64) std::atomic<index_t> forward_left_;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  double forward_end_ = 0.0;
};

}  // namespace

template <typename T>
void solve_forward(const FactorData<T>& f, std::span<T> x,
                   index_t panel_limit) {
  const SymbolicStructure& st = f.structure();
  std::vector<T>& prod = scratch<T>().below;
  for (index_t p = 0, np = panels_in(st, panel_limit); p < np; ++p) {
    const Panel& panel = st.panels[p];
    T* buf = grown(prod, static_cast<std::size_t>(panel.nrows_below()));
    forward_vec(f, p, x.data(), buf);
    add_product(panel, 1, static_cast<index_t>(panel.blocks.size()), buf,
                x.data(), 1, 0);
  }
}

template <typename T>
void solve_diagonal(const FactorData<T>& f, std::span<T> x,
                    index_t panel_limit) {
  SPX_CHECK_ARG(f.kind() == Factorization::LDLT, "LDLT only");
  for (index_t p = 0, np = panels_in(f.structure(), panel_limit); p < np;
       ++p) {
    scale_panel(f, p, x.data(), 1, 0);
  }
}

template <typename T>
void solve_backward(const FactorData<T>& f, std::span<T> x,
                    index_t panel_limit) {
  std::vector<T>& below_rows = scratch<T>().below;
  for (index_t p = panels_in(f.structure(), panel_limit) - 1; p >= 0; --p) {
    backward_vec(f, p, x.data(), false, below_rows);
  }
}

template <typename T>
void solve_permuted(const FactorData<T>& f, std::span<T> x) {
  solve_forward(f, x);
  if (f.kind() == Factorization::LDLT) solve_diagonal(f, x);
  solve_backward(f, x);
}

template <typename T>
void solve_forward_multi(const FactorData<T>& f, T* x, index_t nrhs,
                         index_t ldx) {
  const SymbolicStructure& st = f.structure();
  Scratch<T>& s = scratch<T>();
  for (index_t p = 0; p < st.num_panels(); ++p) {
    const Panel& panel = st.panels[p];
    T* buf = grown(s.below,
                   static_cast<std::size_t>(panel.nrows_below()) * nrhs);
    forward_tile(f, p, x, nrhs, ldx, buf, s.tile);
    add_product(panel, 1, static_cast<index_t>(panel.blocks.size()), buf, x,
                nrhs, ldx);
  }
}

template <typename T>
void solve_diagonal_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx) {
  SPX_CHECK_ARG(f.kind() == Factorization::LDLT, "LDLT only");
  for (index_t p = 0; p < f.structure().num_panels(); ++p) {
    scale_panel(f, p, x, nrhs, ldx);
  }
}

template <typename T>
void solve_backward_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx) {
  Scratch<T>& s = scratch<T>();
  for (index_t p = f.structure().num_panels() - 1; p >= 0; --p) {
    backward_tile(f, p, x, nrhs, ldx, false, s);
  }
}

template <typename T>
void solve_permuted_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx, int threads, SolveSpans spans) {
  obs::Tracer* const tracer = spans.tracer;
  const double start = tracer != nullptr ? tracer->now() : 0.0;
  double forward_end = 0.0;
  const bool ldlt = f.kind() == Factorization::LDLT;
  const auto n = static_cast<std::size_t>(f.structure().num_cols());
  const auto column = [&](index_t c) {
    return std::span<T>(x + static_cast<std::size_t>(c) * ldx, n);
  };
  const bool parallel =
      threads > 1 &&
      static_cast<double>(f.structure().factor_entries) * nrhs >=
          kParallelSolveMinWork;
  const int forward_workers =
      parallel && nrhs <= kForwardDagMaxRhs ? threads : 1;
  const int backward_workers = parallel ? threads : 1;
  if (forward_workers > 1) {
    PanelDag<T> dag(f, x, nrhs, ldx, true, tracer, dag_scratch<T>());
    dag.run(threads);
    forward_end = dag.forward_end();
  } else {
    if (nrhs < kTileMinRhs) {
      for (index_t c = 0; c < nrhs; ++c) solve_forward(f, column(c));
    } else {
      solve_forward_multi(f, x, nrhs, ldx);
    }
    if (tracer != nullptr) forward_end = tracer->now();
    if (backward_workers > 1) {
      PanelDag<T>(f, x, nrhs, ldx, false, nullptr, dag_scratch<T>())
          .run(threads);
    } else if (nrhs < kTileMinRhs) {
      for (index_t c = 0; c < nrhs; ++c) {
        if (ldlt) solve_diagonal(f, column(c));
        solve_backward(f, column(c));
      }
    } else {
      if (ldlt) solve_diagonal_multi(f, x, nrhs, ldx);
      solve_backward_multi(f, x, nrhs, ldx);
    }
  }
  if (tracer != nullptr) {
    tracer->record_span("solver.solve.forward", "service-", spans.parent,
                        start, forward_end, 0, forward_workers);
    tracer->record_span("solver.solve.backward", "service-", spans.parent,
                        forward_end, tracer->now(), 0, backward_workers);
  }
}

#define SPX_INSTANTIATE_SOLVE(T)                                   \
  template void solve_forward<T>(const FactorData<T>&, std::span<T>,       \
                                 index_t);                                 \
  template void solve_diagonal<T>(const FactorData<T>&, std::span<T>,      \
                                  index_t);                                \
  template void solve_backward<T>(const FactorData<T>&, std::span<T>,      \
                                  index_t);                                \
  template void solve_permuted<T>(const FactorData<T>&, std::span<T>);      \
  template void solve_forward_multi<T>(const FactorData<T>&, T*, index_t,  \
                                       index_t);                           \
  template void solve_diagonal_multi<T>(const FactorData<T>&, T*, index_t, \
                                        index_t);                          \
  template void solve_backward_multi<T>(const FactorData<T>&, T*, index_t, \
                                        index_t);                          \
  template void solve_permuted_multi<T>(const FactorData<T>&, T*, index_t, \
                                        index_t, int, SolveSpans);

SPX_INSTANTIATE_SOLVE(real_t)
SPX_INSTANTIATE_SOLVE(complex_t)
SPX_INSTANTIATE_SOLVE(real32_t)

}  // namespace spx
