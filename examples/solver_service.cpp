// Solve service walkthrough: the multi-tenant serving layer over the
// Solver facade (src/service/).
//
// Simulates two tenants of an in-process solver farm:
//   - "circuit" refactorizes one sparsity pattern with fresh values each
//     iteration (transient simulation): step 0 pays the full
//     analyze+factorize, every later step ships ONLY the new values
//     through the numeric-only refactorize fast path, which reuses both
//     the cached analysis and the allocated factors.
//   - "fem" fires a burst of right-hand sides at one factorization: the
//     batching window coalesces them into a single blocked solve_multi.
// Finishes by printing the per-request and service-wide stats as JSON --
// the same surface a monitoring endpoint would export.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "mat/generators.hpp"
#include "obs/export.hpp"
#include "service/solve_service.hpp"

using namespace spx;
using service::FactorizeResult;
using service::RequestOptions;
using service::ServiceOptions;
using service::SolveResult;
using service::SolveService;
using service::Ticket;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto nx = static_cast<index_t>(cli.get_int("nx", 40));
  const int steps = static_cast<int>(cli.get_int("steps", 6));
  const int burst = static_cast<int>(cli.get_int("burst", 8));
  cli.check_unknown();

  ServiceOptions options;
  options.num_workers = 2;
  options.batch_window = 0.002;  // 2ms linger to coalesce solve bursts
  SolveService svc(options);

  // --- tenant "circuit": same pattern, new values every time step ------
  const auto base = gen::grid2d_laplacian(nx, nx);
  std::printf("tenant \"circuit\": 1 factorization + %d refactorizations "
              "of one %d-unknown pattern\n", steps - 1, base.ncols());
  const FactorizeResult first = svc.factorize(
      "circuit", std::make_shared<const CscMatrix<real_t>>(base),
      Factorization::LLT);
  if (!first.ok()) {
    std::fprintf(stderr, "factorize failed: %s\n", first.error.c_str());
    return 1;
  }
  std::printf("  step 0: full      analyze %6.2fms  factorize %6.2fms\n",
              first.stats.analyze_s * 1e3, first.stats.factorize_s * 1e3);
  for (int step = 1; step < steps; ++step) {
    // New values, identical sparsity structure (a shifted operator):
    // only the nnz doubles travel, the symbolic work is never redone.
    auto vals = std::vector<real_t>(base.values().begin(),
                                    base.values().end());
    for (auto& v : vals) v += 0.01 * (step + 1) * (v > 2.0 ? 1.0 : 0.0);
    const FactorizeResult fr =
        svc.refactorize("circuit", first.factor, std::move(vals));
    if (!fr.ok()) {
      std::fprintf(stderr, "refactorize failed: %s\n", fr.error.c_str());
      return 1;
    }
    std::printf("  step %d: refactor  analyze %6.2fms  factorize %6.2fms\n",
                step, fr.stats.analyze_s * 1e3, fr.stats.factorize_s * 1e3);
  }

  // --- tenant "fem": a burst of RHS against one factor -----------------
  const auto mesh = std::make_shared<const CscMatrix<real_t>>(
      gen::grid3d_laplacian(8, 8, 8));
  const FactorizeResult fem =
      svc.factorize("fem", mesh, Factorization::LLT);
  if (!fem.ok()) {
    std::fprintf(stderr, "fem factorize failed: %s\n", fem.error.c_str());
    return 1;
  }
  std::printf("\ntenant \"fem\": burst of %d solves against one factor\n",
              burst);
  std::vector<Ticket<SolveResult>> tickets;
  tickets.reserve(static_cast<std::size_t>(burst));
  for (int i = 0; i < burst; ++i) {
    std::vector<real_t> b(static_cast<std::size_t>(mesh->ncols()), 1.0);
    b[static_cast<std::size_t>(i)] += 1.0;  // each RHS slightly different
    tickets.push_back(svc.submit_solve(RequestOptions{.tenant = "fem"},
                                       fem.factor, std::move(b)));
  }
  index_t widest = 0;
  for (auto& t : tickets) {
    const SolveResult sr = t.get();
    if (!sr.ok()) {
      std::fprintf(stderr, "solve failed: %s\n", sr.error.c_str());
      return 1;
    }
    widest = std::max(widest, sr.stats.batched_rhs);
  }
  std::printf("  widest coalesced batch: %d RHS per traversal\n",
              static_cast<int>(widest));

  // --- the stats surface ------------------------------------------------
  std::printf("\nlast fem request as JSON:\n%s\n",
              obs::to_json(fem.stats).dump().c_str());
  std::printf("\nservice totals as JSON:\n%s\n",
              obs::to_json(svc.stats()).dump().c_str());
  return 0;
}
