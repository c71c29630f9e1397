// Observability snapshot tool (and the obs layer's CI self-check).
//
//   tools/obs_dump [--format prom|json|chrome] [--n <grid>] [--runtime R]
//     Runs one instrumented factorize+solve workload against a private
//     registry + tracer and dumps the result to stdout: a Prometheus
//     text exposition (`prom`, default), a structured JSON scrape with
//     the span stream (`json`), or chrome://tracing JSON (`chrome`).
//
//   tools/obs_dump --self-check
//     Exercises the whole layer end to end -- sharded counters under
//     threads, histogram buckets, span parent links across the
//     service -> solver -> driver boundary, exporter well-formedness,
//     metrics/stats reconciliation -- and exits non-zero on any
//     violation.  Wired into ctest (obs_dump_self_check).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mat/generators.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace spx;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "obs_dump: FAIL: %s\n", what);
    ++failures;
  }
}

/// One small instrumented service workload: n x n grid Laplacian,
/// factorize, refactorize, solve and a cached factorize, every span and
/// metric captured in the private registry/tracer.
void run_workload(obs::MetricsRegistry& registry, obs::Tracer& tracer,
                  RuntimeKind runtime, int grid) {
  service::ServiceOptions opts;
  opts.solver.instr.metrics = &registry;
  opts.solver.instr.tracer = &tracer;
  opts.solver.runtime = runtime;
  opts.solver.num_threads = 2;
  opts.num_workers = 2;
  service::SolveService svc(opts);
  const auto a = std::make_shared<const CscMatrix<real_t>>(
      gen::grid2d_laplacian(grid, grid));
  const service::FactorizeResult fr =
      svc.factorize("obs-dump", a, Factorization::LLT);
  if (!fr.ok()) {
    std::fprintf(stderr, "obs_dump: factorize failed: %s\n",
                 fr.error.c_str());
    ++failures;
    return;
  }
  // Doubling every value keeps the Laplacian SPD.
  std::vector<real_t> values(a->values().begin(), a->values().end());
  for (real_t& v : values) v *= 2;
  const service::FactorizeResult rr =
      svc.refactorize("obs-dump", fr.factor, std::move(values));
  if (!rr.ok()) {
    std::fprintf(stderr, "obs_dump: refactorize failed: %s\n",
                 rr.error.c_str());
    ++failures;
  }
  std::vector<real_t> rhs(static_cast<std::size_t>(a->ncols()), 1.0);
  (void)svc.solve("obs-dump", fr.factor, rhs);
  (void)svc.factorize("obs-dump", a, Factorization::LLT);  // cache hit
}

int self_check() {
  // 1. Sharded counter exactness under contention: 8 threads x 10k incs.
  {
    obs::MetricsRegistry reg;
    obs::Counter& c = reg.counter("check_total", "self-check counter");
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&c] {
        for (int i = 0; i < 10000; ++i) c.inc();
      });
    }
    for (std::thread& t : threads) t.join();
    check(c.value() == 80000.0, "sharded counter sums exactly");
  }

  // 2. Histogram bucket placement (inclusive upper bounds + +Inf).
  {
    obs::MetricsRegistry reg;
    obs::Histogram& h =
        reg.histogram("check_seconds", {0.1, 1.0}, "self-check histogram");
    h.observe(0.05);
    h.observe(0.1);   // inclusive: lands in the 0.1 bucket
    h.observe(0.5);
    h.observe(5.0);   // +Inf bucket
    const obs::Histogram::Snapshot s = h.snapshot();
    check(s.count == 4, "histogram total count");
    check(s.cumulative.size() == 3, "histogram bucket count");
    check(s.cumulative[0] == 2 && s.cumulative[1] == 3 &&
              s.cumulative[2] == 4,
          "histogram cumulative buckets");
  }

  // 3. End-to-end workload: spans thread one trace id from the service
  // request down to driver tasks, and the registry reconciles with
  // ServiceStats-style counters.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  run_workload(registry, tracer, RuntimeKind::Native, 12);
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  check(!spans.empty(), "workload recorded spans");
  std::uint64_t factorize_trace = 0;
  std::vector<std::uint64_t> factorize_spans;  // factorize + refactorize
  std::size_t tasks = 0, queue_waits = 0;
  for (const obs::SpanRecord& s : spans) {
    if (std::strcmp(s.name, "solver.factorize") == 0) {
      factorize_trace = s.trace_id;
      factorize_spans.push_back(s.span_id);
    }
    if (std::strcmp(s.name, "solver.refactorize") == 0) {
      factorize_spans.push_back(s.span_id);
    }
    if (std::strcmp(s.track, "worker-") == 0) ++tasks;
    if (std::strcmp(s.name, "service.queue.wait") == 0) ++queue_waits;
  }
  check(factorize_trace != 0, "solver.factorize span present");
  check(queue_waits >= 2, "queue-wait spans recorded");
  // Every numeric factorization assembles its input under its own span.
  std::size_t assembles = 0;
  for (const obs::SpanRecord& s : spans) {
    if (std::strcmp(s.name, "solver.assemble") != 0) continue;
    check(std::find(factorize_spans.begin(), factorize_spans.end(),
                    s.parent_id) != factorize_spans.end(),
          "solver.assemble parented under solver.(re)factorize");
    ++assembles;
  }
  check(assembles > 0 && assembles == factorize_spans.size(),
        "one solver.assemble span per solver.(re)factorize");
  // A request on an existing factor parents its solver span under its
  // own request span, in its own trace -- not under the request that
  // built the factor.
  const auto parent_of = [&spans](const obs::SpanRecord& s) {
    const obs::SpanRecord* found = nullptr;
    for (const obs::SpanRecord& p : spans) {
      if (p.span_id == s.parent_id) found = &p;
    }
    return found;
  };
  std::size_t refactorizes = 0, solves = 0;
  for (const obs::SpanRecord& s : spans) {
    const bool refactorize = std::strcmp(s.name, "solver.refactorize") == 0;
    if (!refactorize && std::strcmp(s.name, "solver.solve") != 0) continue;
    const obs::SpanRecord* p = parent_of(s);
    const bool ok = p != nullptr && p->trace_id == s.trace_id &&
                    std::strcmp(p->name, refactorize
                                             ? "service.refactorize"
                                             : "service.solve.batch") == 0;
    check(ok, refactorize
                  ? "solver.refactorize parented under service.refactorize"
                  : "solver.solve parented under service.solve.batch");
    ++(refactorize ? refactorizes : solves);
  }
  check(refactorizes == 1, "one solver.refactorize span");
  check(solves == 1, "one solver.solve span");
  std::size_t tasks_in_trace = 0;
  for (const obs::SpanRecord& s : spans) {
    if (std::strcmp(s.track, "worker-") != 0) continue;
    if (s.trace_id == factorize_trace) ++tasks_in_trace;
    check(s.end >= s.start, "span times ordered");
  }
  check(tasks > 0, "driver task spans recorded");
  // Driver tasks parent (transitively) under the factorize request's
  // trace: driver.run -> solver.factorize -> ... one trace id.
  check(tasks_in_trace > 0, "task spans share the factorize trace id");
  // The span stream parents are resolvable within the snapshot.
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == 0) continue;
    bool found = false;
    for (const obs::SpanRecord& p : spans) {
      if (p.span_id == s.parent_id) {
        found = true;
        check(p.trace_id == s.trace_id, "parent in the same trace");
        break;
      }
    }
    check(found, "parent span resolvable in the snapshot");
  }

  // 4. Registry reconciliation: the mirrored service counters match the
  // canonical atomics' semantics (2 factorizes + 1 refactorize + 1
  // solve, 1 cache hit).
  check(registry.value("spx_service_submitted_total") == 4.0,
        "submitted counter reconciles");
  check(registry.value("spx_service_factorizes_total") == 2.0,
        "factorize counter reconciles");
  check(registry.value("spx_service_refactorizes_total") == 1.0,
        "refactorize counter reconciles");
  check(registry.value("spx_service_solves_total") == 1.0,
        "solve counter reconciles");
  check(registry.value("spx_analysis_cache_hits_total") == 1.0,
        "cache hit counter reconciles");
  check(registry.value("spx_analysis_cache_misses_total") == 1.0,
        "cache miss counter reconciles");
  const double cpu = registry.value(
      "spx_tasks_executed_total", {{"kind", "panel"}, {"resource", "cpu"}});
  check(cpu > 0, "driver task counters populated");

  // 5. Exporters are well-formed: Prometheus exposition has HELP/TYPE
  // pairs, JSON parses back, chrome trace parses back.
  const std::string prom = obs::prometheus_text(registry);
  check(prom.find("# TYPE spx_service_submitted_total counter") !=
            std::string::npos,
        "prometheus TYPE line present");
  check(prom.find("spx_service_errors_total{code=\"none\"}") !=
            std::string::npos,
        "prometheus label block rendered");
  check(prom.find("spx_task_seconds_bucket") != std::string::npos,
        "prometheus histogram expansion present");
  try {
    (void)json::Value::parse(obs::metrics_to_json(registry).dump());
    (void)json::Value::parse(obs::spans_to_json(spans).dump());
    std::ostringstream chrome;
    obs::write_chrome_trace(spans, chrome);
    const json::Value parsed = json::Value::parse(chrome.str());
    check(parsed.at("traceEvents").size() == spans.size(),
          "chrome trace event per span");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_dump: exporter JSON invalid: %s\n", e.what());
    ++failures;
  }

  // 6. Ring bound: a tiny tracer drops oldest spans and counts them.
  {
    obs::Tracer tiny(4);
    for (int i = 0; i < 10; ++i) {
      tiny.record_span("x", "span-", {}, i, i + 1);
    }
    check(tiny.size() == 4, "ring retains capacity spans");
    check(tiny.dropped() == 6, "ring counts dropped spans");
    check(tiny.total_recorded() == 10, "ring counts all records");
  }

  // 7. The SPX_OBS runtime switch actually gates recording.
  {
    obs::MetricsRegistry reg;
    obs::Tracer quiet;
    obs::set_enabled(false);
    run_workload(reg, quiet, RuntimeKind::Native, 8);
    obs::set_enabled(true);
    check(quiet.size() == 0, "disabled layer records no spans");
    check(reg.value("spx_service_submitted_total") == 0.0,
          "disabled layer bumps no mirrored counters");
  }

  if (failures == 0) std::printf("obs_dump: self-check OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "prom";
  RuntimeKind runtime = RuntimeKind::Native;
  int grid = 16;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obs_dump: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--self-check") {
      self = true;
    } else if (arg == "--format") {
      format = next();
    } else if (arg == "--n") {
      grid = std::atoi(next().c_str());
    } else if (arg == "--runtime") {
      const std::string r = next();
      if (r == "sequential") runtime = RuntimeKind::Sequential;
      else if (r == "native") runtime = RuntimeKind::Native;
      else if (r == "starpu") runtime = RuntimeKind::Starpu;
      else if (r == "parsec") runtime = RuntimeKind::Parsec;
      else {
        std::fprintf(stderr, "obs_dump: unknown runtime '%s'\n", r.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: obs_dump [--self-check] [--format prom|json|"
                   "chrome] [--n GRID] [--runtime R]\n");
      return arg == "--help" ? 0 : 2;
    }
  }
  if (self) return self_check();

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  run_workload(registry, tracer, runtime, grid);
  if (failures > 0) return 1;
  if (format == "prom") {
    std::fputs(obs::prometheus_text(registry).c_str(), stdout);
  } else if (format == "json") {
    obs::JsonWriter w;
    w.field("metrics", obs::metrics_to_json(registry))
        .field("spans", obs::spans_to_json(tracer.snapshot()));
    std::printf("%s\n", std::move(w).take().dump().c_str());
  } else if (format == "chrome") {
    std::ostringstream out;
    obs::write_chrome_trace(tracer.snapshot(), out);
    std::fputs(out.str().c_str(), stdout);
  } else {
    std::fprintf(stderr, "obs_dump: unknown format '%s'\n", format.c_str());
    return 2;
  }
  return 0;
}
