// Observability-layer unit tests (DESIGN.md §11, docs/OBSERVABILITY.md):
// sharded metric exactness under contention, span parent/child integrity,
// the bounded tracer ring, exporter golden files and Exportable golden
// keys.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "runtime/run_stats.hpp"
#include "runtime/task.hpp"
#include "service/service_stats.hpp"

namespace spx {
namespace {

// ---- metrics registry ---------------------------------------------------

TEST(Registry, CounterExactUnderEightThreads) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("t_total");
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < 20000; ++i) c.inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), 8 * 20000.0);
  EXPECT_EQ(reg.value("t_total"), 8 * 20000.0);
}

TEST(Registry, HistogramExactUnderEightThreads) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("t_seconds", {1.0, 2.0});
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&h, t] {
      // Threads 0..3 observe 0.5 (first bucket), 4..7 observe 8 (+Inf).
      for (int i = 0; i < 5000; ++i) h.observe(t < 4 ? 0.5 : 8.0);
    });
  }
  for (std::thread& w : workers) w.join();
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 40000u);
  ASSERT_EQ(s.cumulative.size(), 3u);
  EXPECT_EQ(s.cumulative[0], 20000u);  // le=1
  EXPECT_EQ(s.cumulative[1], 20000u);  // le=2
  EXPECT_EQ(s.cumulative[2], 40000u);  // +Inf
  EXPECT_DOUBLE_EQ(s.sum, 20000 * 0.5 + 20000 * 8.0);
}

TEST(Registry, LabelsAreSortedIntoOneSeries) {
  obs::MetricsRegistry reg;
  obs::Counter& a =
      reg.counter("t_total", "", {{"a", "1"}, {"b", "2"}});
  obs::Counter& b =
      reg.counter("t_total", "", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(reg.value("t_total", {{"b", "2"}, {"a", "1"}}), 1.0);
}

TEST(Registry, TypeConflictThrows) {
  obs::MetricsRegistry reg;
  reg.counter("t_total");
  EXPECT_THROW(reg.gauge("t_total"), InvalidArgument);
  reg.histogram("t_seconds", {1.0});
  EXPECT_THROW(reg.histogram("t_seconds", {2.0}), InvalidArgument);
}

TEST(Registry, ValueOfUnknownSeriesIsZero) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.value("never_registered"), 0.0);
}

// ---- span tracer --------------------------------------------------------

TEST(Span, ParentChildIntegrityAcrossThreads) {
  obs::Tracer tracer;
  const obs::SpanContext root = tracer.new_trace();
  obs::ScopedSpan parent(&tracer, "parent", "span-", root);
  // Children on worker threads parent to the still-open span (the id is
  // allocated at construction) and *record before it* -- the scheduler
  // task pattern.
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&tracer, &parent, t] {
      obs::ScopedSpan child(&tracer, "child", "worker-", parent.context(),
                            t);
    });
  }
  for (std::thread& w : workers) w.join();
  parent.finish();

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 5u);
  // The parent records last but every child links to it, in its trace.
  const obs::SpanRecord& p = spans.back();
  EXPECT_STREQ(p.name, "parent");
  EXPECT_EQ(p.trace_id, root.trace_id);
  for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_STREQ(spans[i].name, "child");
    EXPECT_EQ(spans[i].parent_id, p.span_id);
    EXPECT_EQ(spans[i].trace_id, p.trace_id);
    EXPECT_GE(spans[i].end, spans[i].start);
  }
}

TEST(Span, RingKeepsNewestAndCountsDrops) {
  obs::Tracer tiny(4);
  for (int i = 0; i < 10; ++i) {
    tiny.record_span("x", "span-", {}, double(i), double(i) + 1, 0, i);
  }
  EXPECT_EQ(tiny.size(), 4u);
  EXPECT_EQ(tiny.total_recorded(), 10u);
  EXPECT_EQ(tiny.dropped(), 6u);
  const std::vector<obs::SpanRecord> spans = tiny.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].arg0, 6 + i);  // oldest first
  }
  tiny.clear();
  EXPECT_EQ(tiny.size(), 0u);
  EXPECT_EQ(tiny.dropped(), 0u);
}

TEST(Span, ScopedSpanIsInertWithoutTracerAndFinishIsIdempotent) {
  obs::ScopedSpan inert;  // must not crash on destruction
  EXPECT_FALSE(inert.active());

  obs::Tracer tracer;
  obs::ScopedSpan s(&tracer, "x", "span-", {});
  EXPECT_TRUE(s.active());
  s.finish();
  s.finish();
  EXPECT_FALSE(s.active());
  EXPECT_EQ(tracer.size(), 1u);

  obs::ScopedSpan a(&tracer, "moved", "span-", {});
  obs::ScopedSpan b(std::move(a));
  EXPECT_FALSE(a.active());
  b.finish();
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(Obs, RuntimeSwitchSkipsStatementEntirely) {
  obs::set_enabled(false);
  int hits = 0;
  SPX_OBS(++hits);
  EXPECT_EQ(hits, 0);
  obs::set_enabled(true);
  SPX_OBS(++hits);
  EXPECT_EQ(hits, 1);
}

// ---- exporters ----------------------------------------------------------

TEST(Export, PrometheusMatchesGoldenFile) {
  obs::MetricsRegistry reg;
  reg.counter("spx_golden_requests_total", "Requests handled",
              {{"kind", "panel"}, {"resource", "cpu"}})
      .inc(3);
  reg.counter("spx_golden_requests_total", "Requests handled",
              {{"kind", "update"}, {"resource", "gpu"}})
      .inc();
  reg.gauge("spx_golden_queue_depth", "Current queue depth").set(2);
  obs::Histogram& h =
      reg.histogram("spx_golden_seconds", {0.5, 1.0, 2.0}, "Latency");
  h.observe(0.25);
  h.observe(0.5);  // inclusive upper bound: still the first bucket
  h.observe(0.5);
  h.observe(4.0);

  std::ifstream golden(std::string(SPX_SOURCE_DIR) +
                       "/tests/golden/metrics.prom");
  ASSERT_TRUE(golden.good()) << "tests/golden/metrics.prom missing";
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(obs::prometheus_text(reg), want.str());
}

TEST(Export, ChromeTraceMatchesLegacyRecorderByteForByte) {
  // The task spans both drivers record, as the exporter names them.
  obs::Tracer tracer;
  tracer.record_span(to_string(TaskKind::Panel), "worker-", {}, 0.0, 1.0, 0,
                     3);
  tracer.record_span(to_string(TaskKind::Update), "worker-", {}, 0.5, 1.5,
                     1, 5, 2);
  tracer.record_span("transfer.h2d", "dma-", {}, 0.1, 0.2, 0, 7, 4096);

  std::ostringstream via_exporter;
  obs::write_chrome_trace(tracer.snapshot(), via_exporter);

  // Legacy naming survives: "<kind> p<panel>[ e<edge>]" on "<track><id>".
  const std::string out = via_exporter.str();
  EXPECT_NE(out.find("\"name\": \"panel p3\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"update p5 e2\""), std::string::npos);
  EXPECT_NE(out.find("\"tid\": \"worker-0\""), std::string::npos);
  EXPECT_NE(out.find("\"tid\": \"worker-1\""), std::string::npos);
  EXPECT_NE(out.find("\"tid\": \"dma-0\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"transfer.h2d p7 e4096\""),
            std::string::npos);
}

TEST(Export, SpansJsonCarriesIdsAndParentLinks) {
  obs::Tracer tracer;
  const obs::SpanContext root = tracer.new_trace();
  const obs::SpanContext parent =
      tracer.record_span("a", "span-", root, 0.0, 1.0);
  tracer.record_span("b", "worker-", parent, 0.25, 0.5, 3, 7, 2);

  const json::Value v = obs::spans_to_json(tracer.snapshot());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.at(0).at("name").as_string(), "a");
  EXPECT_EQ(v.at(1).at("name").as_string(), "b");
  EXPECT_EQ(v.at(1).at("parent").as_number(),
            v.at(0).at("span").as_number());
  EXPECT_EQ(v.at(1).at("track").as_string(), "worker-3");
  EXPECT_EQ(v.at(1).at("arg0").as_number(), 7.0);
}

// ---- Exportable golden keys ---------------------------------------------

TEST(Export, RunStatsGoldenKeys) {
  RunStats st;
  st.makespan = 2.0;
  st.gflops = 1.5;
  st.tasks_cpu = 10;
  st.tasks_gpu = 4;
  const json::Value v = obs::to_json(st);
  EXPECT_EQ(v.at("makespan_s").as_number(), 2.0);
  EXPECT_EQ(v.at("gflops").as_number(), 1.5);
  EXPECT_EQ(v.at("tasks_cpu").as_number(), 10.0);
  EXPECT_EQ(v.at("tasks_gpu").as_number(), 4.0);
  EXPECT_FALSE(v.at("busy_fraction").is_null());
  EXPECT_FALSE(v.at("degraded").is_null());
  // The legacy emitter elided transfer bytes for CPU-only runs.
  EXPECT_TRUE(v.number_or("bytes_h2d", -1) == -1);
}

TEST(Export, FactorQualityGoldenKeys) {
  FactorQuality q;
  q.perturbed_pivots = 2;
  q.perturbed_columns = {1, 3};
  q.threshold = 1e-12;
  const json::Value v = obs::to_json(q);
  EXPECT_EQ(v.at("perturbed_pivots").as_number(), 2.0);
  EXPECT_EQ(v.at("perturbed_columns").size(), 2u);
  EXPECT_FALSE(v.at("degraded").is_null());
  EXPECT_FALSE(v.at("pivot_growth").is_null());
  EXPECT_FALSE(v.at("anorm").is_null());
  EXPECT_FALSE(v.at("indefinite").is_null());
}

TEST(Export, ServiceStatsGoldenKeys) {
  service::ServiceStats st;
  st.submitted = 5;
  st.completed = 4;
  st.failed = 1;
  st.errors[0] = 4;
  st.cache.hits = 2;
  const json::Value v = obs::to_json(st);
  EXPECT_EQ(v.at("submitted").as_number(), 5.0);
  EXPECT_EQ(v.at("completed").as_number(), 4.0);
  EXPECT_EQ(v.at("failed").as_number(), 1.0);
  EXPECT_EQ(v.at("errors").at("none").as_number(), 4.0);
  EXPECT_EQ(v.at("cache").at("hits").as_number(), 2.0);
  EXPECT_EQ(v.at("health").as_string(), "degraded");
}

}  // namespace
}  // namespace spx
