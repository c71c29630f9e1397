// Span-trace tests: coverage, ordering, JSON export, and agreement
// between recorded busy time and driver statistics.  Both drivers record
// into an obs::Tracer: the simulator in virtual seconds, the real driver
// on the tracer's clock.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>

#include "core/sim_runner.hpp"
#include "core/solver.hpp"
#include "mat/generators.hpp"
#include "obs/export.hpp"
#include "runtime/flop_costs.hpp"
#include "runtime/parsec_scheduler.hpp"
#include "runtime/real_driver.hpp"
#include "runtime/starpu_scheduler.hpp"
#include "sim/cost_model.hpp"
#include "sim/sim_driver.hpp"

namespace spx {
namespace {

/// Retained spans of `tracer` on timeline `track` ("worker-", "dma-").
std::vector<obs::SpanRecord> on_track(const obs::Tracer& tracer,
                                      const char* track) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : tracer.snapshot()) {
    if (std::strcmp(s.track, track) == 0) out.push_back(s);
  }
  return out;
}

TEST(Trace, SimRecordsEveryTask) {
  const Analysis an = analyze(gen::grid2d_laplacian(14, 14));
  TaskTable table(an.structure, Factorization::LLT);
  sim::CostModel model(sim::mirage(), an.structure, Factorization::LLT, {});
  Machine machine(4);
  ParsecScheduler sched(table, machine, model);
  obs::Tracer trace;
  sim::SimOptions opts;
  opts.trace = &trace;
  const RunStats st = sim::simulate(sched, machine, table, model,
                                    an.total_flops(Factorization::LLT),
                                    opts);
  auto events = on_track(trace, "worker-");
  EXPECT_EQ(events.size(), static_cast<std::size_t>(table.num_tasks()));
  EXPECT_EQ(events.size(), trace.size());  // no transfers without GPUs
  // Events on a resource must not overlap, and busy time must match.
  std::vector<double> busy(machine.num_resources(), 0.0);
  std::vector<double> last_end(machine.num_resources(), 0.0);
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  for (const auto& e : events) {
    ASSERT_GE(e.start, last_end[e.resource] - 1e-12);
    ASSERT_LE(e.end, st.makespan + 1e-12);
    last_end[e.resource] = e.end;
    busy[e.resource] += e.end - e.start;
  }
  for (int r = 0; r < machine.num_resources(); ++r) {
    EXPECT_NEAR(busy[r], st.busy[r], 1e-9);
  }
}

TEST(Trace, SimRecordsTransfersWithGpus) {
  const Analysis an = analyze(gen::grid3d_laplacian(10, 10, 10));
  TaskTable table(an.structure, Factorization::LLT);
  sim::CostModel::Options mo;
  sim::CostModel model(sim::mirage(), an.structure, Factorization::LLT, mo);
  Machine machine(4, 1, 2);
  ParsecOptions popts;
  popts.gpu_min_flops = 1e5;
  ParsecScheduler sched(table, machine, model, popts);
  obs::Tracer trace;
  sim::SimOptions opts;
  opts.trace = &trace;
  opts.prefetch = false;
  sim::simulate(sched, machine, table, model,
                an.total_flops(Factorization::LLT), opts);
  EXPECT_GT(on_track(trace, "dma-").size(), 0u);
  EXPECT_EQ(on_track(trace, "worker-").size(),
            static_cast<std::size_t>(table.num_tasks()));
}

TEST(Trace, SimNamesTransfersLikeTheDeviceEngines) {
  // The simulator's DMA spans carry the names, track and args that
  // EmulatedAcceleratorEngine::note_transfer records in a real run:
  // "transfer.h2d"/"transfer.d2h" on "dma-<gpu>", panel and bytes.
  const Analysis an = analyze(gen::grid3d_laplacian(10, 10, 10));
  TaskTable table(an.structure, Factorization::LLT);
  sim::CostModel model(sim::mirage(), an.structure, Factorization::LLT, {});
  Machine machine(4, 2, 1);
  DataDirectory directory(an.structure, Factorization::LLT, sizeof(real_t),
                          machine.num_gpus());
  StarpuOptions sopts;
  sopts.gpu_min_flops = 0;
  StarpuScheduler sched(table, machine, model, sopts, &directory);
  obs::Tracer trace;
  sim::SimOptions opts;
  opts.directory = &directory;
  opts.trace = &trace;
  const RunStats st = sim::simulate(sched, machine, table, model,
                                    an.total_flops(Factorization::LLT),
                                    opts);
  ASSERT_GT(st.tasks_gpu, 0);
  double h2d = 0.0, d2h = 0.0;
  for (const obs::SpanRecord& s : on_track(trace, "dma-")) {
    const std::string_view name = s.name;
    ASSERT_TRUE(name == "transfer.h2d" || name == "transfer.d2h") << name;
    EXPECT_GE(s.resource, 0);
    EXPECT_LT(s.resource, machine.num_gpus());
    EXPECT_GE(s.arg0, 0);  // panel
    EXPECT_LT(s.arg0, an.structure.num_panels());
    EXPECT_GT(s.arg1, 0);  // bytes
    EXPECT_LE(s.start, s.end);
    (name == "transfer.h2d" ? h2d : d2h) += static_cast<double>(s.arg1);
  }
  EXPECT_GT(h2d, 0.0);
  EXPECT_GT(d2h, 0.0);
  EXPECT_NEAR(h2d, st.bytes_h2d, 1e-6 * st.bytes_h2d + 8.0 * trace.size());
  EXPECT_NEAR(d2h, st.bytes_d2h, 1e-6 * st.bytes_d2h + 8.0 * trace.size());
  std::ostringstream out;
  obs::write_chrome_trace(trace.snapshot(), out);
  EXPECT_NE(out.str().find("\"tid\": \"dma-0\""), std::string::npos);
  EXPECT_NE(out.str().find("\"cat\": \"transfer.h2d\""), std::string::npos);
}

TEST(Trace, RealDriverRecords) {
  const auto a = gen::grid2d_laplacian(12, 12);
  const Analysis an = analyze(a);
  FactorData<real_t> f(an.structure, Factorization::LLT);
  f.initialize(permute_symmetric(a, an.perm));
  TaskTable table(an.structure, Factorization::LLT);
  Machine machine(3);
  FlopCosts costs(table);
  ParsecScheduler sched(table, machine, costs);
  obs::Tracer trace;
  RealDriverOptions opts;
  opts.instr.tracer = &trace;
  const RunStats st = execute_real(sched, machine, f, opts);
  auto events = on_track(trace, "worker-");
  EXPECT_EQ(events.size(), static_cast<std::size_t>(table.num_tasks()));
  // One worker thread per resource: its spans never overlap.
  std::vector<double> last_end(machine.num_resources(), 0.0);
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  for (const auto& e : events) {
    ASSERT_GE(e.resource, 0);
    ASSERT_LT(e.resource, machine.num_resources());
    ASSERT_GE(e.start, last_end[e.resource]);
    last_end[e.resource] = e.end;
  }
  EXPECT_EQ(st.busy.size(), static_cast<std::size_t>(machine.num_resources()));
}

TEST(Trace, ChromeJsonWellFormed) {
  const Analysis an = analyze(gen::grid2d_laplacian(8, 8));
  TaskTable table(an.structure, Factorization::LLT);
  sim::CostModel model(sim::mirage(), an.structure, Factorization::LLT, {});
  Machine machine(2);
  ParsecScheduler sched(table, machine, model);
  obs::Tracer trace;
  sim::SimOptions opts;
  opts.trace = &trace;
  sim::simulate(sched, machine, table, model, 1e9, opts);
  std::ostringstream out;
  obs::write_chrome_trace(trace.snapshot(), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Balanced braces and one record per event.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(json.begin(), json.end(), '\n')) -
                3,  // header + footer lines
            trace.size() - 1);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Trace, ClearResets) {
  obs::Tracer trace;
  trace.record_span("panel", "worker-", {}, 0.0, 1.0, 0, 3);
  EXPECT_EQ(trace.size(), 1u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.snapshot().empty());
}

TEST(Trace, JsonEscape) {
  EXPECT_EQ(obs::json_escape("plain p12 e3"), "plain p12 e3");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("x\ny\tz\r"), "x\\ny\\tz\\r");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
}

TEST(Trace, JsonKeepsSubMicrosecondPrecisionPastOneSecond) {
  // Regression: default 6-significant-digit float formatting rounded ts
  // to whole milliseconds once start exceeded ~1 s.
  obs::Tracer trace;
  trace.record_span("panel", "worker-", {}, 2.0000005, 2.0000015, 0, 1);
  std::ostringstream out;
  obs::write_chrome_trace(trace.snapshot(), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ts\": 2000000.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\": 1.000"), std::string::npos) << json;
  // Stream formatting state must be restored after export.
  std::ostringstream probe;
  obs::write_chrome_trace(trace.snapshot(), probe);
  probe << 0.5;
  EXPECT_NE(probe.str().find("0.5"), std::string::npos);
  EXPECT_EQ(probe.str().find("0.500000"), std::string::npos);
}

// Minimal JSON reader (objects, arrays, strings with escapes, numbers,
// literals) -- enough to prove the export round-trips through a real
// parser instead of eyeballing substrings.
class MiniJsonReader {
 public:
  explicit MiniJsonReader(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool parse() {
    skip_ws();
    const bool ok = value();
    skip_ws();
    return ok && p_ == end_;
  }
  int events() const { return events_; }
  const std::vector<double>& ts_values() const { return ts_; }

 private:
  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' ||
                         *p_ == '\t')) {
      ++p_;
    }
  }
  bool value() {
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string(nullptr);
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number(nullptr);
    }
  }
  bool object() {
    ++p_;  // {
    ++events_;
    skip_ws();
    if (p_ < end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (p_ >= end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      if (key == "ts") {
        double v = 0;
        if (!number(&v)) return false;
        ts_.push_back(v);
      } else if (!value()) {
        return false;
      }
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      break;
    }
    if (p_ >= end_ || *p_ != '}') return false;
    ++p_;
    return true;
  }
  bool array() {
    ++p_;  // [
    skip_ws();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        skip_ws();
        continue;
      }
      break;
    }
    if (p_ >= end_ || *p_ != ']') return false;
    ++p_;
    return true;
  }
  bool string(std::string* out) {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
        if (*p_ == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ >= end_ || !std::isxdigit(static_cast<unsigned char>(
                                  *p_))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(*p_) ==
                   std::string::npos) {
          return false;
        }
        ++p_;
        continue;
      }
      if (static_cast<unsigned char>(*p_) < 0x20) return false;  // raw ctl
      if (out != nullptr) out->push_back(*p_);
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;
    return true;
  }
  bool number(double* out) {
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '-' || *p_ == '+')) {
      digits = true;
      ++p_;
    }
    if (!digits) return false;
    if (out != nullptr) *out = std::strtod(start, nullptr);
    return true;
  }
  bool literal(const char* lit) {
    for (const char* c = lit; *c != '\0'; ++c, ++p_) {
      if (p_ >= end_ || *p_ != *c) return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  int events_ = 0;
  std::vector<double> ts_;
};

TEST(Trace, ChromeJsonRoundTripsThroughParser) {
  obs::Tracer trace;
  // Names include every escaped class via the panel/edge digits plus the
  // long-run timestamps that used to lose precision.
  trace.record_span("panel", "worker-", {}, 0.25, 0.5, 0, 7);
  trace.record_span("update", "worker-", {}, 1.0000005, 1.25, 1, 7, 2);
  trace.record_span("subtree", "worker-", {}, 3.5, 4.75, 0, 3);
  trace.record_span("transfer.h2d", "dma-", {}, 0.125, 0.375, 0, 9, 4096);
  std::ostringstream out;
  obs::write_chrome_trace(trace.snapshot(), out);
  const std::string json = out.str();  // keep alive: reader holds pointers
  MiniJsonReader reader(json);
  ASSERT_TRUE(reader.parse()) << json;
  // Outer object + one object per event and transfer.
  EXPECT_EQ(reader.events(), 5);
  ASSERT_EQ(reader.ts_values().size(), 4u);
  EXPECT_NEAR(reader.ts_values()[0], 0.25 * 1e6, 1e-6);
  EXPECT_NEAR(reader.ts_values()[1], 1.0000005 * 1e6, 1e-3);
  EXPECT_NEAR(reader.ts_values()[2], 3.5 * 1e6, 1e-6);
  EXPECT_NEAR(reader.ts_values()[3], 0.125 * 1e6, 1e-6);
}

}  // namespace
}  // namespace spx
