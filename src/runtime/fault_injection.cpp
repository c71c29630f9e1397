#include "runtime/fault_injection.hpp"

#include <chrono>
#include <thread>

#include "obs/obs.hpp"

namespace spx {

namespace {

// Fired faults land in the global registry, labeled by action: the fault
// sites are process-rare events, not hot paths, so the registration
// lookup per fire is fine.
void count_fired(FaultAction a) {
  SPX_OBS(obs::MetricsRegistry::global()
              .counter("spx_faults_injected_total",
                       "Armed faults that actually fired",
                       {{"action", to_string(a)}})
              .inc());
}

}  // namespace

const char* to_string(FaultAction a) {
  switch (a) {
    case FaultAction::None: return "none";
    case FaultAction::Throw: return "throw";
    case FaultAction::Stall: return "stall";
    case FaultAction::CorruptPivot: return "corrupt-pivot";
    case FaultAction::AllocFail: return "alloc-fail";
    case FaultAction::StallTransfer: return "stall-transfer";
    case FaultAction::DropFrame: return "drop-frame";
    case FaultAction::TruncateFrame: return "truncate-frame";
    case FaultAction::DelayFrame: return "delay-frame";
    case FaultAction::CorruptFrame: return "corrupt-frame";
    case FaultAction::AbortConnection: return "abort-connection";
  }
  return "?";
}

bool is_wire_fault(FaultAction a) {
  switch (a) {
    case FaultAction::DropFrame:
    case FaultAction::TruncateFrame:
    case FaultAction::DelayFrame:
    case FaultAction::CorruptFrame:
    case FaultAction::AbortConnection:
      return true;
    default:
      return false;
  }
}

namespace {

// splitmix64: tiny, high-quality mixer; enough to spread seeds over the
// task-ordinal range without dragging in <random>.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultPlan FaultPlan::nth_task(FaultAction a, std::uint64_t n, double stall) {
  FaultPlan p;
  p.action = a;
  p.victim = n;
  p.stall_seconds = stall;
  return p;
}

FaultPlan FaultPlan::seeded(FaultAction a, std::uint64_t seed,
                            std::uint64_t ntasks, double stall) {
  return nth_task(a, ntasks == 0 ? 0 : mix64(seed) % ntasks, stall);
}

bool FaultInjector::on_task_start() {
  const std::uint64_t ord = started_.fetch_add(1, std::memory_order_relaxed);
  if (ord != plan_.victim) return false;
  switch (plan_.action) {
    case FaultAction::Throw:
      fired_.fetch_add(1, std::memory_order_relaxed);
      count_fired(plan_.action);
      throw InjectedFault("injected fault at task ordinal " +
                          std::to_string(ord));
    case FaultAction::Stall:
      fired_.fetch_add(1, std::memory_order_relaxed);
      count_fired(plan_.action);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(plan_.stall_seconds));
      return false;
    case FaultAction::CorruptPivot:
      fired_.fetch_add(1, std::memory_order_relaxed);
      count_fired(plan_.action);
      return true;
    default:
      return false;
  }
}

FaultAction FaultInjector::on_wire_frame() {
  const std::uint64_t ord =
      wire_frames_.fetch_add(1, std::memory_order_relaxed);
  if (!is_wire_fault(plan_.action) || ord != plan_.victim) {
    return FaultAction::None;
  }
  fired_.fetch_add(1, std::memory_order_relaxed);
  count_fired(plan_.action);
  return plan_.action;
}

void FaultInjector::on_transfer_start() {
  const std::uint64_t ord =
      transfers_started_.fetch_add(1, std::memory_order_relaxed);
  if (plan_.action != FaultAction::StallTransfer || ord != plan_.victim) {
    return;
  }
  fired_.fetch_add(1, std::memory_order_relaxed);
  count_fired(plan_.action);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(plan_.stall_seconds));
}

bool FaultInjector::fail_alloc(std::size_t /*bytes*/) {
  if (plan_.action != FaultAction::AllocFail) return false;
  // Factorize performs at most one factor allocation per attempt (a
  // repeat of one analysis and kind reuses its storage), so under
  // AllocFail the first allocation after (re)arming is the victim.
  if (started_.fetch_add(1, std::memory_order_relaxed) != 0) return false;
  fired_.fetch_add(1, std::memory_order_relaxed);
  count_fired(plan_.action);
  return true;
}

}  // namespace spx
