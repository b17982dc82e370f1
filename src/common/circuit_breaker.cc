#include "common/circuit_breaker.h"

#include "common/logging.h"

namespace gpuperf {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  GP_CHECK(false) << "unhandled BreakerState";
  return "";
}

CircuitBreaker::CircuitBreaker(const BreakerPolicy& policy)
    : policy_(policy) {}

void CircuitBreaker::Advance(double now_us) {
  if (state_ == BreakerState::kOpen &&
      now_us >= open_since_us_ + policy_.cooldown_ms * 1e3) {
    state_ = BreakerState::kHalfOpen;
    probes_in_flight_ = 0;
    ++half_opens_;
  }
}

void CircuitBreaker::TripOpen(double now_us) {
  state_ = BreakerState::kOpen;
  open_since_us_ = now_us;
  consecutive_failures_ = 0;
  probes_in_flight_ = 0;
  ++opens_;
}

bool CircuitBreaker::AllowsAt(double now_us) {
  if (!enabled()) return true;
  Advance(now_us);
  switch (state_) {
    case BreakerState::kClosed: return true;
    case BreakerState::kOpen: return false;
    case BreakerState::kHalfOpen:
      return probes_in_flight_ < policy_.half_open_probes;
  }
  GP_CHECK(false) << "unhandled BreakerState";
  return false;
}

void CircuitBreaker::OnDispatch(double now_us) {
  if (!enabled()) return;
  Advance(now_us);
  if (state_ == BreakerState::kHalfOpen) ++probes_in_flight_;
}

void CircuitBreaker::OnSuccess(double now_us) {
  if (!enabled()) return;
  Advance(now_us);
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      // The probe came back healthy: full traffic resumes.
      state_ = BreakerState::kClosed;
      consecutive_failures_ = 0;
      probes_in_flight_ = 0;
      ++closes_;
      break;
    case BreakerState::kOpen:
      // A job dispatched before the trip finished while open; the
      // breaker waits for its cooldown regardless.
      break;
  }
}

void CircuitBreaker::OnFailure(double now_us) {
  if (!enabled()) return;
  Advance(now_us);
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= policy_.failure_threshold) {
        TripOpen(now_us);
      }
      break;
    case BreakerState::kHalfOpen:
      // The probe failed: back to open for another full cooldown.
      TripOpen(now_us);
      break;
    case BreakerState::kOpen:
      // Stragglers failing while open do not extend the cooldown.
      break;
  }
}

void CircuitBreaker::OnCancel(double now_us) {
  if (!enabled()) return;
  Advance(now_us);
  if (state_ == BreakerState::kHalfOpen && probes_in_flight_ > 0) {
    --probes_in_flight_;
  }
}

BreakerState CircuitBreaker::StateAt(double now_us) {
  Advance(now_us);
  return state_;
}

}  // namespace gpuperf
