#ifndef GPUPERF_COMMON_CIRCUIT_BREAKER_H_
#define GPUPERF_COMMON_CIRCUIT_BREAKER_H_

/**
 * @file
 * Deterministic sim-time circuit breaker (closed / open / half-open).
 *
 * A resource that keeps failing (a flapping GPU in the serving pool)
 * should stop receiving traffic instead of burning every job's retry
 * budget. The breaker trips open after `failure_threshold` consecutive
 * failures, rejects work for `cooldown_ms` of *simulated* time, then
 * admits a bounded number of probe jobs (half-open); one probe success
 * closes it, one probe failure re-opens it for another cooldown.
 *
 * All transitions are driven by caller-supplied timestamps — never a
 * wall clock — so a simulation using breakers stays bit-identical
 * across runs, platforms, and thread counts, exactly like the fault
 * plans in common/fault_injection.h. The class is not thread-safe by
 * itself; each simulation owns its breakers.
 */

#include <cstdint>

namespace gpuperf {

/** Breaker knobs; failure_threshold == 0 disables the breaker. */
struct BreakerPolicy {
  int failure_threshold = 0;   // consecutive failures to trip (0 = off)
  double cooldown_ms = 1000;   // open -> half-open after this sim-time
  int half_open_probes = 1;    // probe jobs admitted while half-open
};

/** The three classic breaker states. */
enum class BreakerState { kClosed, kOpen, kHalfOpen };

/** Stable state name: "closed", "open", "half-open". */
const char* BreakerStateName(BreakerState state);

/** One resource's breaker, advanced by simulated-time events. */
class CircuitBreaker {
 public:
  /** A default-constructed breaker is disabled (always allows). */
  CircuitBreaker() = default;
  explicit CircuitBreaker(const BreakerPolicy& policy);

  bool enabled() const { return policy_.failure_threshold > 0; }

  /**
   * Whether a new job may be sent to the resource at `now_us`. Advances
   * the time-based open -> half-open transition, so the call is not
   * const; callers that merely inspect use StateAt().
   */
  bool AllowsAt(double now_us);

  /** Commits a dispatch decision (claims a probe slot when half-open). */
  void OnDispatch(double now_us);

  /** A job on the resource succeeded at `now_us`. */
  void OnSuccess(double now_us);

  /** A job on the resource failed at `now_us`. */
  void OnFailure(double now_us);

  /**
   * A dispatched job was cancelled before finishing (a hedge loser):
   * releases the half-open probe slot the dispatch claimed without
   * voting success or failure, so a cancelled probe can never wedge a
   * half-open breaker.
   */
  void OnCancel(double now_us);

  /** The state after applying any due cooldown expiry at `now_us`. */
  BreakerState StateAt(double now_us);

  // Transition counts: trips open, cooldown expiries (open ->
  // half-open) and probe successes (half-open -> closed). The serving
  // simulator folds them into the gpuperf_breaker_* counters once per
  // simulation.
  std::int64_t opens() const { return opens_; }
  std::int64_t half_opens() const { return half_opens_; }
  std::int64_t closes() const { return closes_; }

 private:
  void Advance(double now_us);  // open -> half-open when cooldown elapsed
  void TripOpen(double now_us);

  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int probes_in_flight_ = 0;   // half-open probe slots claimed
  double open_since_us_ = 0;
  std::int64_t opens_ = 0;
  std::int64_t half_opens_ = 0;
  std::int64_t closes_ = 0;
};

}  // namespace gpuperf

#endif  // GPUPERF_COMMON_CIRCUIT_BREAKER_H_
