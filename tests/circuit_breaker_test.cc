// Deterministic per-GPU circuit breaker: closed -> open on consecutive
// failures, half-open after a sim-time cooldown, closed again after a
// successful probe. Everything is driven by explicit sim-time stamps, so
// the expected state at any instant is exact, not timing-dependent.

#include "common/circuit_breaker.h"

#include <gtest/gtest.h>

namespace gpuperf {
namespace {

BreakerPolicy Policy(int failures, double cooldown_ms = 10,
                     int probes = 1) {
  BreakerPolicy policy;
  policy.failure_threshold = failures;
  policy.cooldown_ms = cooldown_ms;
  policy.half_open_probes = probes;
  return policy;
}

constexpr double kMs = 1e3;  // sim time is in microseconds

TEST(CircuitBreakerTest, DefaultConstructedIsDisabledAndAlwaysAllows) {
  CircuitBreaker breaker;
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 100; ++i) breaker.OnFailure(i);
  EXPECT_TRUE(breaker.AllowsAt(1000));
  EXPECT_EQ(breaker.StateAt(1000), BreakerState::kClosed);
  EXPECT_EQ(breaker.opens(), 0);
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(Policy(3));
  breaker.OnFailure(0);
  breaker.OnFailure(1);
  EXPECT_TRUE(breaker.AllowsAt(2));
  breaker.OnFailure(2);
  EXPECT_FALSE(breaker.AllowsAt(3));
  EXPECT_EQ(breaker.StateAt(3), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreaker breaker(Policy(3));
  breaker.OnFailure(0);
  breaker.OnFailure(1);
  breaker.OnSuccess(2);  // streak broken
  breaker.OnFailure(3);
  breaker.OnFailure(4);
  EXPECT_TRUE(breaker.AllowsAt(5));  // only 2 consecutive
  breaker.OnFailure(5);
  EXPECT_FALSE(breaker.AllowsAt(6));
}

TEST(CircuitBreakerTest, HalfOpensAfterCooldownAndClosesOnProbeSuccess) {
  CircuitBreaker breaker(Policy(1, /*cooldown_ms=*/10));
  breaker.OnFailure(0);
  EXPECT_FALSE(breaker.AllowsAt(9 * kMs));  // still cooling down
  EXPECT_TRUE(breaker.AllowsAt(10 * kMs));  // half-open probe slot
  EXPECT_EQ(breaker.StateAt(10 * kMs), BreakerState::kHalfOpen);
  breaker.OnDispatch(10 * kMs);
  breaker.OnSuccess(11 * kMs);
  EXPECT_EQ(breaker.StateAt(11 * kMs), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowsAt(11 * kMs));
  // One trip, one cooldown expiry, one probe success: each transition
  // counted once, however often the state was queried in between.
  EXPECT_EQ(breaker.opens(), 1);
  EXPECT_EQ(breaker.half_opens(), 1);
  EXPECT_EQ(breaker.closes(), 1);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  CircuitBreaker breaker(Policy(1, /*cooldown_ms=*/10));
  breaker.OnFailure(0);
  EXPECT_TRUE(breaker.AllowsAt(10 * kMs));
  breaker.OnDispatch(10 * kMs);
  breaker.OnFailure(11 * kMs);
  EXPECT_EQ(breaker.StateAt(11 * kMs), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2);
  // The new cooldown restarts from the re-trip, not the original trip.
  EXPECT_FALSE(breaker.AllowsAt(20 * kMs));
  EXPECT_TRUE(breaker.AllowsAt(21 * kMs));
}

TEST(CircuitBreakerTest, HalfOpenBoundsConcurrentProbes) {
  CircuitBreaker breaker(Policy(1, /*cooldown_ms=*/10, /*probes=*/2));
  breaker.OnFailure(0);
  EXPECT_TRUE(breaker.AllowsAt(10 * kMs));
  breaker.OnDispatch(10 * kMs);
  EXPECT_TRUE(breaker.AllowsAt(10 * kMs));  // second probe slot
  breaker.OnDispatch(10 * kMs);
  EXPECT_FALSE(breaker.AllowsAt(10 * kMs));  // both slots in flight
}

TEST(CircuitBreakerTest, StragglerResultsWhileOpenAreIgnored) {
  CircuitBreaker breaker(Policy(2, /*cooldown_ms=*/10));
  breaker.OnFailure(0);
  breaker.OnFailure(1);
  EXPECT_EQ(breaker.StateAt(2), BreakerState::kOpen);
  // A job dispatched before the trip completes while the breaker is
  // open: neither closes the breaker nor extends the cooldown.
  breaker.OnSuccess(3);
  EXPECT_EQ(breaker.StateAt(4), BreakerState::kOpen);
  breaker.OnFailure(5);
  EXPECT_EQ(breaker.opens(), 1);
  EXPECT_TRUE(breaker.AllowsAt(20 * kMs));  // cooldown from the trip, not 5
}

TEST(CircuitBreakerTest, HedgeOnHalfOpenBreakerCountsAsItsSingleProbe) {
  // ISSUE 9 satellite: a hedge dispatched to a half-open breaker claims
  // the breaker's single probe slot exactly like a normal dispatch...
  CircuitBreaker breaker(Policy(1, /*cooldown_ms=*/10, /*probes=*/1));
  breaker.OnFailure(0);
  EXPECT_EQ(breaker.StateAt(11 * kMs), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowsAt(11 * kMs));
  breaker.OnDispatch(11 * kMs);  // the hedge leg is the probe
  EXPECT_FALSE(breaker.AllowsAt(12 * kMs));  // slot taken, no second probe
  // ...and winning the hedge race is the probe success that closes it.
  breaker.OnSuccess(13 * kMs);
  EXPECT_EQ(breaker.StateAt(13 * kMs), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, CancelledHedgeProbeReleasesItsSlot) {
  // The losing hedge leg is cancelled, not failed: the probe slot must
  // come back (no wedged half-open breaker) without voting a verdict.
  CircuitBreaker breaker(Policy(1, /*cooldown_ms=*/10, /*probes=*/1));
  breaker.OnFailure(0);
  EXPECT_EQ(breaker.StateAt(11 * kMs), BreakerState::kHalfOpen);
  breaker.OnDispatch(11 * kMs);
  EXPECT_FALSE(breaker.AllowsAt(12 * kMs));
  breaker.OnCancel(12 * kMs);
  EXPECT_EQ(breaker.StateAt(12 * kMs), BreakerState::kHalfOpen);  // no close
  EXPECT_TRUE(breaker.AllowsAt(12 * kMs));  // but the slot is free again
}

TEST(CircuitBreakerTest, CancelWhileClosedOrOpenIsANoOp) {
  CircuitBreaker breaker(Policy(2, /*cooldown_ms=*/10));
  breaker.OnCancel(0);
  EXPECT_EQ(breaker.StateAt(0), BreakerState::kClosed);
  breaker.OnFailure(1);
  breaker.OnCancel(2);  // must not clear the failure streak
  breaker.OnFailure(3);
  EXPECT_EQ(breaker.StateAt(4), BreakerState::kOpen);
  breaker.OnCancel(5);
  EXPECT_EQ(breaker.StateAt(5), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1);
}

TEST(CircuitBreakerTest, StateNamesAreStable) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half-open");
}

}  // namespace
}  // namespace gpuperf
