#include "simsys/serving.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "gpuexec/oracle.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "simsys/event_queue.h"

namespace gpuperf::simsys {

namespace {

/**
 * Everything that can happen to a job in the pool. Each transition is
 * emitted exactly once, through Sim::Emit; the ServingResult, the
 * registry fold, the trace, the flight-recorder timeline and the
 * observation stream all read from that one call.
 */
enum EventKind {
  kArrival,          // a job entered the pool
  kShed,             // admission control rejected it
  kDispatch,         // a leg was placed on a GPU
  kDegraded,         // ...by least-outstanding: predictions were unusable
  kRetry,            // a failed attempt is re-dispatched at next_at_us
  kDrop,             // the job is abandoned
  kRetrySuppressed,  // an empty retry token bucket forced that drop
  kHedgeIssued,      // a backup leg was placed on a second GPU
  kHedgeWon,         // the backup leg delivers the job
  kLegFailed,        // a leg died under a GPU outage
  kBreakerOpen,      // that failure tripped the GPU's breaker
  kCompleted,        // the winning leg finished
  kDeadlineMiss,     // ...later than the SLO
  kCancel,           // a losing hedge leg was cancelled
  kEventKinds,
};

/** What each event kind feeds besides its count. */
struct EventKindInfo {
  // gpuperf_serving_* registry counter (nullptr = none); per DESIGN.md
  // §10 the name is gpuperf_serving_<name>.
  const char* metric;
  const char* help;
  // Also a flight-recorder counter channel of the same name, so summing
  // a channel's per-window deltas across every cell reproduces the
  // final registry totals (the obs smoke asserts exactly this).
  bool timeline;
  int outstanding;  // change to the pool-wide queue depth
};

constexpr EventKindInfo kEventKindInfo[] = {
    /* kArrival */ {"gpuperf_serving_jobs_arrived",
                    "Jobs that entered the pool", false, 0},
    /* kShed */ {"gpuperf_serving_jobs_shed", "Admission-control rejections",
                 true, 0},
    /* kDispatch */ {nullptr, nullptr, false, +1},
    /* kDegraded */ {nullptr, nullptr, false, 0},
    /* kRetry */ {"gpuperf_serving_retries",
                  "Re-dispatches caused by GPU failures", true, 0},
    /* kDrop */ {"gpuperf_serving_jobs_dropped",
                 "Jobs abandoned after the retry budget", true, 0},
    /* kRetrySuppressed */ {"gpuperf_serving_retries_suppressed",
                            "Retries dropped by an empty token bucket", true,
                            0},
    /* kHedgeIssued */ {"gpuperf_serving_hedges_issued",
                        "Duplicate dispatches for slow jobs", true, +1},
    /* kHedgeWon */ {"gpuperf_serving_hedges_won",
                     "Jobs delivered by the hedge leg", true, 0},
    /* kLegFailed */ {nullptr, nullptr, false, -1},
    /* kBreakerOpen */ {"gpuperf_serving_breaker_opens",
                        "Circuit-breaker trips across the pool", true, 0},
    /* kCompleted */ {"gpuperf_serving_jobs_completed",
                      "Jobs served to completion", true, -1},
    /* kDeadlineMiss */ {"gpuperf_serving_deadline_misses",
                         "Completions later than the SLO", true, 0},
    /* kCancel */ {nullptr, nullptr, false, -1},
};
static_assert(std::size(kEventKindInfo) == kEventKinds);

// Shared by the registry histogram and the recorder's latency sketch.
constexpr char kLatencyMetric[] = "gpuperf_serving_latency_ms";
std::vector<double> LatencyBucketsMs() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};
}

/**
 * One state transition. Which fields are meaningful depends on `kind`:
 * the span is the leg's [start, end] for dispatch, hedge-issued and
 * completed; `reason` is the static cause of a shed or drop, or
 * "failed" for a leg an outage will kill.
 */
struct ServingEvent {
  EventKind kind = kArrival;
  double t_us = 0;
  std::size_t id = 0;   // job id, in arrival order
  std::size_t job = 0;  // job type
  std::size_t gpu = 0;
  int attempt = 0;
  double start_us = 0;
  double end_us = 0;
  double latency_ms = 0;
  double service_us = 0;
  double next_at_us = 0;
  const char* reason = nullptr;
};

/**
 * The serving module's registry instruments, resolved once (name
 * lookup takes the registry Mutex) and bumped lock-free afterwards —
 * possibly from many grid threads at once, so only once per
 * simulation, never per event.
 */
struct ServingMetrics {
  obs::Counter& simulations;
  std::array<obs::Counter*, kEventKinds> events;  // nullptr = no metric
  obs::Histogram& latency_ms;
  obs::Counter& breaker_opens;
  obs::Counter& breaker_half_opens;
  obs::Counter& breaker_closes;

  static ServingMetrics& Get() {
    static ServingMetrics* const kMetrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      std::array<obs::Counter*, kEventKinds> events{};
      for (int k = 0; k < kEventKinds; ++k) {
        const EventKindInfo& info = kEventKindInfo[k];
        if (info.metric != nullptr) {
          events[k] = &registry.counter(info.metric, info.help);
        }
      }
      return new ServingMetrics{
          registry.counter("gpuperf_serving_simulations",
                           "Successful SimulateServing returns"),
          events,
          registry.histogram(kLatencyMetric, LatencyBucketsMs(),
                             "End-to-end job latency in milliseconds"),
          registry.counter("gpuperf_breaker_opens"),
          registry.counter("gpuperf_breaker_half_opens"),
          registry.counter("gpuperf_breaker_closes")};
    }();
    return *kMetrics;
  }
};

}  // namespace

std::string DispatchPolicyName(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kLeastOutstanding: return "least-outstanding";
    case DispatchPolicy::kPredictedLeastLoad: return "predicted-least-load";
  }
  GP_CHECK(false);
  return "";
}

namespace {

/** How a dispatch attempt resolved its target search. */
enum class PickOutcome {
  kOk,         // a GPU was selected
  kPoolDown,   // nothing up (or breaker-allowed): retry later
  kQueueFull,  // live GPUs exist, but every bounded queue is full: shed
};

/** Mutable simulation state shared by the event handlers. */
struct Sim {
  const std::vector<std::vector<double>>& truth;
  const std::vector<std::vector<double>>& predicted;  // empty = no model
  const ServingConfig& config;
  std::size_t gpus;
  EventQueue queue;
  FaultPlan plan;

  // Per-GPU FIFO: when the GPU frees up (true time) and its predicted
  // free-up time (what the model-driven dispatcher believes).
  std::vector<double> gpu_free;
  std::vector<double> gpu_predicted_free;
  std::vector<int> gpu_outstanding;
  std::vector<double> gpu_busy;
  std::vector<CircuitBreaker> breakers;
  int round_robin_next = 0;

  // Gray-failure resilience state. `chaos` is borrowed (nullptr = no
  // chaos); `retry_tokens` is the per-simulation retry token bucket;
  // `observed_service_us` feeds the adaptive detection timeout.
  const ChaosPlan* chaos = nullptr;
  double retry_tokens = 0;
  StreamingPercentile observed_service_us;

  // PickTarget's and HedgeCheck's candidate list, reused by every
  // dispatch (ascending GPU ids).
  std::vector<std::size_t> candidates;

  // What happened, written only by Emit: one count per EventKind, the
  // completion latencies, and (record_observations only) the
  // completions as the drift monitor sees them.
  std::array<int, kEventKinds> counts{};
  std::vector<double> latencies_ms;
  std::vector<ServingObservation> observations;

  // Optional sinks, null = off; only Emit feeds them, and no branch in
  // the simulation ever reads them. Tracer track 0 is the dispatcher
  // (shed/drop/retry instants), track g+1 is GPU g (queue-wait and
  // service spans). Recorder windows close lazily in the run loop.
  obs::SpanTracer* tracer = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  // Cached recorder channel handles (valid while `recorder` is): per-
  // event updates must not pay the by-name map lookup
  // (bench_speed_obs). `ch_counts[k]` is set where kind k is a
  // timeline channel.
  std::array<obs::FlightRecorder::CounterHandle, kEventKinds> ch_counts;
  obs::FlightRecorder::GaugeHandle ch_queue_depth;
  obs::FlightRecorder::SketchHandle ch_latency_ms, ch_residual_pct;
  int outstanding_total = 0;  // sum of gpu_outstanding (queue-depth gauge)

  Sim(const std::vector<std::vector<double>>& truth_in,
      const std::vector<std::vector<double>>& predicted_in,
      const ServingConfig& config_in, std::size_t gpus_in, FaultPlan plan_in)
      : truth(truth_in),
        predicted(predicted_in),
        config(config_in),
        gpus(gpus_in),
        plan(std::move(plan_in)),
        gpu_free(gpus_in, 0.0),
        gpu_predicted_free(gpus_in, 0.0),
        gpu_outstanding(gpus_in, 0),
        gpu_busy(gpus_in, 0.0),
        breakers(gpus_in, CircuitBreaker(config_in.breaker)),
        observed_service_us(config_in.adaptive_detect_quantile * 100) {
    candidates.reserve(gpus);
  }

  /**
   * Failure-detection delay: the fixed `retry.detect_timeout_ms`, or —
   * once adaptive detection has enough completions to trust — the
   * configured quantile of observed service times scaled by the
   * multiplier, whichever is larger. Under gray failures the observed
   * quantile tracks the real (slowed) service distribution, so healthy
   * slow jobs are not misdetected as failures.
   */
  double DetectTimeoutMs() {
    const RetryPolicy& r = config.retry;
    if (config.adaptive_detect_quantile <= 0 ||
        observed_service_us.size() < 8) {
      return r.detect_timeout_ms;
    }
    const double quantile_us = observed_service_us.Value();
    return std::max(r.detect_timeout_ms,
                    quantile_us * config.adaptive_detect_multiplier / 1e3);
  }

  /** Delay before re-dispatching after the `attempt`-th failure (0-based):
   *  failure-detection timeout plus capped exponential backoff. */
  double RetryDelayUs(int attempt) {
    const RetryPolicy& r = config.retry;
    const double backoff_ms =
        std::min(r.backoff_base_ms * std::ldexp(1.0, attempt),
                 r.backoff_cap_ms);
    return (DetectTimeoutMs() + backoff_ms) * 1e3;
  }

  /** Memory-bound time share of (job, gpu) for scoped drift events. */
  double MemoryShare(std::size_t job, std::size_t gpu) const {
    if (config.drift_memory_share == nullptr) return 0.5;
    return (*config.drift_memory_share)[job][gpu];
  }

  /** `truth[job][target]` with the drift schedule applied at `start`. */
  double DriftedService(std::size_t job, std::size_t target,
                        double start) const {
    const double service = truth[job][target];
    if (config.drift == nullptr || config.drift->empty()) return service;
    return service * config.drift->FactorAt(target,
                                            config.time_origin_us + start,
                                            MemoryShare(job, target));
  }

  /** Drifted service time with the chaos slowdown sampled at `start`
   *  applied for the leg's whole duration. */
  double ServiceTime(std::size_t job, std::size_t target,
                     double start) const {
    double service = DriftedService(job, target, start);
    if (chaos != nullptr) service *= chaos->SlowdownAt(target, start);
    return service;
  }

  /** Least-outstanding among `candidates` (non-empty). */
  std::size_t LeastOutstanding() const {
    std::size_t target = candidates[0];
    for (std::size_t g : candidates) {
      if (gpu_outstanding[g] < gpu_outstanding[target]) target = g;
    }
    return target;
  }

  /**
   * Fills `candidates` with the GPUs that can take work right now: up
   * per the fault plan, admitted by the circuit breaker, and (with a
   * bounded queue) below queue_cap. `exclude` is skipped before its
   * breaker is consulted (`gpus` excludes none). Returns whether any GPU
   * was live, full or not.
   */
  bool CollectCandidates(double now, std::size_t exclude) {
    candidates.clear();
    bool any_live = false;
    for (std::size_t g = 0; g < gpus; ++g) {
      if (g == exclude) continue;
      if (plan.IsDownAt(g, now) || !breakers[g].AllowsAt(now)) continue;
      any_live = true;
      if (config.queue_cap > 0 && gpu_outstanding[g] >= config.queue_cap) {
        continue;  // live but full: bounded queue rejects new work
      }
      candidates.push_back(g);
    }
    return any_live;
  }

  /**
   * Picks a GPU among those live right now: up per the fault plan,
   * admitted by the circuit breaker, and (with a bounded queue) below
   * queue_cap. kPoolDown means retry later (an outage or cooldown may
   * end); kQueueFull means admission control sheds the job. Sets
   * *degraded_decision when a predicted-least-load decision had to fall
   * back to least-outstanding because predictions are missing or
   * non-finite.
   */
  PickOutcome PickTarget(std::size_t job, std::size_t* target,
                         bool* degraded_decision) {
    *degraded_decision = false;
    const double now = queue.NowUs();
    const bool any_live = CollectCandidates(now, /*exclude=*/gpus);
    if (candidates.empty()) {
      return any_live ? PickOutcome::kQueueFull : PickOutcome::kPoolDown;
    }

    switch (config.policy) {
      case DispatchPolicy::kRoundRobin: {
        // The first candidate probing up from the cursor, wrapping
        // around; fault-free this is exactly `round_robin_next++ % gpus`.
        const std::size_t cursor =
            static_cast<std::size_t>(round_robin_next++) % gpus;
        const auto it =
            std::lower_bound(candidates.begin(), candidates.end(), cursor);
        *target = it != candidates.end() ? *it : candidates[0];
        return PickOutcome::kOk;
      }
      case DispatchPolicy::kLeastOutstanding:
        *target = LeastOutstanding();
        return PickOutcome::kOk;
      case DispatchPolicy::kPredictedLeastLoad: {
        bool usable = !predicted.empty();
        if (usable) {
          for (std::size_t g : candidates) {
            if (!std::isfinite(predicted[job][g])) {
              usable = false;
              break;
            }
          }
        }
        if (!usable) {
          // Graceful degradation: serve with the best model-free policy
          // rather than failing the dispatch.
          *degraded_decision = true;
          *target = LeastOutstanding();
          return PickOutcome::kOk;
        }
        double best = 1e300;
        *target = candidates[0];
        for (std::size_t g : candidates) {
          const double finish = std::max(gpu_predicted_free[g], now) +
                                predicted[job][g];
          if (finish < best) {
            best = finish;
            *target = g;
          }
        }
        return PickOutcome::kOk;
      }
    }
    GP_CHECK(false);
    return PickOutcome::kPoolDown;
  }

  /**
   * Records one state transition: its count, and — when attached — its
   * recorder channels, its trace span or instant, and the completion
   * streams. The only code that writes `counts`, `latencies_ms`,
   * `observations` or a sink; handlers change simulation state and
   * call this.
   */
  void Emit(const ServingEvent& e) {
    ++counts[e.kind];
    // The cell's prediction for a completion (NaN = none).
    const auto predicted_us = [this, &e] {
      return !predicted.empty() && std::isfinite(predicted[e.job][e.gpu])
                 ? predicted[e.job][e.gpu]
                 : std::numeric_limits<double>::quiet_NaN();
    };
    if (e.kind == kCompleted) {
      latencies_ms.push_back(e.latency_ms);
      if (config.record_observations) {
        observations.push_back({e.job, e.gpu,
                                config.time_origin_us + e.start_us,
                                e.service_us, predicted_us()});
      }
    }

    if (recorder != nullptr) {
      const EventKindInfo& info = kEventKindInfo[e.kind];
      if (info.timeline) recorder->Count(ch_counts[e.kind]);
      if (info.outstanding != 0) {
        outstanding_total += info.outstanding;
        recorder->SetGauge(ch_queue_depth, outstanding_total);
      }
      if (e.kind == kCompleted) {
        recorder->Observe(ch_latency_ms, e.latency_ms);
        const double p = predicted_us();
        if (p > 0) {  // false for NaN (no prediction)
          // Per-completion residual: the signal the drift monitor and
          // `gpuperf explain` attribution both key on.
          recorder->Observe(ch_residual_pct,
                            std::abs(e.service_us - p) / p * 100.0);
        }
      }
    }

    if (tracer == nullptr) return;
    const int gpu_track = static_cast<int>(e.gpu) + 1;
    // args body shared by every trace event of one job attempt.
    const auto args = [&e] {
      return Format("\"id\":%zu,\"job\":%zu,\"attempt\":%d", e.id, e.job,
                    e.attempt);
    };
    const auto with_reason = [&e, &args](const char* key) {
      return e.reason == nullptr
                 ? args()
                 : args() + Format(",\"%s\":\"%s\"", key, e.reason);
    };
    switch (e.kind) {
      case kShed:
        tracer->Instant(0, "shed", "admission", e.t_us,
                        with_reason("reason"));
        break;
      case kDispatch:
        if (e.start_us > e.t_us) {
          tracer->Span(gpu_track, "queued", "queue", e.t_us, e.start_us,
                       args());
        }
        tracer->Span(gpu_track, Format("job %zu", e.job), "service",
                     e.start_us, e.end_us,
                     e.reason != nullptr
                         ? with_reason("outcome")
                         : args() + Format(",\"wait_us\":%.3f",
                                           e.start_us - e.t_us));
        break;
      case kRetry:
        tracer->Instant(0, "retry", "retry", e.t_us,
                        args() + Format(",\"next_at_us\":%.3f", e.next_at_us));
        break;
      case kDrop:
        tracer->Instant(0, "drop", "retry", e.t_us, with_reason("reason"));
        break;
      case kHedgeIssued:
        tracer->Span(gpu_track, Format("job %zu", e.job), "hedge", e.start_us,
                     e.end_us, with_reason("outcome"));
        break;
      case kBreakerOpen:
        tracer->Instant(gpu_track, "breaker-open", "breaker", e.t_us, args());
        break;
      case kCancel:
        tracer->Instant(gpu_track, "hedge-cancel", "hedge", e.t_us, args());
        break;
      default:
        break;  // counted only
    }
  }

  /** Drops the job or schedules its next attempt after the backoff. */
  void RetryOrDrop(std::size_t id, std::size_t job, double arrival,
                   int attempt) {
    const double now = queue.NowUs();
    if (attempt >= config.retry.max_retries) {
      Emit({.kind = kDrop, .t_us = now, .id = id, .job = job,
            .attempt = attempt});
      return;
    }
    if (config.retry_budget > 0 && retry_tokens < 1.0) {
      // Token bucket empty: a mass failure has outrun the completions
      // that refill it. Dropping here is what breaks the retry-storm
      // metastable state — the drop is final, not deferred load.
      Emit({.kind = kRetrySuppressed, .t_us = now, .id = id, .job = job,
            .attempt = attempt});
      Emit({.kind = kDrop, .t_us = now, .id = id, .job = job,
            .attempt = attempt, .reason = "retry-budget"});
      return;
    }
    if (config.retry_budget > 0) retry_tokens -= 1.0;
    const double at = now + RetryDelayUs(attempt);
    Emit({.kind = kRetry, .t_us = now, .id = id, .job = job,
          .attempt = attempt, .next_at_us = at});
    queue.Schedule(at, [this, id, job, arrival, attempt] {
      Dispatch(id, job, arrival, attempt + 1);
    });
  }

  /** One dispatch attempt of `job` (attempt 0 = first try). */
  void Dispatch(std::size_t id, std::size_t job, double arrival,
                int attempt) {
    const double now = queue.NowUs();
    std::size_t target = 0;
    bool degraded_decision = false;
    switch (PickTarget(job, &target, &degraded_decision)) {
      case PickOutcome::kPoolDown:
        // Whole pool down: detection timeout + backoff, like a failure.
        RetryOrDrop(id, job, arrival, attempt);
        return;
      case PickOutcome::kQueueFull:
        // Admission control: every live queue is at capacity. Shedding
        // now is cheaper than queueing into a deadline miss.
        Emit({.kind = kShed, .t_us = now, .id = id, .job = job,
              .attempt = attempt, .reason = "queue-full"});
        return;
      case PickOutcome::kOk:
        break;
    }

    // Prediction-driven load shedding: when the model already knows the
    // deadline is hopeless on the best available GPU, reject at
    // admission instead of wasting service time on a guaranteed miss.
    if (config.slo_ms > 0 && !predicted.empty() &&
        std::isfinite(predicted[job][target])) {
      const double predicted_latency_ms =
          (std::max(gpu_predicted_free[target], now) +
           predicted[job][target] - arrival) /
          1e3;
      if (predicted_latency_ms > config.slo_ms) {
        Emit({.kind = kShed, .t_us = now, .id = id, .job = job,
              .attempt = attempt, .reason = "predicted-slo-miss"});
        return;
      }
    }

    breakers[target].OnDispatch(now);
    const double start = std::max(gpu_free[target], now);
    const double service = ServiceTime(job, target, start);
    if (!predicted.empty() && std::isfinite(predicted[job][target])) {
      gpu_predicted_free[target] =
          std::max(gpu_predicted_free[target], now) + predicted[job][target];
    }
    ++gpu_outstanding[target];

    // One leg on `target`: either it completes at start + service, or
    // the GPU fails under it mid-job (or while it is queued) and the
    // partial work is wasted. Both outcomes are known now; committing
    // the GPU timeline here keeps later dispatch decisions consistent.
    const DownInterval* outage =
        plan.FirstOutageIn(target, start, start + service);
    const bool fails = outage != nullptr;
    const double leg_end =
        fails ? std::max(start, outage->down_us) : start + service;
    gpu_busy[target] += leg_end - start;
    gpu_free[target] = leg_end;
    if (degraded_decision) {
      Emit({.kind = kDegraded, .t_us = now, .id = id, .job = job,
            .gpu = target, .attempt = attempt});
    }
    Emit({.kind = kDispatch, .t_us = now, .id = id, .job = job, .gpu = target,
          .attempt = attempt, .start_us = start, .end_us = leg_end,
          .reason = fails ? "failed" : nullptr});

    // Hedged dispatch: if the job will still be running once it has
    // exceeded its predicted time by the trigger factor, revisit it
    // then — the dispatcher cannot tell "slow" from "dying", so it
    // duplicates the work instead of guessing.
    if (config.hedge_trigger_factor > 0 && !predicted.empty() &&
        std::isfinite(predicted[job][target])) {
      const double trigger =
          start + predicted[job][target] * config.hedge_trigger_factor;
      if (trigger < leg_end) {
        queue.Schedule(trigger, [this, id, job, arrival, attempt, target,
                                 start, service, leg_end, fails] {
          HedgeCheck(id, job, arrival, attempt, target, start, service,
                     leg_end, fails);
        });
        return;
      }
    }
    if (fails) {
      ScheduleLegFailure(id, job, arrival, attempt, target, leg_end,
                         /*retry=*/true);
    } else {
      ScheduleLegCompletion(id, job, attempt, target, arrival, start,
                            service, leg_end);
    }
  }

  /**
   * The hedge trigger fired while the primary leg is still running:
   * duplicate the job onto a second GPU picked live right now (primary
   * excluded; least-outstanding — the model already voted for the
   * primary, the hedge buys diversity). First completion wins; the
   * loser is cancelled and its unspent tail refunded. A hedge landing
   * on a half-open breaker claims that breaker's probe slot exactly
   * like a normal dispatch.
   */
  void HedgeCheck(std::size_t id, std::size_t job, double arrival,
                  int attempt, std::size_t primary, double primary_start,
                  double primary_service, double primary_end,
                  bool primary_fails) {
    const double now = queue.NowUs();
    CollectCandidates(now, /*exclude=*/primary);
    if (candidates.empty()) {
      // No second GPU to hedge onto: the job continues unhedged.
      if (primary_fails) {
        ScheduleLegFailure(id, job, arrival, attempt, primary, primary_end,
                           /*retry=*/true);
      } else {
        ScheduleLegCompletion(id, job, attempt, primary, arrival,
                              primary_start, primary_service, primary_end);
      }
      return;
    }

    const std::size_t hedge = LeastOutstanding();
    breakers[hedge].OnDispatch(now);
    ++gpu_outstanding[hedge];
    const double hedge_start = std::max(gpu_free[hedge], now);
    const double hedge_service = ServiceTime(job, hedge, hedge_start);
    const DownInterval* outage =
        plan.FirstOutageIn(hedge, hedge_start, hedge_start + hedge_service);
    const bool hedge_fails = outage != nullptr;
    const double hedge_end = hedge_fails
                                 ? std::max(hedge_start, outage->down_us)
                                 : hedge_start + hedge_service;
    gpu_busy[hedge] += hedge_end - hedge_start;
    gpu_free[hedge] = hedge_end;
    Emit({.kind = kHedgeIssued, .t_us = now, .id = id, .job = job,
          .gpu = hedge, .attempt = attempt, .start_us = hedge_start,
          .end_us = hedge_end, .reason = hedge_fails ? "failed" : nullptr});

    if (primary_fails && hedge_fails) {
      // Both legs die; the later failure carries the retry so the job
      // is re-dispatched exactly once.
      const bool primary_last = primary_end >= hedge_end;
      ScheduleLegFailure(id, job, arrival, attempt, primary, primary_end,
                         /*retry=*/primary_last);
      ScheduleLegFailure(id, job, arrival, attempt, hedge, hedge_end,
                         /*retry=*/!primary_last);
      return;
    }
    const ServingEvent hedge_won = {.kind = kHedgeWon, .t_us = now,
                                    .id = id, .job = job, .gpu = hedge,
                                    .attempt = attempt};
    if (primary_fails) {
      // The hedge saves the job: the primary's failure still feeds its
      // breaker, but no retry is needed.
      Emit(hedge_won);
      ScheduleLegFailure(id, job, arrival, attempt, primary, primary_end,
                         /*retry=*/false);
      ScheduleLegCompletion(id, job, attempt, hedge, arrival, hedge_start,
                            hedge_service, hedge_end);
      return;
    }
    if (hedge_fails) {
      ScheduleLegFailure(id, job, arrival, attempt, hedge, hedge_end,
                         /*retry=*/false);
      ScheduleLegCompletion(id, job, attempt, primary, arrival, primary_start,
                            primary_service, primary_end);
      return;
    }
    if (hedge_end < primary_end) {
      Emit(hedge_won);
      ScheduleLegCompletion(id, job, attempt, hedge, arrival, hedge_start,
                            hedge_service, hedge_end);
      ScheduleLegCancel(id, job, attempt, primary, primary_start,
                        primary_end, hedge_end);
    } else {
      ScheduleLegCompletion(id, job, attempt, primary, arrival, primary_start,
                            primary_service, primary_end);
      ScheduleLegCancel(id, job, attempt, hedge, hedge_start, hedge_end,
                        primary_end);
    }
  }

  /** Schedules one leg's failure bookkeeping at `fail_at`; when `retry`
   *  is set the job re-enters the retry path (no leg survived). */
  void ScheduleLegFailure(std::size_t id, std::size_t job, double arrival,
                          int attempt, std::size_t gpu, double fail_at,
                          bool retry) {
    queue.Schedule(fail_at, [this, id, job, arrival, attempt, gpu, retry] {
      const double now = queue.NowUs();
      --gpu_outstanding[gpu];
      const std::int64_t opens_before = breakers[gpu].opens();
      breakers[gpu].OnFailure(now);
      const ServingEvent failed = {.kind = kLegFailed, .t_us = now,
                                   .id = id, .job = job, .gpu = gpu,
                                   .attempt = attempt};
      Emit(failed);
      if (breakers[gpu].opens() > opens_before) {
        ServingEvent opened = failed;
        opened.kind = kBreakerOpen;
        Emit(opened);
      }
      if (retry) RetryOrDrop(id, job, arrival, attempt);
    });
  }

  /** Schedules the winning leg's completion bookkeeping at `leg_end`. */
  void ScheduleLegCompletion(std::size_t id, std::size_t job, int attempt,
                             std::size_t gpu, double arrival,
                             double leg_start, double service,
                             double leg_end) {
    queue.Schedule(leg_end, [this, id, job, attempt, gpu, arrival, leg_start,
                             service] {
      const double now = queue.NowUs();
      const double latency_ms = (now - arrival) / 1e3;
      --gpu_outstanding[gpu];
      breakers[gpu].OnSuccess(now);
      if (config.adaptive_detect_quantile > 0) {
        observed_service_us.Add(service);
      }
      if (config.retry_budget > 0) {
        retry_tokens = std::min(config.retry_budget_burst,
                                retry_tokens + config.retry_budget);
      }
      ServingEvent done = {.kind = kCompleted, .t_us = now, .id = id,
                           .job = job, .gpu = gpu, .attempt = attempt,
                           .start_us = leg_start, .end_us = now,
                           .latency_ms = latency_ms, .service_us = service};
      Emit(done);
      if (config.slo_ms > 0 && latency_ms > config.slo_ms) {
        done.kind = kDeadlineMiss;
        Emit(done);
      }
    });
  }

  /**
   * Cancels the losing leg at `at` (the winner's completion time). The
   * unspent tail is refunded only when nothing queued behind the leg —
   * `gpu_free` still equals the leg's end — otherwise the capacity is
   * already committed and the leg just runs out. The breaker sees a
   * cancellation, not a verdict: a cancelled half-open probe releases
   * its slot instead of wedging the breaker.
   */
  void ScheduleLegCancel(std::size_t id, std::size_t job, int attempt,
                         std::size_t gpu, double leg_start, double leg_end,
                         double at) {
    queue.Schedule(at, [this, id, job, attempt, gpu, leg_start, leg_end] {
      const double now = queue.NowUs();
      if (gpu_free[gpu] == leg_end) {
        const double stop = std::clamp(now, leg_start, leg_end);
        gpu_busy[gpu] -= leg_end - stop;
        gpu_free[gpu] = stop;
      }
      --gpu_outstanding[gpu];
      breakers[gpu].OnCancel(now);
      Emit({.kind = kCancel, .t_us = now, .id = id, .job = job, .gpu = gpu,
            .attempt = attempt});
    });
  }
};

/**
 * Folds one finished simulation into the process-wide registry: every
 * counter and the latency histogram read what Emit recorded, and the
 * breaker families read each breaker's own transition counts.
 */
void RecordSimulation(const Sim& sim) {
  ServingMetrics& metrics = ServingMetrics::Get();
  metrics.simulations.Increment();
  for (int k = 0; k < kEventKinds; ++k) {
    if (metrics.events[k] != nullptr) {
      metrics.events[k]->Increment(static_cast<std::uint64_t>(sim.counts[k]));
    }
  }
  for (double latency : sim.latencies_ms) metrics.latency_ms.Observe(latency);
  for (const CircuitBreaker& breaker : sim.breakers) {
    metrics.breaker_opens.Increment(
        static_cast<std::uint64_t>(breaker.opens()));
    metrics.breaker_half_opens.Increment(
        static_cast<std::uint64_t>(breaker.half_opens()));
    metrics.breaker_closes.Increment(
        static_cast<std::uint64_t>(breaker.closes()));
  }
}


Status ValidateInputs(const std::vector<std::vector<double>>& true_service_us,
                      const std::vector<std::vector<double>>& predicted,
                      const std::vector<double>& job_mix,
                      const ServingConfig& config) {
  if (true_service_us.empty()) {
    return InvalidArgumentError("true_service_us is empty (no job types)");
  }
  const std::size_t gpus = true_service_us[0].size();
  if (gpus == 0) {
    return InvalidArgumentError("true_service_us has no GPUs (empty pool)");
  }
  for (std::size_t j = 0; j < true_service_us.size(); ++j) {
    if (true_service_us[j].size() != gpus) {
      return InvalidArgumentError(Format(
          "true_service_us row %zu has %zu GPUs, row 0 has %zu", j,
          true_service_us[j].size(), gpus));
    }
    for (std::size_t g = 0; g < gpus; ++g) {
      const double t = true_service_us[j][g];
      if (!std::isfinite(t) || t <= 0) {
        return InvalidArgumentError(Format(
            "true_service_us[%zu][%zu] = %g is not a positive finite time",
            j, g, t));
      }
    }
  }
  // predicted may be empty (no model: predicted-least-load degrades), but
  // when present it must match the truth's shape. Non-finite *values* are
  // allowed — they degrade the affected decisions instead.
  if (!predicted.empty()) {
    if (predicted.size() != true_service_us.size()) {
      return InvalidArgumentError(Format(
          "predicted_service_us has %zu job types, true_service_us has %zu",
          predicted.size(), true_service_us.size()));
    }
    for (std::size_t j = 0; j < predicted.size(); ++j) {
      if (predicted[j].size() != gpus) {
        return InvalidArgumentError(Format(
            "predicted_service_us row %zu has %zu GPUs, expected %zu", j,
            predicted[j].size(), gpus));
      }
    }
  }
  if (job_mix.size() != true_service_us.size()) {
    return InvalidArgumentError(
        Format("job_mix has %zu entries, true_service_us has %zu job types",
               job_mix.size(), true_service_us.size()));
  }
  double mix_total = 0;
  for (std::size_t j = 0; j < job_mix.size(); ++j) {
    if (!std::isfinite(job_mix[j]) || job_mix[j] < 0) {
      return InvalidArgumentError(Format(
          "job_mix[%zu] = %g is not a non-negative finite weight", j,
          job_mix[j]));
    }
    mix_total += job_mix[j];
  }
  if (mix_total <= 0) {
    return InvalidArgumentError("job_mix sums to zero (no job can arrive)");
  }
  if (!std::isfinite(config.arrival_rate_per_s) ||
      config.arrival_rate_per_s <= 0) {
    return InvalidArgumentError(
        Format("arrival_rate_per_s = %g must be positive and finite",
               config.arrival_rate_per_s));
  }
  if (!std::isfinite(config.duration_s) || config.duration_s <= 0) {
    return InvalidArgumentError(Format(
        "duration_s = %g must be positive and finite", config.duration_s));
  }
  if (!std::isfinite(config.faults.mtbf_s) || config.faults.mtbf_s < 0) {
    return InvalidArgumentError(Format(
        "faults.mtbf_s = %g must be non-negative and finite (0 disables "
        "fault injection)",
        config.faults.mtbf_s));
  }
  if (config.faults.mtbf_s > 0 &&
      (!std::isfinite(config.faults.mttr_s) || config.faults.mttr_s < 0)) {
    return InvalidArgumentError(Format(
        "faults.mttr_s = %g must be non-negative and finite when faults "
        "are enabled (0 = instant repair)",
        config.faults.mttr_s));
  }
  if (config.fault_plan != nullptr &&
      config.fault_plan->resources() < gpus) {
    return InvalidArgumentError(Format(
        "fault_plan covers %zu resources, pool has %zu GPUs",
        config.fault_plan->resources(), gpus));
  }
  if (config.drift != nullptr && !config.drift->empty() &&
      config.drift->resources() < gpus) {
    return InvalidArgumentError(
        Format("drift schedule covers %zu resources, pool has %zu GPUs",
               config.drift->resources(), gpus));
  }
  if (!std::isfinite(config.time_origin_us) || config.time_origin_us < 0) {
    return InvalidArgumentError(Format(
        "time_origin_us = %g must be non-negative and finite",
        config.time_origin_us));
  }
  if (config.drift_memory_share != nullptr) {
    const std::vector<std::vector<double>>& share =
        *config.drift_memory_share;
    if (share.size() != true_service_us.size()) {
      return InvalidArgumentError(Format(
          "drift_memory_share has %zu job types, true_service_us has %zu",
          share.size(), true_service_us.size()));
    }
    for (std::size_t j = 0; j < share.size(); ++j) {
      if (share[j].size() != gpus) {
        return InvalidArgumentError(Format(
            "drift_memory_share row %zu has %zu GPUs, expected %zu", j,
            share[j].size(), gpus));
      }
      for (std::size_t g = 0; g < gpus; ++g) {
        const double s = share[j][g];
        if (!std::isfinite(s) || s < 0 || s > 1) {
          return InvalidArgumentError(Format(
              "drift_memory_share[%zu][%zu] = %g is not in [0, 1]", j, g,
              s));
        }
      }
    }
  }
  if (config.retry.max_retries < 0) {
    return InvalidArgumentError(Format(
        "retry.max_retries = %d must be non-negative",
        config.retry.max_retries));
  }
  const RetryPolicy& r = config.retry;
  if (!std::isfinite(r.detect_timeout_ms) || r.detect_timeout_ms < 0 ||
      !std::isfinite(r.backoff_base_ms) || r.backoff_base_ms < 0 ||
      !std::isfinite(r.backoff_cap_ms) || r.backoff_cap_ms < 0) {
    return InvalidArgumentError(Format(
        "retry timeouts (detect %g ms, backoff base %g ms, cap %g ms) must "
        "be non-negative and finite",
        r.detect_timeout_ms, r.backoff_base_ms, r.backoff_cap_ms));
  }
  if (config.queue_cap < 0) {
    return InvalidArgumentError(
        Format("queue_cap = %d must be non-negative (0 disables the "
               "bounded queue)",
               config.queue_cap));
  }
  if (!std::isfinite(config.slo_ms) || config.slo_ms < 0) {
    return InvalidArgumentError(Format(
        "slo_ms = %g must be non-negative and finite (0 disables the SLO)",
        config.slo_ms));
  }
  if (!std::isfinite(config.hedge_trigger_factor) ||
      config.hedge_trigger_factor < 0) {
    return InvalidArgumentError(Format(
        "hedge_trigger_factor = %g must be non-negative and finite (0 "
        "disables hedging)",
        config.hedge_trigger_factor));
  }
  if (!std::isfinite(config.retry_budget) || config.retry_budget < 0) {
    return InvalidArgumentError(Format(
        "retry_budget = %g must be non-negative and finite (0 disables "
        "the retry budget)",
        config.retry_budget));
  }
  if (config.retry_budget > 0 &&
      (!std::isfinite(config.retry_budget_burst) ||
       config.retry_budget_burst < 1)) {
    return InvalidArgumentError(Format(
        "retry_budget_burst = %g must be >= 1 and finite when the retry "
        "budget is enabled",
        config.retry_budget_burst));
  }
  if (!std::isfinite(config.adaptive_detect_quantile) ||
      config.adaptive_detect_quantile < 0 ||
      config.adaptive_detect_quantile > 1) {
    return InvalidArgumentError(Format(
        "adaptive_detect_quantile = %g must be in [0, 1] (0 disables "
        "adaptive detection)",
        config.adaptive_detect_quantile));
  }
  if (config.adaptive_detect_quantile > 0 &&
      (!std::isfinite(config.adaptive_detect_multiplier) ||
       config.adaptive_detect_multiplier <= 0)) {
    return InvalidArgumentError(Format(
        "adaptive_detect_multiplier = %g must be positive and finite",
        config.adaptive_detect_multiplier));
  }
  const ChaosPlanConfig& chaos = config.chaos;
  if (!std::isfinite(chaos.gray_mtbf_s) || chaos.gray_mtbf_s < 0) {
    return InvalidArgumentError(Format(
        "chaos.gray_mtbf_s = %g must be non-negative and finite",
        chaos.gray_mtbf_s));
  }
  if (chaos.gray_mtbf_s > 0) {
    if (!std::isfinite(chaos.gray_mttr_s) || chaos.gray_mttr_s < 0) {
      return InvalidArgumentError(Format(
          "chaos.gray_mttr_s = %g must be non-negative and finite",
          chaos.gray_mttr_s));
    }
    if (!std::isfinite(chaos.gray_factor) || chaos.gray_factor <= 1) {
      return InvalidArgumentError(Format(
          "chaos.gray_factor = %g must be > 1 (a slowdown)",
          chaos.gray_factor));
    }
  }
  if (!std::isfinite(chaos.flap_mtbf_s) || chaos.flap_mtbf_s < 0) {
    return InvalidArgumentError(Format(
        "chaos.flap_mtbf_s = %g must be non-negative and finite",
        chaos.flap_mtbf_s));
  }
  if (chaos.flap_mtbf_s > 0 &&
      (chaos.flap_count < 1 || !std::isfinite(chaos.flap_period_s) ||
       chaos.flap_period_s <= 0 || !std::isfinite(chaos.flap_down_s) ||
       chaos.flap_down_s < 0)) {
    return InvalidArgumentError(Format(
        "chaos flap parameters (count %d, period %g s, down %g s) must be "
        "count >= 1, period > 0, down >= 0",
        chaos.flap_count, chaos.flap_period_s, chaos.flap_down_s));
  }
  const struct {
    const char* name;
    const ChaosDomainConfig& domain;
  } levels[] = {{"host", chaos.host}, {"rack", chaos.rack}};
  for (const auto& level : levels) {
    const ChaosDomainConfig& d = level.domain;
    if (!std::isfinite(d.mtbf_s) || d.mtbf_s < 0 ||
        !std::isfinite(d.mttr_s) || d.mttr_s < 0) {
      return InvalidArgumentError(Format(
          "chaos.%s MTBF/MTTR (%g s / %g s) must be non-negative and "
          "finite",
          level.name, d.mtbf_s, d.mttr_s));
    }
    if (!std::isfinite(d.factor) || (d.factor != 0 && d.factor <= 1)) {
      return InvalidArgumentError(Format(
          "chaos.%s factor = %g must be 0 (outage) or > 1 (slowdown)",
          level.name, d.factor));
    }
    if (d.first_event_at_s >= 0 && !std::isfinite(d.first_event_at_s)) {
      return InvalidArgumentError(Format(
          "chaos.%s first_event_at_s = %g must be finite", level.name,
          d.first_event_at_s));
    }
  }
  if (config.chaos_plan != nullptr &&
      config.chaos_plan->resources() < gpus) {
    return InvalidArgumentError(Format(
        "chaos_plan covers %zu resources, pool has %zu GPUs",
        config.chaos_plan->resources(), gpus));
  }
  const BreakerPolicy& b = config.breaker;
  if (b.failure_threshold < 0) {
    return InvalidArgumentError(
        Format("breaker.failure_threshold = %d must be non-negative (0 "
               "disables the breaker)",
               b.failure_threshold));
  }
  if (b.failure_threshold > 0) {
    if (!std::isfinite(b.cooldown_ms) || b.cooldown_ms < 0) {
      return InvalidArgumentError(Format(
          "breaker.cooldown_ms = %g must be non-negative and finite",
          b.cooldown_ms));
    }
    if (b.half_open_probes < 1) {
      return InvalidArgumentError(Format(
          "breaker.half_open_probes = %d must be at least 1",
          b.half_open_probes));
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ServingResult> SimulateServing(
    const std::vector<std::vector<double>>& true_service_us,
    const std::vector<std::vector<double>>& predicted_service_us,
    const std::vector<double>& job_mix, const ServingConfig& config,
    obs::SpanTracer* tracer) {
  GP_RETURN_IF_ERROR(ValidateInputs(true_service_us, predicted_service_us,
                                    job_mix, config));
  const std::size_t gpus = true_service_us[0].size();
  const double horizon_us = config.duration_s * 1e6;

  FaultPlan base_plan = config.fault_plan != nullptr
                            ? *config.fault_plan
                            : FaultPlan(gpus, horizon_us, config.faults);
  // Compose the chaos timeline on top of the base outage plan; the
  // merged outages become the sim's plan and the slowdown timeline is
  // queried per dispatch.
  ChaosPlan chaos_local;
  const ChaosPlan* chaos = config.chaos_plan;
  if (chaos == nullptr && ChaosConfigEnabled(config.chaos)) {
    chaos_local = ChaosPlan(gpus, horizon_us, config.chaos, &base_plan);
    chaos = &chaos_local;
  }
  Sim sim(true_service_us, predicted_service_us, config, gpus,
          chaos != nullptr ? chaos->outage_plan() : std::move(base_plan));
  sim.chaos = chaos;
  sim.retry_tokens = config.retry_budget_burst;
  sim.tracer = tracer;
  sim.recorder = config.recorder;
  const long long origin_ll = std::llround(config.time_origin_us);
  if (sim.recorder != nullptr) {
    obs::FlightRecorder& rec = *sim.recorder;
    rec.Start(origin_ll);
    // Registering every channel up front serves double duty: each frame
    // carries the full, stable channel set from the first window on (a
    // no-op on later epochs), and the cached handles keep the by-name
    // map lookup off the per-event hot path.
    for (int k = 0; k < kEventKinds; ++k) {
      if (kEventKindInfo[k].timeline) {
        sim.ch_counts[k] = rec.CounterChannel(kEventKindInfo[k].metric);
      }
    }
    sim.ch_queue_depth = rec.GaugeChannel("gpuperf_serving_queue_depth");
    rec.SetGauge(sim.ch_queue_depth, 0);
    sim.ch_latency_ms = rec.SketchChannel(kLatencyMetric, LatencyBucketsMs());
    sim.ch_residual_pct = rec.SketchChannel("gpuperf_serving_residual_pct",
                                            {1, 2, 5, 10, 20, 50, 100});
  }
  if (tracer != nullptr) {
    tracer->SetTrackName(0, "dispatcher");
    for (std::size_t g = 0; g < gpus; ++g) {
      tracer->SetTrackName(static_cast<int>(g) + 1, Format("gpu %zu", g));
    }
  }

  double mix_total = 0;
  for (double w : job_mix) mix_total += w;

  Rng rng(config.seed);
  double next_arrival = 0;
  std::size_t next_id = 0;
  while (true) {
    // Exponential inter-arrival times.
    next_arrival +=
        -std::log(1.0 - rng.NextDouble()) / config.arrival_rate_per_s * 1e6;
    if (next_arrival > horizon_us) break;

    // Sample the job type from the mix.
    double pick = rng.NextDouble() * mix_total;
    std::size_t job = 0;
    for (; job + 1 < job_mix.size(); ++job) {
      if (pick < job_mix[job]) break;
      pick -= job_mix[job];
    }

    const double arrival = next_arrival;
    const std::size_t id = next_id++;
    sim.queue.Schedule(arrival, [&sim, id, job, arrival] {
      sim.Emit({.kind = kArrival, .t_us = arrival, .id = id, .job = job});
      sim.Dispatch(id, job, arrival, /*attempt=*/0);
    });
  }
  if (sim.recorder == nullptr) {
    sim.queue.Run();
  } else {
    // Lazy window advancement: run every event with a (floored)
    // timestamp inside the open window in one tight chunk, close the
    // due windows at the boundary, repeat. An event at queue time t
    // ticks the recorder iff origin + floor(t) >= next close, i.e.
    // t >= next_close - origin, so RunUntil's strict `<` fires exactly
    // the events that must precede the close. The recorder never
    // schedules events of its own, so EventQueue sequence numbers —
    // and therefore same-timestamp ordering and the simulation
    // result — are untouched.
    while (!sim.queue.empty()) {
      sim.queue.RunUntil(
          static_cast<double>(sim.recorder->next_close_us() - origin_ll));
      if (sim.queue.empty()) break;
      sim.recorder->AdvanceTo(
          origin_ll +
          static_cast<long long>(std::floor(sim.queue.NextTimeUs())));
    }
    sim.recorder->FinishAt(
        origin_ll +
        std::max(std::llround(horizon_us),
                 static_cast<long long>(std::ceil(sim.queue.NowUs()))));
  }

  const std::array<int, kEventKinds>& n = sim.counts;
  ServingResult result;
  result.completed = n[kCompleted];
  result.dropped = n[kDrop];
  result.retries = n[kRetry];
  result.dispatches = n[kDispatch];
  result.degraded_dispatches = n[kDegraded];
  result.degraded_dispatch_fraction =
      n[kDispatch] > 0 ? static_cast<double>(n[kDegraded]) / n[kDispatch]
                       : 0.0;
  result.shed_on_admission = n[kShed];
  result.deadline_misses = n[kDeadlineMiss];
  result.breaker_opens = n[kBreakerOpen];
  result.hedges_issued = n[kHedgeIssued];
  result.hedges_won = n[kHedgeWon];
  result.retries_suppressed = n[kRetrySuppressed];
  result.slo_attainment =
      n[kArrival] > 0
          ? static_cast<double>(n[kCompleted] - n[kDeadlineMiss]) /
                n[kArrival]
          : 1.0;
  const double end = std::max(sim.queue.NowUs(), 1.0);
  for (std::size_t g = 0; g < gpus; ++g) {
    result.gpu_utilization.push_back(sim.gpu_busy[g] / end);
    result.gpu_availability.push_back(sim.plan.Availability(g));
    if (sim.breakers[g].StateAt(end) == BreakerState::kOpen) {
      ++result.breakers_open_at_end;
    }
  }
  result.observations = std::move(sim.observations);
  // Mean and the registry's histogram fold sum the latencies in
  // completion order, and floating-point sums depend on order: both read
  // them before the one in-place sort all three percentiles share.
  RecordSimulation(sim);
  if (!sim.latencies_ms.empty()) {
    result.mean_ms = Mean(sim.latencies_ms);
    std::sort(sim.latencies_ms.begin(), sim.latencies_ms.end());
    result.p50_ms = SortedPercentile(sim.latencies_ms, 50);
    result.p95_ms = SortedPercentile(sim.latencies_ms, 95);
    result.p99_ms = SortedPercentile(sim.latencies_ms, 99);
  }
  return result;
}

std::vector<StatusOr<ServingResult>> SimulateServingGrid(
    const std::vector<std::vector<double>>& true_service_us,
    const std::vector<std::vector<double>>& predicted_service_us,
    const std::vector<double>& job_mix, const ServingConfig& base_config,
    const std::vector<ServingGridCell>& cells, int jobs,
    obs::ChromeTraceWriter* trace_out, obs::FlightTimeline* timeline_out) {
  std::vector<StatusOr<ServingResult>> results(
      cells.size(), InternalError("simulation did not run"));
  // Per-cell tracers and flight recorders, recorded in parallel and
  // merged serially below — the same pre-sized-slot pattern as
  // `results`, so trace and timeline bytes never depend on `jobs`.
  std::vector<obs::SpanTracer> tracers(
      trace_out != nullptr ? cells.size() : 0);
  std::vector<obs::FlightRecorder> recorders;
  if (timeline_out != nullptr) {
    recorders.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      recorders.emplace_back(base_config.recorder_config);
    }
  }
  ThreadPool pool(jobs);
  pool.ParallelFor(cells.size(), [&](std::size_t i) {
    ServingConfig config = base_config;
    config.policy = cells[i].policy;
    config.seed = cells[i].seed;
    config.faults.seed = cells[i].seed;
    config.chaos.seed = cells[i].seed;
    config.recorder = timeline_out != nullptr ? &recorders[i] : nullptr;
    results[i] =
        SimulateServing(true_service_us, predicted_service_us, job_mix,
                        config, trace_out != nullptr ? &tracers[i] : nullptr);
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string label =
        Format("cell %zu: %s seed %llu", i,
               DispatchPolicyName(cells[i].policy).c_str(),
               (unsigned long long)cells[i].seed);
    if (trace_out != nullptr) {
      tracers[i].AppendTo(trace_out, static_cast<int>(i) + 1, label);
    }
    if (timeline_out != nullptr) {
      timeline_out->Append(recorders[i], label);
      if (trace_out != nullptr) {
        recorders[i].AppendCounterEvents(trace_out, static_cast<int>(i) + 1);
      }
    }
  }
  return results;
}

}  // namespace gpuperf::simsys
