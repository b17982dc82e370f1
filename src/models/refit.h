#ifndef GPUPERF_MODELS_REFIT_H_
#define GPUPERF_MODELS_REFIT_H_

/**
 * @file
 * Incremental refit and the self-healing bundle lifecycle.
 *
 * When the drift monitor trips a (GPU, cluster) pair, retraining the
 * whole model from a fresh profiling campaign is the slow path (hours
 * of tracing). The fast path implemented here re-estimates *only the
 * tripped clusters* from a bounded reservoir of recent serving
 * observations — each completed job contributes one (driver value,
 * attributed observed time) pair per kernel term — and ships the result
 * through the exact same gates as an offline retrain:
 *
 *   healthy --(monitor trips)--> drifting --(refit + save)--> shadow
 *     --(candidate scores >= champion on recent jobs)--> canary
 *     (BundleRegistry::TryPromote: integrity + probe gate, atomic swap)
 *     --(post-promotion residuals stay small)--> promoted
 *     --(residuals worsen)--> rolled-back (BundleRegistry::Rollback)
 *
 * The LifecycleController walks that state machine one transition per
 * Step(); every transition is a structured log line ("lifecycle
 * transition", from=/to=) and a `gpuperf_lifecycle_*` counter, so an
 * operator — or scripts/drift_smoke.sh — can audit exactly what the
 * loop decided and why. All decisions are driven by the deterministic
 * observation stream, never wall clocks, so a fixed scenario heals
 * bit-identically on every run.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dnn/network.h"
#include "models/bundle_registry.h"
#include "models/drift_monitor.h"

namespace gpuperf::models {

/** Refit knobs. */
struct RefitOptions {
  int reservoir_capacity = 256;  // samples kept per (GPU, cluster)
  int min_samples = 8;           // samples required to re-estimate a pair
  double max_intercept_us = 20.0;  // same physical clamp as training
};

/**
 * A bounded ring of recent (driver value, attributed observed us)
 * samples per (GPU, cluster). Attribution: a completed job's kernel
 * term contributes y = term.us * observed_e2e / predicted_e2e — the
 * e2e drift ratio applied to the term's predicted share, in the same
 * pre-calibration units the cluster fit is trained in. Not thread-safe.
 */
class RefitReservoir {
 public:
  explicit RefitReservoir(int capacity);

  /** Records one sample, evicting the oldest once the ring is full. */
  void Add(const std::string& gpu, int cluster_id, double x, double y);

  /**
   * Copies the pair's samples into `x`/`y` (appended, oldest-first
   * within the ring's stable order). Returns the sample count.
   */
  std::size_t Collect(const std::string& gpu, int cluster_id,
                      std::vector<double>* x, std::vector<double>* y) const;

  std::size_t Size(const std::string& gpu, int cluster_id) const;

  /** Drops one pair's ring (after its cluster was re-estimated). */
  void Reset(const std::string& gpu, int cluster_id);

 private:
  struct Ring {
    std::vector<double> x;
    std::vector<double> y;
    std::size_t next = 0;  // insertion cursor once the ring wrapped
    bool full = false;
  };

  int capacity_;
  std::map<std::pair<std::string, int>, Ring> rings_;
};

/** What RefitTrippedClusters produced. */
struct RefitResult {
  std::string candidate_dir;    // the saved candidate bundle
  std::vector<DriftKey> refit;  // pairs actually re-estimated
};

/**
 * Loads the serving bundle from `serving_dir`, re-estimates every
 * tripped pair that has at least `options.min_samples` reservoir
 * samples with an intercept-clamped OLS fit (the training clamp), and
 * saves the patched model into `candidate_dir` (created if needed).
 * Pairs with too few samples are skipped; kUnavailable when *no* pair
 * could be re-estimated (the caller keeps collecting). The serving
 * bundle on disk is never modified.
 */
[[nodiscard]] StatusOr<RefitResult> RefitTrippedClusters(
    const std::string& serving_dir, const std::vector<DriftKey>& tripped,
    const RefitReservoir& reservoir, const RefitOptions& options,
    const std::string& candidate_dir);

/** The lifecycle controller's state machine. */
enum class LifecycleState {
  kHealthy,     // residuals nominal; monitoring
  kDrifting,    // pairs tripped; collecting refit samples
  kShadow,      // candidate saved; scoring it against the champion
  kCanary,      // candidate promoted; watching post-promotion residuals
  kPromoted,    // watch passed; candidate confirmed
  kRolledBack,  // watch failed; previous generation restored
};

/** Stable lower-case state name ("healthy", ..., "rolled-back"). */
const char* LifecycleStateName(LifecycleState state);

/** Controller knobs. */
struct LifecycleOptions {
  DriftMonitorOptions monitor;
  RefitOptions refit;
  std::string work_dir;  // candidate bundles land in work_dir/candidate-N
  int shadow_window = 64;           // recent jobs kept for shadow scoring
  int min_shadow_observations = 8;  // affected-GPU jobs needed to score
  // Candidate passes shadow when its mean |log-ratio| on recent affected-
  // GPU jobs is <= the champion's times this margin (1.0 = must not be
  // worse).
  double shadow_margin = 1.0;
  int watch_window = 32;  // affected-GPU jobs watched after promotion
  // Post-promotion mean |log-ratio| above this triggers Rollback().
  double rollback_threshold = 0.25;
};

/** Observability counters of one controller. */
struct LifecycleCounters {
  std::uint64_t transitions = 0;
  std::uint64_t refits = 0;             // candidate bundles produced
  std::uint64_t shadow_rejections = 0;  // candidates worse than champion
  std::uint64_t canary_rejections = 0;  // TryPromote refusals
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
};

/**
 * Drives drift detection, refit, and promotion over a registry. The
 * caller streams completed jobs through Observe() and calls Step()
 * whenever it wants the lifecycle to make progress (the self-healing
 * serving loop does so once per epoch); each Step() advances at most
 * one transition. Not thread-safe — one controller per serving loop.
 */
class LifecycleController {
 public:
  /**
   * `registry` (borrowed) must outlive the controller and already be
   * serving the bundle in `serving_dir` — the refit path reloads that
   * directory to build candidates.
   */
  LifecycleController(BundleRegistry* registry, std::string serving_dir,
                      CanaryOptions canary, LifecycleOptions options);

  /**
   * Feeds one completed job. Attributes the residual to the kernel
   * clusters the serving snapshot used for this (network, GPU, batch),
   * read off the snapshot's cached plan (layer-wise fallback terms have
   * no cluster and are skipped), stores a shadow-scoring sample, and during the canary watch
   * accumulates post-promotion residuals. Jobs with non-finite or
   * non-positive predicted/observed times are ignored. `network` is
   * borrowed and must stay alive for `shadow_window` more observations.
   */
  void Observe(const dnn::Network& network, const std::string& gpu,
               std::int64_t batch, double predicted_us, double observed_us);

  /** Advances at most one transition; returns the state afterwards. */
  LifecycleState Step();

  LifecycleState state() const { return state_; }
  const DriftMonitor& monitor() const { return monitor_; }
  const LifecycleCounters& counters() const { return counters_; }
  /** Directory of the generation the controller believes is serving. */
  const std::string& serving_dir() const { return serving_dir_; }

 private:
  struct ShadowSample {
    const dnn::Network* network;
    std::string gpu;
    std::int64_t batch;
    double observed_us;
  };

  void Transition(LifecycleState to);
  /** Mean |log(observed/predicted(model))| over affected-GPU samples. */
  double ShadowScore(const KwModel& model, std::size_t* scored) const;
  bool AffectsGpu(const std::string& gpu) const;

  BundleRegistry* registry_;
  std::string serving_dir_;
  CanaryOptions canary_;
  LifecycleOptions options_;
  DriftMonitor monitor_;
  RefitReservoir reservoir_;
  LifecycleCounters counters_;

  LifecycleState state_ = LifecycleState::kHealthy;
  std::deque<ShadowSample> shadow_;
  int candidate_seq_ = 0;
  std::string candidate_dir_;
  std::string previous_serving_dir_;
  std::vector<DriftKey> refit_keys_;  // pairs the candidate re-estimated
  double watch_abs_sum_ = 0;          // post-promotion |log-ratio| sum
  std::size_t watch_count_ = 0;
};

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_REFIT_H_
