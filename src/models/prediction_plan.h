#ifndef GPUPERF_MODELS_PREDICTION_PLAN_H_
#define GPUPERF_MODELS_PREDICTION_PLAN_H_

/**
 * @file
 * Compiled prediction plans — the one evaluator of the KW and IGKW
 * models.
 *
 * The KW model (Section 5.4) is a sum of per-kernel cluster
 * regressions; a PredictionPlan is that sum for one (network, GPU)
 * pair, frozen into a flat structure-of-arrays program: one term per
 * kernel (or per layer-wise fallback fit) holding the per-sample
 * cost-driver value and the fitted slope/intercept, grouped into layers
 * that carry the calibration scales. `PredictUs`, `PredictMany`,
 * `PredictLayerUs` (a one-layer plan), `gpuperf explain` and the drift
 * observer all evaluate plans, and every evaluation is one loop —
 * `PredictionPlan::Walk` — so there is no second evaluator whose
 * floating-point order could drift from the first. The loop does no
 * hashing, no refcounting, no virtual dispatch and no allocation.
 *
 * Batch size is a *query* axis, not a plan axis: every cost driver the
 * models use (input NCHW, layer FLOPs, output NCHW) is linear in batch
 * (`bench_fig05_batch_linear`), so a term stores the per-sample value
 * and the sweep multiplies by the query's batch. One plan serves all
 * batch sizes.
 *
 * Plans live in a per-model PlanCache keyed by network name (validated
 * against the structural fingerprint) and a per-GPU slot. Each entry
 * also holds the network's GPU-independent signature ids, resolved once
 * per network, so compiling a further GPU's plan does no string work.
 * A model generation owns its cache, so bundle promotion/rollback
 * through models::BundleRegistry invalidates plans for free: a new
 * generation is a new KwModel with an empty cache, while snapshots of
 * the old generation keep their compiled plans alive and correct.
 *
 * Observability: `gpuperf_predictor_plan_{compiles,queries,
 * invalidations}` in obs::MetricsRegistry::Global(), plus a structured
 * debug log line per compilation.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/synchronization.h"
#include "dnn/network.h"

namespace gpuperf::models {

/**
 * Structural hash of a network: per layer, the kind, every tensor dim,
 * the parameters LayerSignature reads and the ones the cost drivers
 * read (conv channels, linear features) — all that signature ids and
 * plan terms depend on. Layer names (explain labels) are not hashed.
 */
std::uint64_t NetworkFingerprint(const dnn::Network& network);

/** One evaluated plan term, as PredictionPlan::Walk hands it out. */
struct PlanTerm {
  std::size_t layer = 0;  // owning layer's index in the plan
  int cluster_id = -1;    // kernel cluster; -1 = layer-wise fallback
  double x = 0;           // batch-scaled cost-driver value
  double us = 0;          // max(0, intercept + slope * x), pre-calibration
};

/**
 * Walk visitor with no-op hooks; visitors derive from it and hide the
 * hooks they need. `Term` sees every term in plan order; `Layer` sees
 * each layer's exact addend to the total, after its terms.
 */
struct PlanVisitor {
  void Term(const PlanTerm& term) { (void)term; }
  void Layer(std::size_t layer, double addend) {
    (void)layer;
    (void)addend;
  }
};

/**
 * A compiled (network, GPU) prediction program: contiguous per-term
 * arrays swept in layer order. Immutable after compilation; safe to
 * evaluate from concurrent threads.
 */
class PredictionPlan {
 public:
  /**
   * Opens the next layer group. `scale_a` multiplies the layer's term
   * sum first (the KW per-GPU or IGKW mean calibration factor; 1.0 for
   * layer-wise fallback terms), `scale_b` second (the IGKW
   * nearest-GPU bandwidth ratio; 1.0 otherwise). Multiplying by 1.0 is
   * an IEEE identity, so unused scales never perturb bit-equality.
   * `label` is explain-only metadata (the layer's name; never read by
   * the evaluation sweep).
   */
  void BeginLayer(double scale_a, double scale_b, std::string label = "");

  /**
   * Appends one `max(0, intercept + slope * (batch * per_sample_value))`
   * term to the currently open layer. `cluster_id` is the kernel
   * cluster the fit came from (-1 for layer-wise fallback terms).
   */
  void AddTerm(std::int64_t per_sample_value, double slope, double intercept,
               int cluster_id = -1);

  /**
   * The evaluation loop: sums the plan at `batch`, handing each term
   * and each layer addend to `visitor` (see PlanVisitor), and returns
   * the predicted end-to-end microseconds. Every prediction, explain
   * breakdown and drift observation is this loop.
   */
  template <typename Visitor>
  double Walk(std::int64_t batch, Visitor& visitor) const {
    double total = 0.0;
    std::uint32_t term = 0;
    const std::size_t layers = layer_end_.size();
    for (std::size_t i = 0; i < layers; ++i) {
      const std::uint32_t end = layer_end_[i];
      double subtotal = 0.0;
      for (; term < end; ++term) {
        // The driver value is an int64 product converted once, the fit
        // is evaluated as intercept + slope * x, negatives clamp to 0.
        const double x = static_cast<double>(batch * value_[term]);
        const double us = std::max(0.0, intercept_[term] + slope_[term] * x);
        subtotal += us;
        visitor.Term(PlanTerm{i, cluster_[term], x, us});
      }
      const double addend = subtotal * scale_a_[i] * scale_b_[i];
      total += addend;
      visitor.Layer(i, addend);
    }
    return total;
  }

  /** Predicted end-to-end microseconds for one batch size. */
  double EvalUs(std::int64_t batch) const;

  std::size_t layer_count() const { return layer_end_.size(); }
  std::size_t term_count() const { return value_.size(); }
  double layer_scale_a(std::size_t layer) const { return scale_a_[layer]; }
  double layer_scale_b(std::size_t layer) const { return scale_b_[layer]; }
  const std::string& layer_label(std::size_t layer) const {
    return label_[layer];
  }

 private:
  // Terms (SoA): per-sample cost-driver value, fitted line, cluster.
  std::vector<std::int64_t> value_;
  std::vector<double> slope_;
  std::vector<double> intercept_;
  std::vector<int> cluster_;
  // Layers: exclusive end index into the term arrays plus both scales.
  std::vector<std::uint32_t> layer_end_;
  std::vector<double> scale_a_;
  std::vector<double> scale_b_;
  std::vector<std::string> label_;  // explain metadata; not read by Walk
};

/**
 * Thread-safe per-model cache of signature ids and compiled plans.
 *
 * Keyed by network name + structural fingerprint (reusing a name for a
 * different architecture retires the stale ids and plans), each entry
 * holds the network's per-layer signature ids — GPU-independent,
 * resolved once — beside one plan slot per GPU identity. A hit takes
 * one shared lock and returns a stable raw pointer, valid until
 * Clear(), so the steady-state hot path does no refcounting and no
 * allocation. Copying a model copies the cache (ids and plans are
 * immutable and shared); the copy gets its own lock.
 */
class PlanCache {
 public:
  /**
   * The GPU identity of a slot. KW plans use the dense trained-GPU
   * index; IGKW plans are spec-driven (hypothetical GPUs have no stable
   * name), so they key on the scaling features instead.
   */
  struct SlotKey {
    int gpu_index = -1;
    double feature_a = 0;
    double feature_b = 0;
    bool operator==(const SlotKey&) const = default;
  };

  PlanCache() = default;
  PlanCache(const PlanCache& other);
  PlanCache& operator=(const PlanCache& other);

  /**
   * The per-layer signature ids of `network`, resolving each layer with
   * `resolve` (a callable `int(const dnn::Layer&)`) on first sight or
   * after a fingerprint mismatch. `fingerprint` is
   * NetworkFingerprint(network), passed in so batched sweeps hash each
   * network once per run. Valid until Clear().
   */
  template <typename ResolveFn>
  const std::vector<int>* Sids(const dnn::Network& network,
                               std::uint64_t fingerprint,
                               const ResolveFn& resolve) const {
    {
      SharedReaderLock lock(mu_);
      const Entry* entry = FindLocked(network.name(), fingerprint);
      if (entry != nullptr) return entry->sids.get();
    }
    // Resolve outside the lock; a concurrent identical resolve keeps
    // the incumbent (first writer wins).
    std::vector<int> sids;
    sids.reserve(network.layers().size());
    for (const dnn::Layer& layer : network.layers()) {
      sids.push_back(resolve(layer));
    }
    SharedMutexLock lock(mu_);
    return InstallSidsLocked(network.name(), fingerprint, std::move(sids));
  }

  /**
   * The plan for (`network`, `slot`), compiling it on first sight with
   * `compile` (a callable taking the network's signature ids, see
   * Sids(), and returning a PredictionPlan). The returned pointer stays
   * valid until Clear() — models only Clear() when retrained or
   * reloaded.
   */
  template <typename ResolveFn, typename CompileFn>
  const PredictionPlan* Get(const dnn::Network& network,
                            std::uint64_t fingerprint, const SlotKey& slot,
                            const ResolveFn& resolve,
                            const CompileFn& compile) const {
    {
      SharedReaderLock lock(mu_);
      const PredictionPlan* hit =
          FindPlanLocked(network.name(), fingerprint, slot);
      if (hit != nullptr) return hit;
    }
    // Compile outside the lock so a slow compilation never blocks
    // readers hitting other plans.
    auto plan = std::make_shared<const PredictionPlan>(
        compile(*Sids(network, fingerprint, resolve)));
    SharedMutexLock lock(mu_);
    return InsertLocked(network.name(), fingerprint, slot, std::move(plan));
  }

  /** Drops every plan (models call this when retrained or reloaded). */
  void Clear();

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const std::vector<int>> sids;
    // Slot count is the number of distinct GPUs queried for this
    // network — single digits in practice, so a linear scan beats a
    // second hash map and stays allocation-free on the hit path.
    std::vector<std::pair<SlotKey, std::shared_ptr<const PredictionPlan>>>
        slots;
  };

  const Entry* FindLocked(const std::string& name,
                          std::uint64_t fingerprint) const
      GP_REQUIRES_SHARED(mu_);
  const PredictionPlan* FindPlanLocked(const std::string& name,
                                       std::uint64_t fingerprint,
                                       const SlotKey& slot) const
      GP_REQUIRES_SHARED(mu_);
  const std::vector<int>* InstallSidsLocked(const std::string& name,
                                            std::uint64_t fingerprint,
                                            std::vector<int> sids) const
      GP_REQUIRES(mu_);
  const PredictionPlan* InsertLocked(
      const std::string& name, std::uint64_t fingerprint, const SlotKey& slot,
      std::shared_ptr<const PredictionPlan> plan) const GP_REQUIRES(mu_);

  mutable SharedMutex mu_;
  mutable std::unordered_map<std::string, Entry> entries_ GP_GUARDED_BY(mu_);
  // Ids and plans retired by a fingerprint mismatch are parked here (not
  // freed) until Clear(), so raw pointers held by in-flight sweeps stay
  // valid even across a concurrent name reuse.
  mutable std::vector<std::shared_ptr<const void>> retired_
      GP_GUARDED_BY(mu_);
};

namespace internal {

/** Bumps `gpuperf_predictor_plan_queries` (PredictMany implementations). */
void CountPlanQueries(std::uint64_t n);

}  // namespace internal

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_PREDICTION_PLAN_H_
