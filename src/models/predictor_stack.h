#ifndef GPUPERF_MODELS_PREDICTOR_STACK_H_
#define GPUPERF_MODELS_PREDICTOR_STACK_H_

/**
 * @file
 * Graceful-degradation predictor: KW -> LW -> E2E.
 *
 * A deployed predictor (Figure 10's shipped bundle, the serving
 * dispatcher) meets workloads outside its trained scope: networks whose
 * layer signatures miss the mapping table, GPUs the bundle was never
 * trained for, or a bundle that failed to load entirely. Habitat
 * (arXiv:2102.00527) frames this as the central deployment problem — a
 * predictor must degrade, not die. The stack answers from the most
 * accurate tier whose trained scope covers the query and counts every
 * answer in the process-wide `gpuperf_predictor_*` registry counters
 * (kw_hits, lw_fallbacks, e2e_fallbacks, unanswered), so operators can
 * observe how often they are running on a degraded tier (and go
 * retrain when the fraction grows).
 *
 * Tier order mirrors the paper's accuracy ladder: KW (~7% error), LW
 * (~28%), E2E (~35%). A query no tier covers is a recoverable error,
 * never an abort.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "common/status.h"
#include "models/e2e_model.h"
#include "models/kw_model.h"
#include "models/lw_model.h"
#include "models/predictor.h"

namespace gpuperf::models {

/** The tier that answered (or kNone when nothing covered the query). */
enum class PredictorTier { kKw, kLw, kE2e, kNone };

/** Stable tier name: "KW", "LW", "E2E", "none". */
const char* PredictorTierName(PredictorTier tier);

/** The KW -> LW -> E2E fallback stack. */
class PredictorStack : public Predictor {
 public:
  PredictorStack() = default;

  /**
   * Installs a tier (each takes ownership; overwrites any previous one).
   * A stack built from a bundle that failed to load simply never gets
   * SetKw() called and starts at the LW tier.
   */
  void SetKw(KwModel kw);
  void SetLw(LwModel lw);
  void SetE2e(E2eModel e2e);

  /**
   * Installs a shared KW generation — typically a BundleRegistry
   * snapshot, so the stack and the registry share one immutable model.
   * nullptr uninstalls the tier (the stack degrades to LW).
   */
  void SetKw(std::shared_ptr<const KwModel> kw);

  bool has_kw() const { return kw_ != nullptr; }
  bool has_lw() const { return lw_.has_value(); }
  bool has_e2e() const { return e2e_.has_value(); }

  std::string Name() const override { return "Stack"; }

  /**
   * Predicts from the best covering tier; reports which tier answered
   * via `tier` (optional). Returns FailedPrecondition when no installed
   * tier covers (network, gpu) — e.g. an empty stack, or a GPU no tier
   * was trained for.
   */
  [[nodiscard]] StatusOr<double> TryPredictUs(const dnn::Network& network,
                                const gpuexec::GpuSpec& gpu,
                                std::int64_t batch,
                                PredictorTier* tier = nullptr) const;

  /** Predictor interface: as TryPredictUs, but an uncovered query is 0. */
  double PredictUs(const dnn::Network& network, const gpuexec::GpuSpec& gpu,
                   std::int64_t batch) const override;

  /**
   * Batched prediction with the same tier ladder and counter semantics
   * as per-query TryPredictUs (uncovered queries produce 0.0, matching
   * PredictUs), but amortized across the sweep: the KW generation
   * shared_ptr is snapshotted once per call instead of once per query,
   * tier selection and the compiled KW plan are memoized across
   * same-(network, GPU) runs, and counters are bumped once per sweep
   * with the aggregated tallies. Bit-identical to per-query PredictUs.
   */
  void PredictMany(std::span<const PredictQuery> queries,
                   std::span<double> out_us) const override;

  /**
   * As PredictMany, additionally reporting the answering tier per query
   * in `tiers` (same length as `queries`; kNone for uncovered).
   */
  void PredictManyWithTiers(std::span<const PredictQuery> queries,
                            std::span<double> out_us,
                            std::span<PredictorTier> tiers) const;

 private:
  // Shared with BundleRegistry snapshots; the pointee is immutable and
  // its predict path is const and thread-safe.
  std::shared_ptr<const KwModel> kw_;
  std::optional<LwModel> lw_;
  std::optional<E2eModel> e2e_;
  std::set<std::string> lw_gpus_;  // GPUs the LW tier has fits for

  /** Shared sweep implementation; `tiers` may be null. */
  void PredictManySwept(std::span<const PredictQuery> queries,
                        std::span<double> out_us,
                        PredictorTier* tiers) const;
};

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_PREDICTOR_STACK_H_
