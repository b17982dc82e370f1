#include "models/predictor_stack.h"

#include <memory>
#include <utility>

#include "obs/metrics_registry.h"

namespace gpuperf::models {
namespace {

/** Process-wide tier counters, aggregated across every stack. */
struct PredictorMetrics {
  obs::Counter& kw_hits;
  obs::Counter& lw_fallbacks;
  obs::Counter& e2e_fallbacks;
  obs::Counter& unanswered;

  static PredictorMetrics& Get() {
    static PredictorMetrics* const kMetrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new PredictorMetrics{
          registry.counter("gpuperf_predictor_kw_hits"),
          registry.counter("gpuperf_predictor_lw_fallbacks"),
          registry.counter("gpuperf_predictor_e2e_fallbacks"),
          registry.counter("gpuperf_predictor_unanswered")};
    }();
    return *kMetrics;
  }
};

}  // namespace

const char* PredictorTierName(PredictorTier tier) {
  switch (tier) {
    case PredictorTier::kKw: return "KW";
    case PredictorTier::kLw: return "LW";
    case PredictorTier::kE2e: return "E2E";
    case PredictorTier::kNone: return "none";
  }
  GP_CHECK(false) << "unhandled PredictorTier";
  return "";
}

void PredictorStack::SetKw(KwModel kw) {
  kw_ = std::make_shared<const KwModel>(std::move(kw));
}

void PredictorStack::SetKw(std::shared_ptr<const KwModel> kw) {
  kw_ = std::move(kw);
}

void PredictorStack::SetLw(LwModel lw) {
  lw_ = std::move(lw);
  lw_gpus_.clear();
  for (const auto& [key, fit] : lw_->fits()) {
    (void)fit;
    lw_gpus_.insert(key.first);
  }
}

void PredictorStack::SetE2e(E2eModel e2e) { e2e_ = std::move(e2e); }

StatusOr<double> PredictorStack::TryPredictUs(const dnn::Network& network,
                                              const gpuexec::GpuSpec& gpu,
                                              std::int64_t batch,
                                              PredictorTier* tier) const {
  if (tier != nullptr) *tier = PredictorTier::kNone;
  PredictorMetrics& global = PredictorMetrics::Get();
  if (kw_ != nullptr && kw_->CoverageFor(network, gpu.name).Full()) {
    global.kw_hits.Increment();
    if (tier != nullptr) *tier = PredictorTier::kKw;
    return kw_->PredictUs(network, gpu, batch);
  }
  if (lw_.has_value() && lw_gpus_.count(gpu.name) > 0) {
    global.lw_fallbacks.Increment();
    if (tier != nullptr) *tier = PredictorTier::kLw;
    return lw_->PredictUs(network, gpu, batch);
  }
  if (e2e_.has_value() && e2e_->TryFitFor(gpu.name) != nullptr) {
    global.e2e_fallbacks.Increment();
    if (tier != nullptr) *tier = PredictorTier::kE2e;
    return e2e_->PredictUs(network, gpu, batch);
  }
  global.unanswered.Increment();
  return FailedPreconditionError(
      "no predictor tier covers network '" + network.name() + "' on GPU '" +
      gpu.name + "' (installed: " + (has_kw() ? "KW " : "") +
      (has_lw() ? "LW " : "") + (has_e2e() ? "E2E" : "") +
      "); retrain or extend the measurement campaign");
}

double PredictorStack::PredictUs(const dnn::Network& network,
                                 const gpuexec::GpuSpec& gpu,
                                 std::int64_t batch) const {
  StatusOr<double> prediction = TryPredictUs(network, gpu, batch);
  return prediction.ok() ? *prediction : 0.0;
}

void PredictorStack::PredictMany(std::span<const PredictQuery> queries,
                                 std::span<double> out_us) const {
  PredictManySwept(queries, out_us, nullptr);
}

void PredictorStack::PredictManyWithTiers(
    std::span<const PredictQuery> queries, std::span<double> out_us,
    std::span<PredictorTier> tiers) const {
  GP_CHECK_EQ(queries.size(), tiers.size());
  PredictManySwept(queries, out_us, tiers.data());
}

void PredictorStack::PredictManySwept(std::span<const PredictQuery> queries,
                                      std::span<double> out_us,
                                      PredictorTier* tiers) const {
  GP_CHECK_EQ(queries.size(), out_us.size());
  // One KW generation snapshot per sweep, not per query: a concurrent
  // BundleRegistry hot-swap costs this sweep a single shared_ptr copy,
  // and the local reference keeps the old generation (and its compiled
  // plans) alive until the sweep finishes.
  const std::shared_ptr<const KwModel> kw_snapshot = kw_;
  const KwModel* kw = kw_snapshot.get();

  const dnn::Network* last_network = nullptr;
  const gpuexec::GpuSpec* last_gpu = nullptr;
  PredictorTier tier = PredictorTier::kNone;
  const PredictionPlan* plan = nullptr;  // set iff tier == kKw
  std::uint64_t tally[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const PredictQuery& query = queries[i];
    if (query.network != last_network || query.gpu != last_gpu) {
      // Tier selection depends only on the (network, GPU) pair, so it —
      // and the KW plan resolution — is memoized across a run of
      // same-pair queries (e.g. a batch-size scan).
      plan = nullptr;
      if (kw != nullptr && kw->CoverageFor(*query.network, query.gpu->name)
                               .Full()) {
        tier = PredictorTier::kKw;
        plan = kw->PlanFor(*query.network, *query.gpu);
      } else if (lw_.has_value() && lw_gpus_.count(query.gpu->name) > 0) {
        tier = PredictorTier::kLw;
      } else if (e2e_.has_value() &&
                 e2e_->TryFitFor(query.gpu->name) != nullptr) {
        tier = PredictorTier::kE2e;
      } else {
        tier = PredictorTier::kNone;
      }
      last_network = query.network;
      last_gpu = query.gpu;
    }
    switch (tier) {
      case PredictorTier::kKw:
        out_us[i] = plan->EvalUs(query.batch);
        break;
      case PredictorTier::kLw:
        out_us[i] = lw_->PredictUs(*query.network, *query.gpu, query.batch);
        break;
      case PredictorTier::kE2e:
        out_us[i] = e2e_->PredictUs(*query.network, *query.gpu, query.batch);
        break;
      case PredictorTier::kNone:
        out_us[i] = 0.0;  // PredictUs maps an uncovered query to 0
        break;
    }
    if (tiers != nullptr) tiers[i] = tier;
    ++tally[static_cast<int>(tier)];
  }

  // Counters carry the same totals as per-query calls, bumped once per
  // sweep with the aggregated tallies.
  PredictorMetrics& global = PredictorMetrics::Get();
  const std::uint64_t kw_n = tally[static_cast<int>(PredictorTier::kKw)];
  const std::uint64_t lw_n = tally[static_cast<int>(PredictorTier::kLw)];
  const std::uint64_t e2e_n = tally[static_cast<int>(PredictorTier::kE2e)];
  const std::uint64_t none_n = tally[static_cast<int>(PredictorTier::kNone)];
  if (kw_n > 0) {
    global.kw_hits.Increment(kw_n);
    internal::CountPlanQueries(kw_n);
  }
  if (lw_n > 0) global.lw_fallbacks.Increment(lw_n);
  if (e2e_n > 0) global.e2e_fallbacks.Increment(e2e_n);
  if (none_n > 0) global.unanswered.Increment(none_n);
}

}  // namespace gpuperf::models
