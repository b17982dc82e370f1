#include "models/refit.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "gpuexec/gpu_spec.h"
#include "models/model_io.h"
#include "obs/metrics_registry.h"
#include "regression/linreg.h"

namespace gpuperf::models {
namespace {

struct LifecycleMetrics {
  obs::Counter& transitions;
  obs::Counter& refits;
  obs::Counter& shadow_rejections;
  obs::Counter& canary_rejections;
  obs::Counter& promotions;
  obs::Counter& rollbacks;

  static LifecycleMetrics& Get() {
    static LifecycleMetrics* const kMetrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new LifecycleMetrics{
          registry.counter("gpuperf_lifecycle_transitions"),
          registry.counter("gpuperf_lifecycle_refits"),
          registry.counter("gpuperf_lifecycle_shadow_rejections"),
          registry.counter("gpuperf_lifecycle_canary_rejections"),
          registry.counter("gpuperf_lifecycle_promotions"),
          registry.counter("gpuperf_lifecycle_rollbacks")};
    }();
    return *kMetrics;
  }
};

}  // namespace

RefitReservoir::RefitReservoir(int capacity) : capacity_(capacity) {
  GP_CHECK_GT(capacity_, 0);
}

void RefitReservoir::Add(const std::string& gpu, int cluster_id, double x,
                         double y) {
  if (!std::isfinite(x) || !std::isfinite(y)) return;
  Ring& ring = rings_[{gpu, cluster_id}];
  if (!ring.full) {
    ring.x.push_back(x);
    ring.y.push_back(y);
    if (ring.x.size() == static_cast<std::size_t>(capacity_)) {
      ring.full = true;
      ring.next = 0;
    }
    return;
  }
  ring.x[ring.next] = x;
  ring.y[ring.next] = y;
  ring.next = (ring.next + 1) % static_cast<std::size_t>(capacity_);
}

std::size_t RefitReservoir::Collect(const std::string& gpu, int cluster_id,
                                    std::vector<double>* x,
                                    std::vector<double>* y) const {
  auto it = rings_.find({gpu, cluster_id});
  if (it == rings_.end()) return 0;
  const Ring& ring = it->second;
  // Oldest-first: once wrapped, the cursor points at the oldest sample.
  const std::size_t start = ring.full ? ring.next : 0;
  const std::size_t count = ring.x.size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = (start + i) % count;
    x->push_back(ring.x[j]);
    y->push_back(ring.y[j]);
  }
  return count;
}

std::size_t RefitReservoir::Size(const std::string& gpu,
                                 int cluster_id) const {
  auto it = rings_.find({gpu, cluster_id});
  return it == rings_.end() ? 0 : it->second.x.size();
}

void RefitReservoir::Reset(const std::string& gpu, int cluster_id) {
  rings_.erase({gpu, cluster_id});
}

StatusOr<RefitResult> RefitTrippedClusters(const std::string& serving_dir,
                                           const std::vector<DriftKey>& tripped,
                                           const RefitReservoir& reservoir,
                                           const RefitOptions& options,
                                           const std::string& candidate_dir) {
  if (tripped.empty()) {
    return InvalidArgumentError("refit called with no tripped pairs");
  }
  // Recovering load: the serving dir is exactly the bundle promotions
  // overwrite, so a crashed save must resolve before refitting on it.
  StatusOr<KwModel> loaded = ModelIo::LoadKwRecovering(serving_dir);
  if (!loaded.ok()) return loaded.status();
  KwModel& model = *loaded;

  RefitResult result;
  result.candidate_dir = candidate_dir;
  for (const DriftKey& key : tripped) {
    std::vector<double> x, y;
    if (reservoir.Collect(key.gpu, key.cluster_id, &x, &y) <
        static_cast<std::size_t>(options.min_samples)) {
      continue;
    }
    const regression::LinearFit fit = regression::FitLinearClampedIntercept(
        x, y, options.max_intercept_us);
    if (fit.n == 0 || !std::isfinite(fit.slope) ||
        !std::isfinite(fit.intercept)) {
      continue;
    }
    if (model.UpdateClusterFit(key.gpu, key.cluster_id, fit) > 0) {
      result.refit.push_back(key);
    }
  }
  if (result.refit.empty()) {
    return UnavailableError(
        "no tripped (GPU, cluster) pair has enough refit samples yet");
  }

  std::error_code ec;
  std::filesystem::create_directories(candidate_dir, ec);
  if (ec) {
    return UnavailableError("cannot create candidate directory " +
                            candidate_dir + ": " + ec.message());
  }
  GP_RETURN_IF_ERROR(ModelIo::SaveKw(model, candidate_dir));
  LogInfo("refit candidate saved",
          {{"dir", candidate_dir},
           {"clusters", Format("%zu", result.refit.size())}});
  return result;
}

const char* LifecycleStateName(LifecycleState state) {
  switch (state) {
    case LifecycleState::kHealthy: return "healthy";
    case LifecycleState::kDrifting: return "drifting";
    case LifecycleState::kShadow: return "shadow";
    case LifecycleState::kCanary: return "canary";
    case LifecycleState::kPromoted: return "promoted";
    case LifecycleState::kRolledBack: return "rolled-back";
  }
  return "unknown";
}

LifecycleController::LifecycleController(BundleRegistry* registry,
                                         std::string serving_dir,
                                         CanaryOptions canary,
                                         LifecycleOptions options)
    : registry_(registry),
      serving_dir_(std::move(serving_dir)),
      canary_(std::move(canary)),
      options_(std::move(options)),
      monitor_(options_.monitor),
      reservoir_(options_.refit.reservoir_capacity) {
  GP_CHECK(registry_ != nullptr);
  GP_CHECK(!options_.work_dir.empty());
  GP_CHECK_GT(options_.shadow_window, 0);
  GP_CHECK_GT(options_.watch_window, 0);
}

void LifecycleController::Observe(const dnn::Network& network,
                                  const std::string& gpu, std::int64_t batch,
                                  double predicted_us, double observed_us) {
  if (!std::isfinite(predicted_us) || predicted_us <= 0 ||
      !std::isfinite(observed_us) || observed_us <= 0) {
    return;
  }
  std::shared_ptr<const KwModel> snapshot = registry_->Snapshot();
  if (snapshot == nullptr) return;
  if (!snapshot->CoverageFor(network, gpu).gpu_trained) return;

  const double ratio = observed_us / predicted_us;
  const double log_ratio = std::log(ratio);

  // Every kernel term of the cached plan feeds the reservoir, but each
  // distinct cluster gets one residual per job: a layer list that uses a
  // cluster many times must not out-vote single-use clusters.
  struct Feed : PlanVisitor {
    RefitReservoir* reservoir;
    const std::string* gpu;
    double ratio;
    std::set<int> clusters;
    void Term(const PlanTerm& term) {
      if (term.cluster_id < 0) return;  // layer-wise fallback: no cluster
      clusters.insert(term.cluster_id);
      reservoir->Add(*gpu, term.cluster_id, term.x, term.us * ratio);
    }
  };
  Feed feed{{}, &reservoir_, &gpu, ratio, {}};
  gpuexec::GpuSpec spec;
  spec.name = gpu;
  snapshot->PlanFor(network, spec)->Walk(batch, feed);
  for (int cluster_id : feed.clusters) {
    monitor_.Observe(gpu, cluster_id, log_ratio);
  }

  shadow_.push_back({&network, gpu, batch, observed_us});
  while (shadow_.size() > static_cast<std::size_t>(options_.shadow_window)) {
    shadow_.pop_front();
  }

  if (state_ == LifecycleState::kCanary && AffectsGpu(gpu)) {
    watch_abs_sum_ += std::abs(log_ratio);
    ++watch_count_;
  }
}

bool LifecycleController::AffectsGpu(const std::string& gpu) const {
  for (const DriftKey& key : refit_keys_) {
    if (key.gpu == gpu) return true;
  }
  return false;
}

double LifecycleController::ShadowScore(const KwModel& model,
                                        std::size_t* scored) const {
  double sum = 0;
  std::size_t count = 0;
  for (const ShadowSample& sample : shadow_) {
    if (!AffectsGpu(sample.gpu)) continue;
    gpuexec::GpuSpec spec;
    spec.name = sample.gpu;
    const double predicted =
        model.PredictUs(*sample.network, spec, sample.batch);
    const double r = std::log(sample.observed_us / predicted);
    if (!std::isfinite(r)) continue;
    sum += std::abs(r);
    ++count;
  }
  if (scored != nullptr) *scored = count;
  return count == 0 ? std::numeric_limits<double>::infinity() : sum / count;
}

void LifecycleController::Transition(LifecycleState to) {
  LogInfo("lifecycle transition",
          {{"from", LifecycleStateName(state_)}, {"to", LifecycleStateName(to)}});
  ++counters_.transitions;
  LifecycleMetrics::Get().transitions.Increment();
  state_ = to;
}

LifecycleState LifecycleController::Step() {
  LifecycleMetrics& metrics = LifecycleMetrics::Get();
  switch (state_) {
    case LifecycleState::kHealthy: {
      if (!monitor_.Tripped().empty()) Transition(LifecycleState::kDrifting);
      break;
    }
    case LifecycleState::kDrifting: {
      const std::vector<DriftKey> tripped = monitor_.Tripped();
      if (tripped.empty()) {
        Transition(LifecycleState::kHealthy);
        break;
      }
      const std::string candidate =
          options_.work_dir + "/candidate-" + std::to_string(candidate_seq_);
      StatusOr<RefitResult> result = RefitTrippedClusters(
          serving_dir_, tripped, reservoir_, options_.refit, candidate);
      if (!result.ok()) break;  // not enough samples yet; keep collecting
      ++candidate_seq_;
      candidate_dir_ = result->candidate_dir;
      refit_keys_ = result->refit;
      ++counters_.refits;
      metrics.refits.Increment();
      Transition(LifecycleState::kShadow);
      break;
    }
    case LifecycleState::kShadow: {
      StatusOr<KwModel> candidate = ModelIo::LoadKw(candidate_dir_);
      if (!candidate.ok()) {
        ++counters_.shadow_rejections;
        metrics.shadow_rejections.Increment();
        LogWarn("shadow rejected: candidate unreadable",
                {{"dir", candidate_dir_},
                 {"error", candidate.status().message()}});
        Transition(LifecycleState::kDrifting);
        break;
      }
      std::size_t scored = 0;
      const double candidate_score = ShadowScore(*candidate, &scored);
      if (scored <
          static_cast<std::size_t>(options_.min_shadow_observations)) {
        break;  // keep shadowing until enough affected-GPU jobs exist
      }
      const std::shared_ptr<const KwModel> champion = registry_->Snapshot();
      const double champion_score =
          champion == nullptr ? std::numeric_limits<double>::infinity()
                              : ShadowScore(*champion, nullptr);
      if (candidate_score > champion_score * options_.shadow_margin) {
        ++counters_.shadow_rejections;
        metrics.shadow_rejections.Increment();
        LogWarn("shadow rejected: candidate scores worse than champion",
                {{"candidate", Format("%.4f", candidate_score)},
                 {"champion", Format("%.4f", champion_score)}});
        Transition(LifecycleState::kDrifting);
        break;
      }
      const Status promoted = registry_->TryPromote(candidate_dir_, canary_);
      if (!promoted.ok()) {
        ++counters_.canary_rejections;
        metrics.canary_rejections.Increment();
        LogWarn("canary rejected",
                {{"dir", candidate_dir_}, {"error", promoted.message()}});
        Transition(LifecycleState::kDrifting);
        break;
      }
      previous_serving_dir_ = serving_dir_;
      serving_dir_ = candidate_dir_;
      ++counters_.promotions;
      metrics.promotions.Increment();
      // Judge the new generation on fresh residuals only.
      for (const DriftKey& key : refit_keys_) {
        monitor_.Reset(key.gpu, key.cluster_id);
        reservoir_.Reset(key.gpu, key.cluster_id);
      }
      watch_abs_sum_ = 0;
      watch_count_ = 0;
      LogInfo("candidate promoted",
              {{"dir", candidate_dir_},
               {"shadow_score", Format("%.4f", candidate_score)}});
      Transition(LifecycleState::kCanary);
      break;
    }
    case LifecycleState::kCanary: {
      if (watch_count_ < static_cast<std::size_t>(options_.watch_window)) {
        break;  // keep watching
      }
      const double mean = watch_abs_sum_ / static_cast<double>(watch_count_);
      if (mean <= options_.rollback_threshold) {
        LogInfo("promotion confirmed",
                {{"dir", serving_dir_},
                 {"watch_mean_abs_log_ratio", Format("%.4f", mean)}});
        Transition(LifecycleState::kPromoted);
        break;
      }
      const Status rolled = registry_->Rollback();
      if (rolled.ok()) {
        serving_dir_ = previous_serving_dir_;
        ++counters_.rollbacks;
        metrics.rollbacks.Increment();
      }
      LogWarn("promotion rolled back: post-promotion residuals regressed",
              {{"watch_mean_abs_log_ratio", Format("%.4f", mean)},
               {"threshold", Format("%.4f", options_.rollback_threshold)},
               {"rollback", rolled.ok() ? "ok" : rolled.message()}});
      Transition(LifecycleState::kRolledBack);
      break;
    }
    case LifecycleState::kPromoted:
    case LifecycleState::kRolledBack: {
      // Both verdicts return to monitoring; a rolled-back generation's
      // drift persists, so its pairs will re-trip on fresh residuals.
      Transition(LifecycleState::kHealthy);
      break;
    }
  }
  return state_;
}

}  // namespace gpuperf::models
