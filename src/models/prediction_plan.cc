#include "models/prediction_plan.h"

#include <array>
#include <sstream>
#include <variant>

#include "obs/metrics_registry.h"

namespace gpuperf::models {
namespace {

/** Process-wide plan-cache counters, aggregated across every model. */
struct PlanMetrics {
  obs::Counter& compiles;
  obs::Counter& queries;
  obs::Counter& invalidations;

  static PlanMetrics& Get() {
    static PlanMetrics* const kMetrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new PlanMetrics{
          registry.counter("gpuperf_predictor_plan_compiles",
                           "Prediction plans compiled"),
          registry.counter("gpuperf_predictor_plan_queries",
                           "Batched plan evaluations"),
          registry.counter("gpuperf_predictor_plan_invalidations",
                           "Plans retired by refit or name reuse")};
    }();
    return *kMetrics;
  }
};

std::string SlotKeyString(const PlanCache::SlotKey& slot) {
  std::ostringstream out;
  if (slot.gpu_index >= 0) {
    out << "gpu#" << slot.gpu_index;
  } else {
    out << "spec(" << slot.feature_a << "," << slot.feature_b << ")";
  }
  return out.str();
}

constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/** One odd multiplier per field position of a layer word. */
constexpr std::array<std::uint64_t, 64> kFieldKeys = [] {
  std::array<std::uint64_t, 64> keys{};
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = SplitMix64(i) | 1;
  return keys;
}();

/**
 * A layer's fingerprint word: the sum of each field times its
 * position's key (multilinear hashing; positions past the table wrap).
 * The products are independent of each other, so a layer hashes in a
 * few cycles — the fingerprint runs on every PredictUs.
 */
class LayerWord {
 public:
  void Add(std::int64_t value) {
    word_ += static_cast<std::uint64_t>(value) *
             kFieldKeys[position_++ % kFieldKeys.size()];
  }
  void Add(const dnn::TensorShape& shape) {
    Add(shape.c);
    Add(shape.h);
    Add(shape.w);
  }
  std::uint64_t word() const { return word_; }

 private:
  std::size_t position_ = 0;
  std::uint64_t word_ = 0;
};

}  // namespace

std::uint64_t NetworkFingerprint(const dnn::Network& network) {
  std::uint64_t hash = network.layers().size();
  for (const dnn::Layer& layer : network.layers()) {
    LayerWord word;
    word.Add(static_cast<std::int64_t>(layer.kind));
    word.Add(layer.output);
    for (const dnn::TensorShape& input : layer.inputs) word.Add(input);
    // The parameters dnn::LayerSignature encodes, plus the ones only the
    // cost drivers read (conv channels, linear features).
    if (const auto* conv = std::get_if<dnn::ConvParams>(&layer.params)) {
      for (std::int64_t v :
           {conv->in_channels, conv->out_channels, conv->kernel_h,
            conv->kernel_w, conv->stride_h, conv->stride_w, conv->pad_h,
            conv->pad_w, conv->groups}) {
        word.Add(v);
      }
      word.Add(static_cast<std::int64_t>(conv->epilogue));
    } else if (const auto* pool = std::get_if<dnn::PoolParams>(&layer.params)) {
      for (std::int64_t v : {pool->kernel, pool->stride, pool->pad}) {
        word.Add(v);
      }
    } else if (const auto* mm = std::get_if<dnn::MatMulParams>(&layer.params)) {
      for (std::int64_t v : {mm->batch, mm->m, mm->n, mm->k}) word.Add(v);
    } else if (const auto* fc = std::get_if<dnn::LinearParams>(&layer.params)) {
      for (std::int64_t v : {fc->in_features, fc->out_features}) word.Add(v);
    }
    // An odd multiply is a bijection, so each step keeps distinct words
    // on distinct states; the final mix spreads the bits.
    hash = (hash ^ word.word()) * 0x9e3779b97f4a7c15ULL;
  }
  return SplitMix64(hash);
}

void PredictionPlan::BeginLayer(double scale_a, double scale_b,
                                std::string label) {
  layer_end_.push_back(static_cast<std::uint32_t>(value_.size()));
  scale_a_.push_back(scale_a);
  scale_b_.push_back(scale_b);
  label_.push_back(std::move(label));
}

void PredictionPlan::AddTerm(std::int64_t per_sample_value, double slope,
                             double intercept, int cluster_id) {
  GP_CHECK(!layer_end_.empty()) << "AddTerm before BeginLayer";
  value_.push_back(per_sample_value);
  slope_.push_back(slope);
  intercept_.push_back(intercept);
  cluster_.push_back(cluster_id);
  layer_end_.back() = static_cast<std::uint32_t>(value_.size());
}

double PredictionPlan::EvalUs(std::int64_t batch) const {
  PlanVisitor none;
  return Walk(batch, none);
}

PlanCache::PlanCache(const PlanCache& other) {
  SharedReaderLock lock(other.mu_);
  entries_ = other.entries_;
}

PlanCache& PlanCache::operator=(const PlanCache& other) {
  if (this == &other) return *this;
  std::unordered_map<std::string, Entry> copy;
  {
    SharedReaderLock lock(other.mu_);
    copy = other.entries_;
  }
  SharedMutexLock lock(mu_);
  entries_ = std::move(copy);
  retired_.clear();
  return *this;
}

const PlanCache::Entry* PlanCache::FindLocked(const std::string& name,
                                              std::uint64_t fingerprint) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.fingerprint != fingerprint) {
    return nullptr;
  }
  return &it->second;
}

const PredictionPlan* PlanCache::FindPlanLocked(const std::string& name,
                                                std::uint64_t fingerprint,
                                                const SlotKey& slot) const {
  const Entry* entry = FindLocked(name, fingerprint);
  if (entry == nullptr) return nullptr;
  for (const auto& [key, plan] : entry->slots) {
    if (key == slot) return plan.get();
  }
  return nullptr;
}

const std::vector<int>* PlanCache::InstallSidsLocked(
    const std::string& name, std::uint64_t fingerprint,
    std::vector<int> sids) const {
  Entry& entry = entries_[name];
  if (entry.sids != nullptr) {
    // A concurrent resolve won the race; keep the incumbent so pointers
    // handed out under the reader lock stay canonical.
    if (entry.fingerprint == fingerprint) return entry.sids.get();
    // The name now denotes a different architecture: retire the stale
    // ids and plans (raw pointers handed out earlier must stay valid).
    PlanMetrics::Get().invalidations.Increment(entry.slots.size());
    retired_.push_back(std::move(entry.sids));
    for (auto& [key, old] : entry.slots) {
      (void)key;
      retired_.push_back(std::move(old));
    }
    entry.slots.clear();
  }
  entry.fingerprint = fingerprint;
  entry.sids = std::make_shared<const std::vector<int>>(std::move(sids));
  return entry.sids.get();
}

const PredictionPlan* PlanCache::InsertLocked(
    const std::string& name, std::uint64_t fingerprint, const SlotKey& slot,
    std::shared_ptr<const PredictionPlan> plan) const {
  const PredictionPlan* installed = plan.get();
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.fingerprint != fingerprint) {
    // The name was reused concurrently since this plan's ids were
    // resolved: serve the plan uncached, parked so the pointer lives.
    retired_.push_back(std::move(plan));
  } else {
    // A concurrent compile may have installed this slot meanwhile; keep
    // the incumbent so earlier raw pointers remain canonical.
    for (const auto& [key, incumbent] : it->second.slots) {
      if (key == slot) return incumbent.get();
    }
    it->second.slots.emplace_back(slot, std::move(plan));
  }
  PlanMetrics::Get().compiles.Increment();
  // The field strings cost more than the rest of an insert; cold
  // PredictUs compiles a plan per (network, GPU), so build them only
  // when the line will be emitted.
  if (MinLogLevel() <= LogLevel::kDebug) {
    LogDebug("prediction plan compiled",
             {{"network", name},
              {"slot", SlotKeyString(slot)},
              {"layers", std::to_string(installed->layer_count())},
              {"terms", std::to_string(installed->term_count())}});
  }
  return installed;
}

void PlanCache::Clear() {
  SharedMutexLock lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& [name, entry] : entries_) {
    (void)name;
    dropped += entry.slots.size();
  }
  if (dropped > 0) PlanMetrics::Get().invalidations.Increment(dropped);
  entries_.clear();
  retired_.clear();
}

namespace internal {

void CountPlanQueries(std::uint64_t n) {
  PlanMetrics::Get().queries.Increment(n);
}

}  // namespace internal

}  // namespace gpuperf::models
