// The incremental-refit path and the self-healing lifecycle controller:
// reservoir ring semantics, patching only tripped clusters of a saved
// bundle, and the full heal loop (drift -> refit -> shadow -> canary ->
// promote) driven by synthetic residual streams — including the
// acceptance-criterion case where a deliberately-corrupt candidate is
// rejected at the canary gate WITHOUT rolling back the good generation.

#include "models/refit.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "gpuexec/gpu_spec.h"
#include "models/bundle_registry.h"
#include "models/kw_model.h"
#include "models/model_io.h"
#include "models/prediction_plan.h"
#include "test_support.h"
#include "zoo/zoo.h"

namespace gpuperf::models {
namespace {

using gpuperf::testing::GoldenKwBundleDir;
using gpuperf::testing::SmallCampaign;

// The batch the golden campaign profiles at: serving at the training
// batch keeps the model's baseline residuals far below the drift
// signal, so only injected drift trips the monitor.
constexpr std::int64_t kBatch = 512;
constexpr char kDriftGpu[] = "A40";
constexpr char kQuietGpu[] = "TITAN RTX";

std::string ScratchDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       Format("gpuperf_refit_%s_%d", tag.c_str(), static_cast<int>(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CanaryOptions Probes() {
  CanaryOptions options;
  options.probe_networks = {zoo::BuildByName("resnet18"),
                            zoo::BuildByName("mobilenet_v2")};
  options.batch = 16;
  options.tolerance = 0.5;
  return options;
}

/**
 * The kernel terms of `model`'s cached plan for (`network`, `gpu`) at
 * kBatch: what LifecycleController::Observe feeds the reservoir
 * (layer-wise fallback terms carry no cluster and are skipped).
 */
std::vector<PlanTerm> KernelTerms(const KwModel& model,
                                  const dnn::Network& network,
                                  const char* gpu) {
  struct Collect : PlanVisitor {
    std::vector<PlanTerm> terms;
    void Term(const PlanTerm& term) {
      if (term.cluster_id >= 0) terms.push_back(term);
    }
  } collect;
  model.PlanFor(network, gpuexec::GpuByName(gpu))->Walk(kBatch, collect);
  return collect.terms;
}

/** A few campaign networks fully covered on both test GPUs. */
std::vector<const dnn::Network*> CoveredNetworks(const KwModel& model,
                                                 std::size_t want) {
  std::vector<const dnn::Network*> covered;
  for (const dnn::Network& network : SmallCampaign::Get().networks()) {
    if (model.CoverageFor(network, kDriftGpu).Full() &&
        model.CoverageFor(network, kQuietGpu).Full()) {
      covered.push_back(&network);
      if (covered.size() == want) break;
    }
  }
  return covered;
}

TEST(RefitReservoirTest, KeepsTheMostRecentSamplesOldestFirst) {
  RefitReservoir reservoir(3);
  for (int i = 1; i <= 5; ++i) {
    reservoir.Add("A40", 100001, /*x=*/i, /*y=*/10.0 * i);
  }
  EXPECT_EQ(reservoir.Size("A40", 100001), 3u);
  std::vector<double> x, y;
  EXPECT_EQ(reservoir.Collect("A40", 100001, &x, &y), 3u);
  EXPECT_EQ(x, (std::vector<double>{3, 4, 5}));
  EXPECT_EQ(y, (std::vector<double>{30, 40, 50}));
}

TEST(RefitReservoirTest, PairsAreIndependentAndResettable) {
  RefitReservoir reservoir(8);
  reservoir.Add("A40", 100001, 1, 2);
  reservoir.Add("A40", 100002, 3, 4);
  reservoir.Add("V100", 100001, 5, 6);
  EXPECT_EQ(reservoir.Size("A40", 100001), 1u);
  EXPECT_EQ(reservoir.Size("A40", 100002), 1u);
  EXPECT_EQ(reservoir.Size("V100", 100001), 1u);
  reservoir.Reset("A40", 100001);
  EXPECT_EQ(reservoir.Size("A40", 100001), 0u);
  EXPECT_EQ(reservoir.Size("A40", 100002), 1u);
  std::vector<double> x, y;
  EXPECT_EQ(reservoir.Collect("A40", 100001, &x, &y), 0u);
  EXPECT_TRUE(x.empty());
}

TEST(RefitReservoirTest, NonFiniteSamplesAreDropped) {
  RefitReservoir reservoir(8);
  reservoir.Add("A40", 100001, std::nan(""), 1.0);
  reservoir.Add("A40", 100001, 1.0, std::numeric_limits<double>::infinity());
  EXPECT_EQ(reservoir.Size("A40", 100001), 0u);
}

TEST(RefitTest, EmptyTrippedListIsInvalid) {
  RefitReservoir reservoir(8);
  StatusOr<RefitResult> result = RefitTrippedClusters(
      GoldenKwBundleDir(), {}, reservoir, RefitOptions(), ScratchDir("inv"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RefitTest, UnavailableUntilEnoughSamples) {
  RefitReservoir reservoir(8);
  reservoir.Add(kDriftGpu, 100001, 1.0, 2.0);  // one sample, need 8
  StatusOr<RefitResult> result = RefitTrippedClusters(
      GoldenKwBundleDir(), {{kDriftGpu, 100001}}, reservoir, RefitOptions(),
      ScratchDir("few"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(RefitTest, PatchesOnlyTheTrippedClusterAndGpu) {
  StatusOr<KwModel> golden = ModelIo::LoadKw(GoldenKwBundleDir());
  ASSERT_TRUE(golden.ok());
  const std::vector<const dnn::Network*> networks =
      CoveredNetworks(*golden, 4);
  ASSERT_GE(networks.size(), 2u);

  // Gather real kernel terms and pick the cluster with the most
  // distinct x values (it produces the best-conditioned refit).
  std::map<int, std::vector<PlanTerm>> by_cluster;
  for (const dnn::Network* network : networks) {
    for (const PlanTerm& term : KernelTerms(*golden, *network, kDriftGpu)) {
      by_cluster[term.cluster_id].push_back(term);
    }
  }
  int target = -1;
  std::size_t best = 0;
  for (const auto& [cluster_id, terms] : by_cluster) {
    std::set<double> xs;
    for (const PlanTerm& term : terms) xs.insert(term.x);
    if (xs.size() > best) {
      best = xs.size();
      target = cluster_id;
    }
  }
  ASSERT_NE(target, -1);
  ASSERT_GE(by_cluster[target].size(), 8u) << "need a well-used cluster";

  // The drifted truth: every sample of the target cluster runs 1.25x.
  RefitReservoir reservoir(256);
  for (const PlanTerm& term : by_cluster[target]) {
    reservoir.Add(kDriftGpu, target, term.x, term.us * 1.25);
  }

  const std::string candidate_dir = ScratchDir("patch");
  StatusOr<RefitResult> result = RefitTrippedClusters(
      GoldenKwBundleDir(), {{kDriftGpu, target}}, reservoir, RefitOptions(),
      candidate_dir);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result->refit.size(), 1u);
  EXPECT_EQ(result->refit[0], (DriftKey{kDriftGpu, target}));

  // The candidate reloads cleanly and only the tripped (GPU, cluster)
  // changed: target-cluster terms moved, sibling clusters and the quiet
  // GPU are bit-identical.
  StatusOr<KwModel> patched = ModelIo::LoadKw(candidate_dir);
  ASSERT_TRUE(patched.ok()) << patched.status().message();
  bool target_changed = false;
  for (const dnn::Network* network : networks) {
    const std::vector<PlanTerm> before =
        KernelTerms(*golden, *network, kDriftGpu);
    const std::vector<PlanTerm> after =
        KernelTerms(*patched, *network, kDriftGpu);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (before[i].cluster_id == target) {
        if (after[i].us != before[i].us) target_changed = true;
        // The refit tracked the 1.25x drift (clamping can keep it from
        // being exact, but it must move decisively toward the truth).
        EXPECT_GT(after[i].us, before[i].us * 1.05);
        EXPECT_LT(after[i].us, before[i].us * 1.5);
      } else {
        EXPECT_EQ(after[i].us, before[i].us) << "untripped cluster moved";
      }
    }
    const std::vector<PlanTerm> quiet_before =
        KernelTerms(*golden, *network, kQuietGpu);
    const std::vector<PlanTerm> quiet_after =
        KernelTerms(*patched, *network, kQuietGpu);
    ASSERT_EQ(quiet_before.size(), quiet_after.size());
    for (std::size_t i = 0; i < quiet_before.size(); ++i) {
      EXPECT_EQ(quiet_after[i].us, quiet_before[i].us) << "quiet GPU moved";
    }
  }
  EXPECT_TRUE(target_changed);
  std::filesystem::remove_all(candidate_dir);
}

// ---------------------------------------------------------------------------
// Lifecycle controller: a synthetic serving loop. Truth is the golden
// model's own predictions times a drift factor on one GPU — so residuals
// are exactly the drift, with no simulator noise in the way.

struct LoopState {
  BundleRegistry registry;
  std::unique_ptr<LifecycleController> controller;
  std::vector<const dnn::Network*> networks;
  std::map<std::string, std::map<std::string, double>> truth;  // net -> gpu
  std::string work_dir;
};

void SeedLoop(LoopState* state, const std::string& tag,
              double drift_factor) {
  ASSERT_TRUE(state->registry.TryPromote(GoldenKwBundleDir(), Probes()).ok());
  std::shared_ptr<const KwModel> golden = state->registry.Snapshot();
  state->networks = CoveredNetworks(*golden, 3);
  ASSERT_GE(state->networks.size(), 2u);

  for (const dnn::Network* network : state->networks) {
    for (const char* gpu : {kDriftGpu, kQuietGpu}) {
      const double nominal =
          golden->PredictUs(*network, gpuexec::GpuByName(gpu), kBatch);
      const double factor =
          std::string(gpu) == kDriftGpu ? drift_factor : 1.0;
      state->truth[network->name()][gpu] = nominal * factor;
    }
  }

  state->work_dir = ScratchDir(tag);
  LifecycleOptions options;
  options.work_dir = state->work_dir;
  options.min_shadow_observations = 6;
  options.watch_window = 6;
  state->controller = std::make_unique<LifecycleController>(
      &state->registry, GoldenKwBundleDir(), Probes(), options);
}

/** One epoch: every (network, GPU) completes one job, then one Step(). */
LifecycleState RunEpoch(LoopState* state) {
  std::shared_ptr<const KwModel> snapshot = state->registry.Snapshot();
  for (const dnn::Network* network : state->networks) {
    for (const char* gpu : {kDriftGpu, kQuietGpu}) {
      const double predicted =
          snapshot->PredictUs(*network, gpuexec::GpuByName(gpu), kBatch);
      state->controller->Observe(*network, gpu, kBatch, predicted,
                                 state->truth[network->name()][gpu]);
    }
  }
  return state->controller->Step();
}

TEST(LifecycleControllerTest, HealsAStepDriftEndToEnd) {
  LoopState state;
  SeedLoop(&state, "heal", /*drift_factor=*/1.12);
  std::shared_ptr<const KwModel> original = state.registry.Snapshot();

  std::set<LifecycleState> visited;
  for (int epoch = 0; epoch < 40; ++epoch) {
    visited.insert(RunEpoch(&state));
    // Trip specificity: the quiet GPU's pairs never trip.
    for (const DriftKey& key : state.controller->monitor().Tripped()) {
      EXPECT_EQ(key.gpu, kDriftGpu) << "quiet GPU tripped";
    }
    if (visited.count(LifecycleState::kPromoted) > 0) break;
  }

  // The loop walked the whole happy path and landed a new generation.
  EXPECT_TRUE(visited.count(LifecycleState::kDrifting));
  EXPECT_TRUE(visited.count(LifecycleState::kShadow) ||
              visited.count(LifecycleState::kCanary));
  ASSERT_TRUE(visited.count(LifecycleState::kPromoted))
      << "lifecycle never promoted a healed candidate";
  const LifecycleCounters& counters = state.controller->counters();
  EXPECT_GE(counters.refits, 1u);
  EXPECT_GE(counters.promotions, 1u);
  EXPECT_EQ(counters.rollbacks, 0u);
  EXPECT_NE(state.registry.Snapshot(), original);
  EXPECT_NE(state.controller->serving_dir(), GoldenKwBundleDir());

  // The healed generation predicts the drifted truth: post-promotion
  // residuals on the drifted GPU collapse well below the trip threshold.
  std::shared_ptr<const KwModel> healed = state.registry.Snapshot();
  double abs_sum = 0;
  for (const dnn::Network* network : state.networks) {
    const double predicted =
        healed->PredictUs(*network, gpuexec::GpuByName(kDriftGpu), kBatch);
    abs_sum += std::abs(
        std::log(state.truth[network->name()][kDriftGpu] / predicted));
  }
  const double mean_abs = abs_sum / state.networks.size();
  EXPECT_LT(mean_abs, 0.05) << "healed residual did not shrink";
  // And the quiet GPU's predictions are untouched, bit for bit.
  for (const dnn::Network* network : state.networks) {
    EXPECT_EQ(
        healed->PredictUs(*network, gpuexec::GpuByName(kQuietGpu), kBatch),
        original->PredictUs(*network, gpuexec::GpuByName(kQuietGpu), kBatch));
  }
  std::filesystem::remove_all(state.work_dir);
}

TEST(LifecycleControllerTest, IsDeterministicAcrossIdenticalRuns) {
  LoopState a, b;
  SeedLoop(&a, "det_a", 1.12);
  SeedLoop(&b, "det_b", 1.12);
  for (int epoch = 0; epoch < 25; ++epoch) {
    EXPECT_EQ(RunEpoch(&a), RunEpoch(&b)) << "state diverged at " << epoch;
  }
  EXPECT_EQ(a.controller->counters().transitions,
            b.controller->counters().transitions);
  EXPECT_EQ(a.controller->counters().promotions,
            b.controller->counters().promotions);
  const dnn::Network& probe = *a.networks[0];
  EXPECT_EQ(a.registry.Snapshot()->PredictUs(
                probe, gpuexec::GpuByName(kDriftGpu), kBatch),
            b.registry.Snapshot()->PredictUs(
                probe, gpuexec::GpuByName(kDriftGpu), kBatch));
  std::filesystem::remove_all(a.work_dir);
  std::filesystem::remove_all(b.work_dir);
}

TEST(LifecycleControllerTest, CorruptCandidateRejectedAtCanaryWithoutRollback) {
  // Phase 1: heal a real 12% drift so a good generation (gen 2) serves.
  LoopState state;
  SeedLoop(&state, "reject", 1.12);
  std::set<LifecycleState> visited;
  for (int epoch = 0; epoch < 40; ++epoch) {
    visited.insert(RunEpoch(&state));
    if (visited.count(LifecycleState::kPromoted) > 0) break;
  }
  ASSERT_TRUE(visited.count(LifecycleState::kPromoted));
  while (state.controller->state() != LifecycleState::kHealthy) {
    RunEpoch(&state);
  }
  std::shared_ptr<const KwModel> good = state.registry.Snapshot();
  const std::string good_dir = state.controller->serving_dir();
  const std::uint64_t rollbacks_before = state.registry.counters().rollbacks;

  // Phase 2: the truth goes insane — 20x on the drifted GPU. The refit
  // faithfully fits a 20x candidate; shadow scoring (which compares
  // against the same corrupt stream) lets it through, and the canary
  // gate must be the one to stop it: a candidate drifting 20x from the
  // serving generation fails the probe tolerance.
  for (const dnn::Network* network : state.networks) {
    state.truth[network->name()][kDriftGpu] =
        good->PredictUs(*network, gpuexec::GpuByName(kDriftGpu), kBatch) *
        20.0;
  }
  for (int epoch = 0; epoch < 60; ++epoch) {
    RunEpoch(&state);
    if (state.controller->counters().canary_rejections > 0) break;
  }
  const LifecycleCounters& counters = state.controller->counters();
  ASSERT_GE(counters.canary_rejections, 1u)
      << "canary never saw the corrupt candidate";
  // The good generation kept serving: same object, no rollback burned.
  EXPECT_EQ(state.registry.Snapshot(), good);
  EXPECT_EQ(state.controller->serving_dir(), good_dir);
  EXPECT_EQ(counters.rollbacks, 0u);
  EXPECT_EQ(state.registry.counters().rollbacks, rollbacks_before);
  EXPECT_GE(state.registry.counters().rejections, 1u);
  std::filesystem::remove_all(state.work_dir);
}

}  // namespace
}  // namespace gpuperf::models
