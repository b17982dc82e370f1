#include "models/predictor_stack.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "gpuexec/gpu_spec.h"
#include "obs/metrics_registry.h"
#include "test_support.h"

namespace gpuperf::models {
namespace {

using ::gpuperf::testing::SmallCampaign;

/**
 * What the process-wide tier counters gained since construction, so a
 * test asserts on its own queries only.
 */
class TierCounterDeltas {
 public:
  TierCounterDeltas() {
    for (const char* name : {"kw_hits", "lw_fallbacks", "e2e_fallbacks",
                             "unanswered"}) {
      start_[name] = Read(name);
    }
  }

  /** The delta of the counter `gpuperf_predictor_<name>`. */
  std::uint64_t operator[](const std::string& name) const {
    return Read(name) - start_.at(name);
  }

 private:
  static constexpr char kPrefix[] = "gpuperf_predictor_";

  static std::uint64_t Read(const std::string& name) {
    return obs::MetricsRegistry::Global().counter(kPrefix + name).Value();
  }

  std::map<std::string, std::uint64_t> start_;
};

/** Installs every tier, trained on the small campaign. */
void InstallAllTiers(PredictorStack& stack) {
  const SmallCampaign& campaign = SmallCampaign::Get();
  KwModel kw;
  kw.Train(campaign.data(), campaign.split());
  stack.SetKw(std::move(kw));
  LwModel lw;
  lw.Train(campaign.data(), campaign.split());
  stack.SetLw(std::move(lw));
  E2eModel e2e;
  e2e.Train(campaign.data(), campaign.split());
  stack.SetE2e(std::move(e2e));
}

const dnn::Network& AnyNetwork() {
  return SmallCampaign::Get().networks().front();
}

TEST(PredictorTierNameTest, NamesAreStable) {
  EXPECT_STREQ(PredictorTierName(PredictorTier::kKw), "KW");
  EXPECT_STREQ(PredictorTierName(PredictorTier::kLw), "LW");
  EXPECT_STREQ(PredictorTierName(PredictorTier::kE2e), "E2E");
  EXPECT_STREQ(PredictorTierName(PredictorTier::kNone), "none");
}

TEST(PredictorStackTest, KwAnswersCoveredQueries) {
  PredictorStack stack;
  InstallAllTiers(stack);
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const TierCounterDeltas counters;
  PredictorTier tier = PredictorTier::kNone;
  StatusOr<double> prediction =
      stack.TryPredictUs(AnyNetwork(), a100, 16, &tier);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  EXPECT_EQ(tier, PredictorTier::kKw);
  EXPECT_GT(prediction.value(), 0.0);
  EXPECT_EQ(counters["kw_hits"], 1u);
  EXPECT_EQ(counters["lw_fallbacks"] + counters["e2e_fallbacks"], 0u);
}

TEST(PredictorStackTest, UntrainedKwFallsBackToLw) {
  // An installed-but-untrained KW tier (e.g. a bundle whose campaign
  // never ran) covers nothing; every query degrades to LW.
  const SmallCampaign& campaign = SmallCampaign::Get();
  PredictorStack stack;
  stack.SetKw(KwModel());
  LwModel lw;
  lw.Train(campaign.data(), campaign.split());
  stack.SetLw(std::move(lw));

  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const TierCounterDeltas counters;
  PredictorTier tier = PredictorTier::kNone;
  StatusOr<double> prediction =
      stack.TryPredictUs(AnyNetwork(), a100, 16, &tier);
  ASSERT_TRUE(prediction.ok());
  EXPECT_EQ(tier, PredictorTier::kLw);
  EXPECT_GT(prediction.value(), 0.0);
  EXPECT_EQ(counters["lw_fallbacks"], 1u);
  EXPECT_EQ(counters["kw_hits"], 0u);
}

TEST(PredictorStackTest, E2eIsTheLastAnsweringTier) {
  const SmallCampaign& campaign = SmallCampaign::Get();
  PredictorStack stack;
  E2eModel e2e;
  e2e.Train(campaign.data(), campaign.split());
  stack.SetE2e(std::move(e2e));

  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const TierCounterDeltas counters;
  PredictorTier tier = PredictorTier::kNone;
  StatusOr<double> prediction =
      stack.TryPredictUs(AnyNetwork(), a100, 16, &tier);
  ASSERT_TRUE(prediction.ok());
  EXPECT_EQ(tier, PredictorTier::kE2e);
  EXPECT_GT(prediction.value(), 0.0);
  EXPECT_EQ(counters["e2e_fallbacks"], 1u);
}

TEST(PredictorStackTest, EmptyStackIsFailedPrecondition) {
  PredictorStack stack;
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const TierCounterDeltas counters;
  PredictorTier tier = PredictorTier::kKw;
  StatusOr<double> prediction =
      stack.TryPredictUs(AnyNetwork(), a100, 16, &tier);
  ASSERT_FALSE(prediction.ok());
  EXPECT_EQ(prediction.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tier, PredictorTier::kNone);
  EXPECT_EQ(counters["unanswered"], 1u);
}

TEST(PredictorStackTest, UnknownGpuIsFailedPreconditionNotAbort) {
  // V100 exists in the spec table but the campaign never measured it, so
  // no tier covers it; the stack must report, not die.
  PredictorStack stack;
  InstallAllTiers(stack);
  const gpuexec::GpuSpec* v100 = gpuexec::FindGpu("V100");
  ASSERT_NE(v100, nullptr);
  const TierCounterDeltas counters;
  StatusOr<double> prediction = stack.TryPredictUs(AnyNetwork(), *v100, 16);
  ASSERT_FALSE(prediction.ok());
  EXPECT_EQ(prediction.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(prediction.status().message().find("V100"), std::string::npos);
  EXPECT_EQ(counters["unanswered"], 1u);
}

TEST(PredictorStackTest, PredictUsIsZeroWhenUncovered) {
  PredictorStack stack;
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  EXPECT_DOUBLE_EQ(stack.PredictUs(AnyNetwork(), a100, 16), 0.0);
}

TEST(PredictorStackTest, CountersAccumulateAcrossQueries) {
  PredictorStack stack;
  InstallAllTiers(stack);
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const gpuexec::GpuSpec* v100 = gpuexec::FindGpu("V100");
  ASSERT_NE(v100, nullptr);

  const TierCounterDeltas counters;
  (void)stack.TryPredictUs(AnyNetwork(), a100, 16);
  (void)stack.TryPredictUs(AnyNetwork(), a100, 32);
  (void)stack.TryPredictUs(AnyNetwork(), *v100, 16);

  EXPECT_EQ(counters["kw_hits"], 2u);
  EXPECT_EQ(counters["unanswered"], 1u);
  EXPECT_EQ(counters["kw_hits"] + counters["lw_fallbacks"] +
                counters["e2e_fallbacks"] + counters["unanswered"],
            3u);
}

TEST(PredictorStackTest, StackAgreesWithTheAnsweringTier) {
  const SmallCampaign& campaign = SmallCampaign::Get();
  KwModel kw;
  kw.Train(campaign.data(), campaign.split());
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const double direct = kw.PredictUs(AnyNetwork(), a100, 16);

  PredictorStack stack;
  stack.SetKw(std::move(kw));
  EXPECT_DOUBLE_EQ(stack.TryPredictUs(AnyNetwork(), a100, 16).value(),
                   direct);
}

}  // namespace
}  // namespace gpuperf::models
