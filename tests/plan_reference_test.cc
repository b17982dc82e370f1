// The compiled plan is the only KW/IGKW evaluator, so "PredictMany ==
// PredictUs" compares the plan with itself. This file checks it against
// a deliberately naive reference evaluator instead, built only from the
// models' public accessors: mapping-table kernel lists, per-GPU kernel
// models looked up by name (exact, then longest common prefix),
// calibration factors, a layer-wise model trained on the same data and
// split for fallback layers, and IGKW's scaling laws. The reference has
// no dense tables, no compiled plans and no caches; it re-derives every
// prediction from the training state, in the floating-point order the
// paper's sum implies (kernel terms, times the calibration, per layer).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "dataset/builder.h"
#include "dnn/builder.h"
#include "dnn/flops.h"
#include "gpuexec/gpu_spec.h"
#include "models/igkw_model.h"
#include "models/kw_model.h"
#include "models/lw_model.h"
#include "models/prediction_plan.h"
#include "zoo/zoo.h"

namespace gpuperf::models {
namespace {

constexpr std::int64_t kBatches[] = {1, 4, 16, 64};

/** Every image-classification and transformer network. */
const std::vector<dnn::Network>& FullZoo() {
  static const std::vector<dnn::Network>* const kZoo = [] {
    auto* zoo = new std::vector<dnn::Network>(zoo::ImageClassificationZoo());
    for (dnn::Network& network : zoo::TransformerZoo()) {
      zoo->push_back(std::move(network));
    }
    return zoo;
  }();
  return *kZoo;
}

/** The small zoo profiled on all seven GPUs; KW, LW and IGKW trained. */
struct Campaign {
  std::vector<dnn::Network> networks = zoo::SmallZoo(/*stride=*/16);
  std::vector<std::string> igkw_gpus = {"A100", "A40", "TITAN RTX"};
  dataset::Dataset data;
  dataset::NetworkSplit split;
  KwModel kw;
  LwModel lw;
  IgkwModel igkw;

  Campaign() {
    dataset::BuildOptions options;  // empty gpu_names = all seven GPUs
    data = dataset::BuildDataset(networks, options);
    split = dataset::SplitByNetwork(data, 0.15, 7);
    kw.Train(data, split);
    lw.Train(data, split);
    igkw.Train(data, split, igkw_gpus);
  }

  static const Campaign& Get() {
    static const Campaign* const kCampaign = new Campaign();
    return *kCampaign;
  }
};

::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits differ)";
}

// --- The reference evaluator. --------------------------------------------

std::size_t CommonPrefix(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

/** The cost-driver feature of `layer` at `batch` (Section 5.4, O5). */
double DriverX(const dnn::Layer& layer, gpuexec::CostDriver driver,
               std::int64_t batch) {
  switch (driver) {
    case gpuexec::CostDriver::kInput:
      return static_cast<double>(batch * layer.InputElements());
    case gpuexec::CostDriver::kOperation:
      return static_cast<double>(dnn::LayerFlops(layer, batch));
    case gpuexec::CostDriver::kOutput:
      return static_cast<double>(batch * layer.output.Elements());
  }
  return 0;
}

/**
 * KW on one trained GPU, at each of `batches`: the sum of the layer's
 * kernel regressions times the GPU's calibration factor. A layer the
 * mapping table does not know, or one of whose kernels has no model on
 * this GPU (not even a same-family kernel sharing half its name), takes
 * the layer-wise estimate instead.
 */
std::vector<double> ReferenceKwLayerUs(const KwModel& kw, const LwModel& lw,
                                       const dnn::Layer& layer,
                                       const std::string& gpu,
                                       std::span<const std::int64_t> batches) {
  std::vector<double> out(batches.size());
  auto layer_wise = [&] {
    for (std::size_t i = 0; i < batches.size(); ++i) {
      out[i] = lw.PredictLayerUs(layer, gpu, batches[i]);
    }
    return out;
  };
  const std::vector<std::string> names = kw.KernelsForLayer(layer);
  if (names.empty()) return layer_wise();
  const std::map<std::string, KernelModel>& kernels = kw.KernelModels(gpu);
  std::vector<const KernelModel*> models;
  for (const std::string& name : names) {
    const KernelModel* model = nullptr;
    auto exact = kernels.find(name);
    if (exact != kernels.end()) {
      model = &exact->second;
    } else {
      std::size_t best = 0;
      for (const auto& [candidate, candidate_model] : kernels) {
        if (CommonPrefix(candidate, name) > best) {
          best = CommonPrefix(candidate, name);
          model = &candidate_model;
        }
      }
      if (model == nullptr || best < name.size() / 2) return layer_wise();
    }
    models.push_back(model);
  }
  for (std::size_t i = 0; i < batches.size(); ++i) {
    double total = 0;
    for (const KernelModel* model : models) {
      total += std::max(0.0, model->fit.Predict(
                                 DriverX(layer, model->driver, batches[i])));
    }
    out[i] = total * kw.CalibrationFor(gpu);
  }
  return out;
}

std::vector<double> ReferenceKwUs(const Campaign& c,
                                  const dnn::Network& network,
                                  const std::string& gpu,
                                  std::span<const std::int64_t> batches) {
  std::vector<double> totals(batches.size(), 0.0);
  for (const dnn::Layer& layer : network.layers()) {
    const std::vector<double> layer_us =
        ReferenceKwLayerUs(c.kw, c.lw, layer, gpu, batches);
    for (std::size_t i = 0; i < batches.size(); ++i) totals[i] += layer_us[i];
  }
  return totals;
}

double ReferenceKwUs(const Campaign& c, const dnn::Network& network,
                     const std::string& gpu, std::int64_t batch) {
  return ReferenceKwUs(c, network, gpu, {&batch, 1})[0];
}

/**
 * IGKW on any GPU spec, at each of `batches`: the layer's kernel
 * scaling laws evaluated at the spec, times the training GPUs' mean
 * calibration. A layer with an unknown signature or a kernel without a
 * law takes the nearest-bandwidth training GPU's KW estimate, scaled by
 * the bandwidth ratio.
 */
std::vector<double> ReferenceIgkwUs(const Campaign& c,
                                    const dnn::Network& network,
                                    const gpuexec::GpuSpec& gpu,
                                    std::span<const std::int64_t> batches) {
  const KwModel& kw = c.igkw.kw_model();
  double mean_calibration = 0;
  for (const std::string& name : c.igkw_gpus) {
    mean_calibration += kw.CalibrationFor(name);
  }
  mean_calibration /= static_cast<double>(c.igkw_gpus.size());
  std::string nearest = c.igkw_gpus.front();
  for (const std::string& name : c.igkw_gpus) {
    if (std::fabs(gpuexec::GpuByName(name).bandwidth_gbps -
                  gpu.bandwidth_gbps) <
        std::fabs(gpuexec::GpuByName(nearest).bandwidth_gbps -
                  gpu.bandwidth_gbps)) {
      nearest = name;
    }
  }
  const double ratio =
      gpuexec::GpuByName(nearest).bandwidth_gbps / gpu.bandwidth_gbps;

  std::vector<double> totals(batches.size(), 0.0);
  for (const dnn::Layer& layer : network.layers()) {
    const std::vector<std::string> names = kw.KernelsForLayer(layer);
    std::vector<const InterGpuKernelModel*> laws;
    for (const std::string& name : names) {
      laws.push_back(c.igkw.KernelLaw(name));
    }
    if (names.empty() || std::count(laws.begin(), laws.end(), nullptr) > 0) {
      const std::vector<double> near_us =
          ReferenceKwLayerUs(kw, c.lw, layer, nearest, batches);
      for (std::size_t i = 0; i < batches.size(); ++i) {
        totals[i] += near_us[i] * ratio;
      }
      continue;
    }
    for (std::size_t i = 0; i < batches.size(); ++i) {
      double layer_us = 0;
      for (const InterGpuKernelModel* law : laws) {
        layer_us += std::max(0.0, c.igkw.KernelFitAt(*law, gpu).Predict(
                                      DriverX(layer, law->driver, batches[i])));
      }
      totals[i] += layer_us * mean_calibration;
    }
  }
  return totals;
}

/** The seven Table 1 GPUs plus a hypothetical one (IGKW only). */
std::vector<gpuexec::GpuSpec> IgkwTargets() {
  std::vector<gpuexec::GpuSpec> targets = gpuexec::AllGpus();
  gpuexec::GpuSpec hypothetical = gpuexec::GpuByName("A100");
  hypothetical.name = "HYPO-1";
  hypothetical.bandwidth_gbps *= 1.7;
  hypothetical.fp32_tflops *= 1.3;
  targets.push_back(hypothetical);
  return targets;
}

// --- Sweeps. --------------------------------------------------------------

TEST(PlanReferenceTest, KwMatchesReferenceOnTheFullZoo) {
  const Campaign& c = Campaign::Get();
  for (const dnn::Network& network : FullZoo()) {
    for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
      const std::vector<double> expected =
          ReferenceKwUs(c, network, gpu.name, kBatches);
      for (std::size_t i = 0; i < std::size(kBatches); ++i) {
        ASSERT_TRUE(BitEqual(c.kw.PredictUs(network, gpu, kBatches[i]),
                             expected[i]))
            << network.name() << " on " << gpu.name << " batch "
            << kBatches[i];
      }
    }
  }
}

TEST(PlanReferenceTest, IgkwMatchesReferenceOnTheFullZoo) {
  const Campaign& c = Campaign::Get();
  for (const dnn::Network& network : FullZoo()) {
    for (const gpuexec::GpuSpec& gpu : IgkwTargets()) {
      const std::vector<double> expected =
          ReferenceIgkwUs(c, network, gpu, kBatches);
      for (std::size_t i = 0; i < std::size(kBatches); ++i) {
        ASSERT_TRUE(BitEqual(c.igkw.PredictUs(network, gpu, kBatches[i]),
                             expected[i]))
            << network.name() << " on " << gpu.name << " batch "
            << kBatches[i];
      }
    }
  }
}

TEST(PlanReferenceTest, SeededRandomDrawsMatchReference) {
  const Campaign& c = Campaign::Get();
  const std::vector<dnn::Network>& zoo = FullZoo();
  const std::vector<gpuexec::GpuSpec> targets = IgkwTargets();
  const std::size_t real_gpus = gpuexec::AllGpus().size();
  Rng rng(0x9E7A'0013);
  for (int draw = 0; draw < 2000; ++draw) {
    const dnn::Network& network = zoo[rng.NextBelow(zoo.size())];
    const std::size_t g = rng.NextBelow(targets.size());
    const gpuexec::GpuSpec& gpu = targets[g];
    const std::int64_t batch =
        1 + static_cast<std::int64_t>(rng.NextBelow(4096));
    SCOPED_TRACE(network.name() + " on " + gpu.name + " batch " +
                 std::to_string(batch));
    if (g < real_gpus) {  // KW predicts trained GPUs only
      ASSERT_TRUE(BitEqual(c.kw.PredictUs(network, gpu, batch),
                           ReferenceKwUs(c, network, gpu.name, batch)));
      const dnn::Layer& layer = network.layers()[rng.NextBelow(
          network.layers().size())];
      ASSERT_TRUE(BitEqual(
          c.kw.PredictLayerUs(layer, gpu.name, batch),
          ReferenceKwLayerUs(c.kw, c.lw, layer, gpu.name, {&batch, 1})[0]));
    }
    ASSERT_TRUE(BitEqual(c.igkw.PredictUs(network, gpu, batch),
                         ReferenceIgkwUs(c, network, gpu, {&batch, 1})[0]));
  }
}

// --- Plan-cache identity. -------------------------------------------------

TEST(PlanReferenceTest, NameReuseWithADifferentConvWindowRecompiles) {
  // Same name, same tensor shapes, same element counts: only the conv
  // window differs (3x3 pad 1 vs 5x5 pad 2). The second network must
  // not be served the first one's signature ids or plan.
  dnn::NetworkBuilder small("reused-name", "Test", dnn::Chw(64, 28, 28));
  small.Conv(64, 3, 1, 1);
  const dnn::Network narrow = small.Build();
  dnn::NetworkBuilder large("reused-name", "Test", dnn::Chw(64, 28, 28));
  large.Conv(64, 5, 1, 2);
  const dnn::Network wide = large.Build();
  ASSERT_EQ(narrow.layers()[0].output, wide.layers()[0].output);
  EXPECT_NE(NetworkFingerprint(narrow), NetworkFingerprint(wide));

  const Campaign& c = Campaign::Get();
  const KwModel kw = c.kw;
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const double narrow_us = kw.PredictUs(narrow, a100, 8);
  const double wide_us = kw.PredictUs(wide, a100, 8);
  EXPECT_TRUE(BitEqual(narrow_us, ReferenceKwUs(c, narrow, "A100", 8)));
  EXPECT_TRUE(BitEqual(wide_us, ReferenceKwUs(c, wide, "A100", 8)));
  EXPECT_NE(narrow_us, wide_us);
  EXPECT_TRUE(
      BitEqual(kw.PredictUs(narrow, a100, 8), narrow_us));  // and back
}

// Cold entry points racing on one fresh model: every thread resolves
// signature ids and compiles plans through the same cache entries. Run
// under -DGPUPERF_SANITIZE=thread this must be data-race-free, and the
// answers must be bit-equal to a serial run on an identical model.
TEST(PlanReferenceTest, ColdEntryPointsRaceToSerialAnswers) {
  const Campaign& c = Campaign::Get();
  KwModel trained;
  trained.Train(c.data, c.split);
  const KwModel serial_model = trained;  // both copies start cold
  const KwModel& shared = trained;

  std::vector<PredictQuery> queries;
  for (std::size_t j = 0; j < 6 && j < c.networks.size(); ++j) {
    for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
      queries.push_back({&c.networks[j], &gpu, kBatches[j % 4]});
    }
  }

  struct Answers {
    std::vector<double> predict_us, plan_us, many_us;
    std::vector<int> mapped;
  };
  // Thread `t` starts its per-query walk at a different offset, so the
  // threads collide on different (network, GPU) entries first.
  auto run = [&](const KwModel& model, std::size_t t) {
    Answers a;
    a.predict_us.resize(queries.size());
    a.plan_us.resize(queries.size());
    a.mapped.resize(queries.size());
    for (std::size_t k = 0; k < queries.size(); ++k) {
      const std::size_t i = (k + t * 11) % queries.size();
      const PredictQuery& q = queries[i];
      switch ((k + t) % 3) {
        case 0:
          a.predict_us[i] = model.PredictUs(*q.network, *q.gpu, q.batch);
          a.mapped[i] = model.CoverageFor(*q.network, q.gpu->name).mapped;
          a.plan_us[i] = model.PlanFor(*q.network, *q.gpu)->EvalUs(q.batch);
          break;
        case 1:
          a.mapped[i] = model.CoverageFor(*q.network, q.gpu->name).mapped;
          a.plan_us[i] = model.PlanFor(*q.network, *q.gpu)->EvalUs(q.batch);
          a.predict_us[i] = model.PredictUs(*q.network, *q.gpu, q.batch);
          break;
        default:
          a.plan_us[i] = model.PlanFor(*q.network, *q.gpu)->EvalUs(q.batch);
          a.predict_us[i] = model.PredictUs(*q.network, *q.gpu, q.batch);
          a.mapped[i] = model.CoverageFor(*q.network, q.gpu->name).mapped;
          break;
      }
    }
    a.many_us.resize(queries.size());
    model.PredictMany(queries, a.many_us);
    return a;
  };

  const Answers serial = run(serial_model, 0);
  constexpr int kThreads = 4;
  std::vector<Answers> raced(kThreads);
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads,
                   [&](std::size_t t) { raced[t] = run(shared, t); });

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " query " +
                   std::to_string(i));
      EXPECT_TRUE(BitEqual(raced[t].predict_us[i], serial.predict_us[i]));
      EXPECT_TRUE(BitEqual(raced[t].plan_us[i], serial.plan_us[i]));
      EXPECT_TRUE(BitEqual(raced[t].many_us[i], serial.many_us[i]));
      EXPECT_EQ(raced[t].mapped[i], serial.mapped[i]);
    }
  }
}

}  // namespace
}  // namespace gpuperf::models
