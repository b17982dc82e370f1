// google-benchmark microbenchmarks of the simulation subsystem: the case
// studies' value rests on whole design sweeps costing milliseconds, so
// the event engine and system models must be fast.

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "simsys/data_parallel.h"
#include "simsys/disagg.h"
#include "simsys/event_queue.h"
#include "simsys/pipeline_parallel.h"
#include "simsys/serving.h"

using namespace gpuperf;

namespace {

void BM_EventQueueThroughput(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simsys::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < events; ++i) {
      queue.Schedule(static_cast<double>((i * 7919) % events),
                     [&fired] { ++fired; });
    }
    queue.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

void BM_DisaggSweep(benchmark::State& state) {
  // One full Figure 17 row: a 200-layer network across 6 bandwidths.
  std::vector<double> compute(200, 50.0);
  std::vector<std::int64_t> weights(200, 2'000'000);
  for (auto _ : state) {
    double total = 0;
    for (double bw : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0}) {
      simsys::DisaggConfig config;
      config.link_bandwidth_gbps = bw;
      total += simsys::SimulateDisaggregated(compute, weights, config)
                   .total_time_us;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_DisaggSweep)->Unit(benchmark::kMicrosecond);

void BM_DataParallelStep(benchmark::State& state) {
  std::vector<double> fwd(300, 30.0), bwd(300, 60.0);
  std::vector<std::int64_t> grads(300, 1'500'000);
  simsys::DataParallelConfig config;
  config.num_gpus = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulateDataParallelStep(fwd, bwd, grads, config));
  }
}
BENCHMARK(BM_DataParallelStep)->Unit(benchmark::kMicrosecond);

void BM_PipelinePartitionAndStep(benchmark::State& state) {
  std::vector<double> fwd(400, 20.0), bwd(400, 40.0);
  std::vector<std::int64_t> acts(400, 4'000'000);
  simsys::PipelineConfig config;
  config.num_stages = 8;
  config.micro_batches = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulatePipeline(fwd, bwd, acts, config));
  }
}
BENCHMARK(BM_PipelinePartitionAndStep)->Unit(benchmark::kMillisecond);

void BM_ServingSimulation(benchmark::State& state) {
  std::vector<std::vector<double>> times{{1000, 4000}, {5000, 1200}};
  std::vector<double> mix{1, 1};
  simsys::ServingConfig config;
  config.arrival_rate_per_s = 200;
  config.duration_s = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulateServing(times, times, mix, config).value());
  }
}
BENCHMARK(BM_ServingSimulation)->Unit(benchmark::kMillisecond);

void BM_ServingSimulationFaulty(benchmark::State& state) {
  // Same pool under fault injection: measures the overhead of the fault
  // plan queries plus retry re-dispatch on the event path.
  std::vector<std::vector<double>> times{{1000, 4000}, {5000, 1200}};
  std::vector<double> mix{1, 1};
  simsys::ServingConfig config;
  config.arrival_rate_per_s = 200;
  config.duration_s = 10;
  config.faults.mtbf_s = 2;
  config.faults.mttr_s = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulateServing(times, times, mix, config).value());
  }
}
BENCHMARK(BM_ServingSimulationFaulty)->Unit(benchmark::kMillisecond);

void BM_ServingAdaptiveDetect(benchmark::State& state) {
  // The chaos serving config: 8 GPUs (4 types x 2) under outages (MTBF
  // 5 s, MTTR 2 s), gray slowdowns, hedging, a retry budget, breakers and
  // adaptive failure detection at the 0.99 service-time quantile, which
  // is queried on every retry. Run at a simulated duration D and 4D:
  // scripts/perf_gate.sh fails when the cost per arrival at 4D exceeds
  // 1.5x the cost at D, i.e. when the serving core stops being linear
  // in run length. Both rows come from one binary on one host, so the
  // ratio needs no machine-specific baseline.
  const std::vector<double> type_speed{1.0, 1.6, 2.2, 1.3};
  std::vector<std::vector<double>> truth, predicted;
  for (double job_us : {2'000.0, 5'000.0, 9'000.0, 14'000.0}) {
    truth.emplace_back();
    predicted.emplace_back();
    for (int g = 0; g < 8; ++g) {
      truth.back().push_back(job_us * type_speed[g % 4]);
      predicted.back().push_back(job_us * type_speed[g % 4] * 1.05);
    }
  }
  const std::vector<double> mix(truth.size(), 1.0);
  simsys::ServingConfig config;
  config.policy = simsys::DispatchPolicy::kPredictedLeastLoad;
  config.arrival_rate_per_s = 200;
  config.duration_s = static_cast<double>(state.range(0));
  config.faults.mtbf_s = 5;
  config.faults.mttr_s = 2;
  config.adaptive_detect_quantile = 0.99;
  config.hedge_trigger_factor = 1.5;
  config.retry_budget = 0.5;
  config.breaker.failure_threshold = 3;
  config.breaker.cooldown_ms = 1000;
  config.chaos.gray_mtbf_s = 60;
  config.chaos.gray_mttr_s = 3;
  config.chaos.gray_factor = 2;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    const simsys::ServingResult result =
        simsys::SimulateServing(truth, predicted, mix, config).value();
    arrivals = result.completed + result.dropped + result.shed_on_admission;
    benchmark::DoNotOptimize(result.p99_ms);
  }
  state.SetItemsProcessed(state.iterations() * arrivals);
}
BENCHMARK(BM_ServingAdaptiveDetect)
    ->Arg(150)
    ->Arg(600)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
