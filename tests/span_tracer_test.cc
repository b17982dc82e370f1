#include "obs/span_tracer.h"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "simsys/serving.h"

namespace gpuperf::obs {
namespace {

TEST(ChromeTraceWriterTest, EmitsGoldenJson) {
  ChromeTraceWriter writer;
  writer.SetProcessName(1, "sim");
  writer.SetThreadName(1, 2, "gpu 0");
  writer.AddComplete("job 0", "service", 1, 2, 10.0, 5.5,
                     "\"attempt\":0");
  writer.AddInstant("drop", "retry", 1, 0, 20.25);
  writer.AddMetadata("seed", "7");
  EXPECT_EQ(writer.event_count(), 4u);
  EXPECT_EQ(
      writer.Json(),
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"sim\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"gpu 0\"}},\n"
      "{\"name\":\"job 0\",\"cat\":\"service\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":2,\"ts\":10.000,\"dur\":5.500,\"args\":{\"attempt\":0}},\n"
      "{\"name\":\"drop\",\"cat\":\"retry\",\"ph\":\"i\",\"s\":\"t\","
      "\"pid\":1,\"tid\":0,\"ts\":20.250,\"args\":{}}\n"
      "],\"displayTimeUnit\":\"ms\",\"metadata\":{\"seed\":7}}\n");
}

TEST(ChromeTraceWriterTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(ChromeTraceWriter::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  ChromeTraceWriter writer;
  writer.AddComplete("conv \"1x1\"", "layer", 1, 1, 0.0, 1.0);
  EXPECT_NE(writer.Json().find("\"name\":\"conv \\\"1x1\\\"\""),
            std::string::npos);
}

TEST(ChromeTraceWriterTest, EscapesControlCharacters) {
  // Raw control bytes inside a JSON string are invalid — Perfetto and
  // chrome://tracing reject the whole file.
  EXPECT_EQ(ChromeTraceWriter::JsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(ChromeTraceWriter::JsonEscape(std::string("x\x01y\x1fz")),
            "x\\u0001y\\u001fz");
  ChromeTraceWriter writer;
  writer.AddComplete("conv\n3x3", "layer", 1, 1, 0.0, 1.0);
  const std::string json = writer.Json();
  EXPECT_NE(json.find("\"name\":\"conv\\n3x3\""), std::string::npos);
  EXPECT_EQ(json.find("conv\n3x3"), std::string::npos);
}

TEST(ChromeTraceWriterTest, EmptyWriterIsStillAValidDocument) {
  ChromeTraceWriter writer;
  EXPECT_EQ(writer.Json(),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTraceWriterTest, UnwritablePathIsAnError) {
  ChromeTraceWriter writer;
  const Status status = writer.WriteFile("/nonexistent-gpuperf-dir/t.json");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("cannot open trace file"),
            std::string::npos);
}

TEST(SpanTracerTest, AppendToEmitsNamesThenEventsInRecordingOrder) {
  SpanTracer tracer;
  tracer.SetTrackName(1, "gpu 0");
  tracer.SetTrackName(0, "dispatcher");
  tracer.Span(1, "job 0", "service", 10.0, 15.0, "\"attempt\":0");
  tracer.Instant(0, "shed", "admission", 20.0);
  EXPECT_EQ(tracer.size(), 2u);

  ChromeTraceWriter writer;
  tracer.AppendTo(&writer, 3, "cell 2");
  EXPECT_EQ(
      writer.Json(),
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
      "\"args\":{\"name\":\"cell 2\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,"
      "\"args\":{\"name\":\"dispatcher\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":1,"
      "\"args\":{\"name\":\"gpu 0\"}},\n"
      "{\"name\":\"job 0\",\"cat\":\"service\",\"ph\":\"X\",\"pid\":3,"
      "\"tid\":1,\"ts\":10.000,\"dur\":5.000,\"args\":{\"attempt\":0}},\n"
      "{\"name\":\"shed\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"t\","
      "\"pid\":3,\"tid\":0,\"ts\":20.000,\"args\":{}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");
}

// --- Serving-simulator integration: tracing must never perturb results,
// and the merged grid trace must be byte-identical across thread counts.

std::vector<std::vector<double>> AffinityTimes() {
  return {{1000, 8000}, {8000, 1000}};
}

simsys::ServingConfig StressConfig() {
  simsys::ServingConfig config;
  config.arrival_rate_per_s = 150;
  config.duration_s = 10;
  config.seed = 7;
  config.policy = simsys::DispatchPolicy::kLeastOutstanding;
  config.faults.mtbf_s = 2;     // faults → retries, drops
  config.faults.mttr_s = 1;
  config.faults.seed = 11;
  config.retry.max_retries = 1;
  config.queue_cap = 4;         // → admission sheds
  config.slo_ms = 50;           // → predicted-SLO sheds + misses
  config.breaker.failure_threshold = 2;  // → breaker opens
  return config;
}

TEST(SpanTracerTest, TracingDoesNotChangeSimulationResults) {
  const auto times = AffinityTimes();
  const std::vector<double> mix = {1.0, 1.0};
  const simsys::ServingConfig config = StressConfig();
  StatusOr<simsys::ServingResult> untraced =
      simsys::SimulateServing(times, times, mix, config);
  SpanTracer tracer;
  StatusOr<simsys::ServingResult> traced =
      simsys::SimulateServing(times, times, mix, config, &tracer);
  ASSERT_TRUE(untraced.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_FALSE(tracer.empty());
  EXPECT_EQ(traced->completed, untraced->completed);
  EXPECT_EQ(traced->dropped, untraced->dropped);
  EXPECT_EQ(traced->shed_on_admission, untraced->shed_on_admission);
  EXPECT_EQ(traced->retries, untraced->retries);
  EXPECT_EQ(traced->breaker_opens, untraced->breaker_opens);
  EXPECT_EQ(traced->p99_ms, untraced->p99_ms);
}

std::vector<simsys::ServingGridCell> StressCells() {
  return {{simsys::DispatchPolicy::kRoundRobin, 7},
          {simsys::DispatchPolicy::kLeastOutstanding, 7},
          {simsys::DispatchPolicy::kLeastOutstanding, 8},
          {simsys::DispatchPolicy::kPredictedLeastLoad, 7}};
}

TEST(SpanTracerTest, GridTraceIsByteIdenticalAcrossJobCounts) {
  const auto times = AffinityTimes();
  const std::vector<double> mix = {1.0, 1.0};
  const simsys::ServingConfig config = StressConfig();
  const std::vector<simsys::ServingGridCell> cells = StressCells();

  ChromeTraceWriter serial, parallel;
  const auto grid1 = simsys::SimulateServingGrid(times, times, mix, config,
                                                 cells, /*jobs=*/1, &serial);
  const auto grid4 = simsys::SimulateServingGrid(times, times, mix, config,
                                                 cells, /*jobs=*/4, &parallel);
  for (const auto& cell : grid1) ASSERT_TRUE(cell.ok());
  for (const auto& cell : grid4) ASSERT_TRUE(cell.ok());
  EXPECT_GT(serial.event_count(), cells.size());  // real events, not just names
  EXPECT_EQ(serial.Json(), parallel.Json());
}

TEST(SpanTracerTest, MetricsSnapshotIsByteIdenticalAcrossJobCounts) {
  const auto times = AffinityTimes();
  const std::vector<double> mix = {1.0, 1.0};
  const simsys::ServingConfig config = StressConfig();
  const std::vector<simsys::ServingGridCell> cells = StressCells();
  MetricsRegistry& registry = MetricsRegistry::Global();

  registry.ResetAll();
  auto grid1 =
      simsys::SimulateServingGrid(times, times, mix, config, cells, 1);
  for (const auto& cell : grid1) ASSERT_TRUE(cell.ok());
  const std::string csv1 = registry.CsvSnapshot();
  const std::string prom1 = registry.PrometheusSnapshot();

  registry.ResetAll();
  auto grid4 =
      simsys::SimulateServingGrid(times, times, mix, config, cells, 4);
  for (const auto& cell : grid4) ASSERT_TRUE(cell.ok());
  EXPECT_EQ(registry.CsvSnapshot(), csv1);
  EXPECT_EQ(registry.PrometheusSnapshot(), prom1);
}

// --- Byte pin: one small cell with every resilience mechanism on, traced
// and recorded. The trace JSON, the timeline CSV and the serving/breaker
// registry deltas must match goldens byte for byte, so a rework of how
// the simulator records what happens cannot change what it reports.
// After an intended output change, regenerate the goldens with
// GPUPERF_UPDATE_GOLDENS=1 and review the diff.

simsys::ServingConfig PinnedCellConfig() {
  simsys::ServingConfig config;
  config.arrival_rate_per_s = 100;
  config.duration_s = 0.5;  // ~50 arrivals
  config.faults.mtbf_s = 0.05;
  config.faults.mttr_s = 0.02;
  config.chaos.gray_mtbf_s = 0.3;
  config.chaos.gray_mttr_s = 0.15;
  config.chaos.gray_factor = 4;
  config.retry.max_retries = 1;
  config.retry_budget = 0.05;
  config.retry_budget_burst = 1;
  config.hedge_trigger_factor = 1.5;
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown_ms = 20;
  config.adaptive_detect_quantile = 0.9;
  config.slo_ms = 25;
  config.queue_cap = 2;
  config.recorder_config.sample_period_us = 50000;
  return config;
}

/**
 * One "metric,field,delta" row per counter and histogram field of the
 * gpuperf_serving_* and gpuperf_breaker_* families: what `after` gained
 * over `before` (histogram sums in their exact 2^-20 fixed point).
 */
std::string ServingCounterDeltas(const std::vector<InstrumentSnapshot>& before,
                                 const std::vector<InstrumentSnapshot>& after) {
  std::map<std::string, const InstrumentSnapshot*> start;
  for (const InstrumentSnapshot& s : before) start[s.name] = &s;
  std::string out;
  for (const InstrumentSnapshot& s : after) {
    if (s.name.rfind("gpuperf_serving_", 0) != 0 &&
        s.name.rfind("gpuperf_breaker_", 0) != 0) {
      continue;
    }
    const InstrumentSnapshot* b =
        start.count(s.name) > 0 ? start.at(s.name) : nullptr;
    if (s.kind == 0) {
      out += Format("%s,value,%llu\n", s.name.c_str(),
                    (unsigned long long)(s.counter_value -
                                         (b ? b->counter_value : 0)));
    } else if (s.kind == 2) {
      out += Format("%s,count,%llu\n", s.name.c_str(),
                    (unsigned long long)(s.histogram_count -
                                         (b ? b->histogram_count : 0)));
      out += Format("%s,sum_fp,%lld\n", s.name.c_str(),
                    (long long)(s.histogram_sum_fp -
                                (b ? b->histogram_sum_fp : 0)));
      for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
        out += Format("%s,bucket_%zu,%llu\n", s.name.c_str(), i,
                      (unsigned long long)(s.bucket_counts[i] -
                                           (b ? b->bucket_counts[i] : 0)));
      }
    }
  }
  return out;
}

void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(GPUPERF_GOLDEN_DIR) + "/" + name;
  if (std::getenv("GPUPERF_UPDATE_GOLDENS") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str()) << "output drifted from golden " << path;
}

TEST(SpanTracerTest, PinnedCellOutputsMatchGoldens) {
  const std::vector<std::vector<double>> truth = {
      {6000, 18000, 27000}, {21000, 7500, 12000}, {15000, 15000, 4500}};
  // Optimistic predictions: deadline misses and hedges both fire.
  std::vector<std::vector<double>> predicted = truth;
  for (auto& row : predicted) {
    for (double& t : row) t *= 0.7;
  }
  const std::vector<double> mix = {1.0, 1.0, 1.0};
  const simsys::ServingConfig config = PinnedCellConfig();

  MetricsRegistry& registry = MetricsRegistry::Global();
  // Register the serving families first, so `before` lists them too.
  ASSERT_TRUE(simsys::SimulateServing(truth, predicted, mix, config).ok());
  const std::vector<InstrumentSnapshot> before = registry.Snapshot();
  ChromeTraceWriter trace;
  FlightTimeline timeline;
  const auto grid = simsys::SimulateServingGrid(
      truth, predicted, mix, config,
      {{simsys::DispatchPolicy::kPredictedLeastLoad, 5}}, /*jobs=*/1, &trace,
      &timeline);
  ASSERT_EQ(grid.size(), 1u);
  ASSERT_TRUE(grid[0].ok()) << grid[0].status().ToString();
  const std::vector<InstrumentSnapshot> after = registry.Snapshot();

  ExpectMatchesGolden("serving_pin_trace.json", trace.Json());
  ExpectMatchesGolden("serving_pin_timeline.csv", timeline.Csv());
  ExpectMatchesGolden("serving_pin_counters.csv",
                      ServingCounterDeltas(before, after));
}

}  // namespace
}  // namespace gpuperf::obs
