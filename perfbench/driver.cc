// The gpuperf benchmark driver: runs one workload end to end through the
// public entry points of zoo, gpuexec, dataset, models, simsys and obs,
// checks the outputs, and prints one line per metric.
//
//   perfbench_driver --workload predict|chaos --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    [--size full|tiny] [--spans-out FILE]
//
// Every workload runs the same session a user of the paper's method runs:
// profile a zoo (campaign), train KW, sweep a design space with it, serve
// with predicted-least-load dispatch, and heal a drifted GPU through the
// model lifecycle. `predict` runs the model stage at full size and serves
// 10^6 fault-free arrivals; `chaos` keeps the model stage at a small
// "support" size and serves through outages, gray failures and the
// resilience paths. The heal stage runs once per run at one size, so every
// metric is measured on every workload while each stresses its own layers.
//
// Output (stdout), one record per line:
//   machine <json>              fingerprint of host, compiler and build
//   metric <name> <value> <unit>
//   digest <name> <hex>         FNV-1a of simulated results / predictions
//   gate <attempted> <failed>   the correctness gate
//   selftime <span> <total_s> <self_s> <self_pct>   (traced runs only)
// stderr carries each timed phase's per-sample host seconds, as measured
// and scaled to the reference host speed (`samples` lines).
// Untraced runs (--trace 0) print the end-to-end metrics. Traced runs
// (--trace 1) record spans around every call into a layer, write them to
// --spans-out, and print the per-layer metrics plus the end-to-end
// metrics of their single traced cycle as `traced_e2e` lines.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "dataset/builder.h"
#include "dataset/dataset.h"
#include "gpuexec/gpu_spec.h"
#include "gpuexec/lowering.h"
#include "gpuexec/lowering_cache.h"
#include "gpuexec/oracle.h"
#include "gpuexec/profiler.h"
#include "models/bundle_registry.h"
#include "models/kw_model.h"
#include "models/model_io.h"
#include "models/refit.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "simsys/self_healing.h"
#include "simsys/serving.h"
#include "simsys/serving_matrix.h"
#include "zoo/zoo.h"

namespace {

using namespace gpuperf;
namespace fs = std::filesystem;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of `v` (p in [0, 100]). */
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- Host-speed probe ----------------------------------------------------

// The host's speed drifts, for minutes at a time, with other tenants' use
// of its cores, shared cache and memory: the same phase ran up to 1.9x
// slower from one minute to the next, thread CPU time tracked wall time,
// and whole 55 s runs stayed slow. Two fixed loops measure that state: a
// dependent-load chase through a ring larger than a fair share of the
// shared cache (memory latency) and a serial ALU loop (core speed). Every
// timed sample is multiplied by the host's speed around it relative to a
// reference host, so the host-time end-to-end metrics compare commits
// rather than moments of the host. Over six runs of `predict` the medians
// spread 20-33% raw, 5-18% scaled by the chase alone and 5-10% scaled by
// both loops.
constexpr double kReferenceNsPerLoad = 200;
constexpr double kReferenceNsPerStep = 2.5;

class HostProbe {
 public:
  HostProbe() : ring_(kEntries) {
    // A full-period LCG (Hull-Dobell: odd increment, multiplier 1 mod 4)
    // is one cycle through every entry, in an order prefetchers miss.
    for (std::size_t i = 0; i < kEntries; ++i) {
      ring_[i] = static_cast<std::uint32_t>((i * 2654435761u + 1) & (kEntries - 1));
    }
  }

  /** The host's speed now; 1 is the reference host, 0.5 half as fast. */
  double Speed() {
    double t0 = NowS();
    std::uint32_t at = at_;
    for (int i = 0; i < kLoads; ++i) at = ring_[at];
    const double ns_per_load = (NowS() - t0) * 1e9 / kLoads;
    t0 = NowS();
    std::uint64_t h = at;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      h += i;
    }
    const double ns_per_step = (NowS() - t0) * 1e9 / kSteps;
    // The next chase starts where this loop ended, which keeps it live.
    at_ = static_cast<std::uint32_t>(h & (kEntries - 1));
    return kReferenceNsPerLoad / ns_per_load * (kReferenceNsPerStep / ns_per_step);
  }

  double resident_mb() const { return kEntries * sizeof(std::uint32_t) / 1048576.0; }

 private:
  static constexpr std::size_t kEntries = std::size_t{1} << 26;  // 256 MB
  static constexpr int kLoads = 100000;
  static constexpr std::uint64_t kSteps = 2000000;
  std::vector<std::uint32_t> ring_;
  std::uint32_t at_ = 0;
};

/** One timed phase's samples in host seconds, as measured and scaled. */
struct Samples {
  std::vector<double> raw_s;
  std::vector<double> scaled_s;
};

// --- Spans: benchmark-side, around calls into each layer ----------------

/** In-memory span recorder; every call is a no-op when disabled. */
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowS(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    if (!enabled_ || id < 0) return;
    spans_[id].end_s = NowS();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/** RAII span scope. */
class Scope {
 public:
  Scope(Spans& spans, const std::string& name)
      : spans_(spans), id_(spans.Begin(name)) {}
  ~Scope() { spans_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// --- Correctness gate and digests ----------------------------------------

class Gate {
 public:
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

/** FNV-1a over raw bytes, so equal digests mean bit-identical values. */
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void DigestServing(const simsys::ServingResult& r, Digest* d) {
  for (int v : {r.completed, r.dropped, r.retries, r.dispatches,
                r.degraded_dispatches, r.shed_on_admission, r.deadline_misses,
                r.breaker_opens, r.hedges_issued, r.hedges_won,
                r.retries_suppressed, r.breakers_open_at_end}) {
    d->Add(v);
  }
  for (double v : {r.p50_ms, r.p95_ms, r.p99_ms, r.mean_ms, r.slo_attainment}) {
    d->Add(v);
  }
  for (double v : r.gpu_utilization) d->Add(v);
  for (double v : r.gpu_availability) d->Add(v);
}

// --- Workload specification ---------------------------------------------

struct ServeSpec {
  std::vector<std::string> pool;      // GPU names, repeats allowed
  double arrivals = 0;                // sets the horizon with the rate
  double duration_s = 0;              // fixed horizon (overrides arrivals)
  // Faults, retries, hedging, breakers and a FlightRecorder, at
  // kChaosRatePerS; otherwise the rate loads the pool to kTargetUtilization.
  bool chaos = false;
};

struct HealSpec {
  std::vector<std::string> pool;
  int epochs = 0;
  double epoch_s = 0;
  double rate_per_s = 0;
  double drift_at_s = 0;
};

// Every cycle times one campaign and `samples` samples of each other
// phase; a cold sample sweeps one fresh copy of the trained model, a warm
// sample repeats its sweep `warm_passes` (`many_warm_passes`) times.
struct ModelSpec {
  int zoo_stride = 1;                 // 1 = the full 646-network zoo
  std::vector<std::string> gpus;      // empty = all seven
  std::int64_t batch = 512;
  int jobs = 1;
  int samples = 1;
  int warm_passes = 1;
  int many_warm_passes = 1;
};

struct Spec {
  std::string name;
  ModelSpec model;
  ServeSpec serve;
  HealSpec heal;
  int min_cycles = 1;
};

const std::vector<std::string> kJobNetworks = {
    "resnet18", "resnet50", "densenet121", "mobilenet_v2", "vgg16_bn"};
const std::vector<std::string> kHealNetworks = {"resnet18", "resnet50",
                                                "mobilenet_v2"};
constexpr std::int64_t kServeBatch = 16;
constexpr double kTargetUtilization = 0.7;
constexpr double kChaosRatePerS = 200;
// The healing scenario: one GPU of the pool slows down by a fixed step.
constexpr const char* kHealDriftGpu = "A40";
constexpr double kHealDriftFactor = 1.12;
// The train/test split and the sweep order are fixed, so a workload's
// trained model, its held-out error and its prediction timings do not
// depend on the seed; the seed drives the serving arrivals.
constexpr std::uint64_t kSplitSeed = 1;
// The chaos pool's outage and gray-failure timeline and the healing
// scenario are fixed parts of their workloads, like the GPUs themselves;
// the seed drives the arrivals that meet them. Seeding the failure
// timeline too made p99 and the healed residual vary by more than half
// between seeds.
constexpr std::uint64_t kPoolSeed = 1;

std::vector<std::string> Repeat(const std::vector<std::string>& names,
                                int times) {
  std::vector<std::string> out;
  for (int i = 0; i < times; ++i) {
    out.insert(out.end(), names.begin(), names.end());
  }
  return out;
}

// The model stage the set-up trains the dispatcher with, and chaos times:
// the GPU types of the serving pools, at the serving batch, single-threaded.
ModelSpec SupportModel(bool tiny) {
  ModelSpec m;
  m.zoo_stride = tiny ? 64 : 4;
  m.gpus = {"A100", "A40", "V100", "TITAN RTX"};
  m.batch = kServeBatch;
  m.jobs = 1;
  m.samples = tiny ? 1 : 3;
  m.warm_passes = tiny ? 1 : 2;
  m.many_warm_passes = tiny ? 1 : 10;
  return m;
}

const std::vector<std::string> kServeTypes = {"A100", "A40", "V100",
                                              "TITAN RTX"};

HealSpec SupportHeal(bool tiny) {
  HealSpec h;
  h.pool = {"A40", "TITAN RTX", "V100"};
  h.epochs = tiny ? 3 : 6;
  h.epoch_s = tiny ? 2 : 8;
  h.rate_per_s = tiny ? 60 : 150;
  h.drift_at_s = tiny ? 1 : 8;
  return h;
}

bool MakeSpec(const std::string& name, bool tiny, Spec* spec) {
  spec->name = name;
  spec->model = SupportModel(tiny);
  spec->heal = SupportHeal(tiny);
  spec->min_cycles = tiny ? 1 : 4;
  if (name == "predict") {
    ModelSpec& m = spec->model;
    m.zoo_stride = tiny ? 32 : 1;
    m.gpus.clear();
    m.batch = 512;
    m.jobs = 2;
    m.samples = tiny ? 1 : 2;
    m.warm_passes = 1;
    m.many_warm_passes = tiny ? 1 : 8;
    spec->min_cycles = tiny ? 1 : 3;
    ServeSpec& s = spec->serve;
    s.pool = Repeat(kServeTypes, 4);
    s.arrivals = tiny ? 4e3 : 1e6;
  } else if (name == "chaos") {
    ServeSpec& s = spec->serve;
    s.pool = Repeat(kServeTypes, 2);
    s.duration_s = tiny ? 10 : 300;
    s.chaos = true;
  } else {
    return false;
  }
  return true;
}

// --- Helpers over the public API -----------------------------------------

std::vector<const gpuexec::GpuSpec*> Gpus(const std::vector<std::string>& names) {
  std::vector<const gpuexec::GpuSpec*> out;
  for (const std::string& n : names) out.push_back(&gpuexec::GpuByName(n));
  return out;
}

std::vector<std::vector<double>> Truth(
    const gpuexec::Profiler& profiler,
    const std::vector<dnn::Network>& networks,
    const std::vector<const gpuexec::GpuSpec*>& gpus,
    std::vector<double>* call_us) {
  std::vector<std::vector<double>> truth;
  for (const dnn::Network& network : networks) {
    std::vector<double> row;
    for (const gpuexec::GpuSpec* gpu : gpus) {
      const double t0 = NowS();
      row.push_back(profiler.MeasureE2eUs(network, *gpu, kServeBatch));
      if (call_us != nullptr) call_us->push_back((NowS() - t0) * 1e6);
    }
    truth.push_back(std::move(row));
  }
  return truth;
}

std::vector<dnn::Network> BuildNetworks(const std::vector<std::string>& names) {
  std::vector<dnn::Network> out;
  for (const std::string& n : names) out.push_back(zoo::BuildByName(n));
  return out;
}

/** What the set-up phase produces for the timed stages. */
struct Inputs {
  std::vector<dnn::Network> zoo;
  std::vector<dnn::Network> serve_networks;
  std::vector<dnn::Network> heal_networks;
  std::vector<std::vector<double>> serve_truth;
  std::vector<std::vector<double>> heal_truth;
  // The KW model the serving and healing stages dispatch with.
  std::unique_ptr<models::KwModel> serving_model;
};

class Bench {
 public:
  Bench(Spec spec, bool tiny, std::uint64_t seed, double seconds, bool traced,
        std::string work_dir)
      : spec_(std::move(spec)),
        tiny_(tiny),
        seed_(seed),
        seconds_(seconds),
        traced_(traced),
        work_dir_(std::move(work_dir)),
        spans_(traced) {}

  int Run();
  const Spans& spans() const { return spans_; }

 private:
  void Setup(Inputs* in, bool probe);
  void MakeSweep();
  void ModelStage(bool first);
  void ServeStage(bool first);
  void HealStage();
  void LayerProbes();
  simsys::ServingConfig ServingConfigFor(double duration_s) const;
  StatusOr<simsys::ServingResult> Simulate(const simsys::ServingConfig& config,
                                           double* host_s,
                                           obs::FlightRecorder* recorder,
                                           obs::SpanTracer* tracer);
  void CheckServing(const simsys::ServingResult& r, double rate,
                    double duration_s, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);
  void E2e(const std::string& name, double value, const std::string& unit);

  /** Times `work` between host-speed probes and records it in `into`. */
  template <typename Work>
  void Timed(Samples* into, Work&& work) {
    // A probe that ended moments ago still describes the host.
    const double before =
        NowS() - probe_at_s_ < kProbeReuseS ? speed_ : probe_.Speed();
    const double t0 = NowS();
    work();
    const double host_s = NowS() - t0;
    speed_ = probe_.Speed();
    probe_at_s_ = NowS();
    into->raw_s.push_back(host_s);
    into->scaled_s.push_back(host_s * 0.5 * (before + speed_));
  }
  static constexpr double kProbeReuseS = 0.2;

  Spec spec_;
  bool tiny_;
  std::uint64_t seed_;
  double seconds_;
  bool traced_;
  std::string work_dir_;
  Spans spans_;
  Gate gate_;
  Digest sim_digest_;
  Digest predict_digest_;

  gpuexec::HardwareOracle oracle_;
  Inputs in_;
  std::vector<const gpuexec::GpuSpec*> model_gpus_;
  std::vector<models::PredictQuery> sweep_;
  std::vector<double> reference_us_;  // PredictUs over the sweep
  std::unique_ptr<dataset::Dataset> data_;
  std::unique_ptr<dataset::NetworkSplit> split_;
  std::unique_ptr<models::KwModel> pristine_;  // trained, never queried
  std::unique_ptr<models::KwModel> warm_;      // the model every stage uses
  std::vector<std::vector<double>> serve_predicted_;
  double serve_rate_ = 0;
  double serve_duration_s_ = 0;
  std::uint64_t serve_digest_ = 0;
  simsys::ServingResult serve_result_;
  double lifecycle_host_s_ = 0;
  long long lifecycle_arrivals_ = 0;

  // Per-cycle samples of the timed phases.
  HostProbe probe_;
  double speed_ = 1;
  double probe_at_s_ = -1e9;
  Samples setup_t_, campaign_t_, train_t_, cold_t_, warm_t_, many_cold_t_, many_warm_t_,
      sim_t_;
  int sim_arrivals_ = 0;
  double kw_mape_pct_ = 0, sim_p99_ms_ = 0, sim_completed_pct_ = 0,
         heal_residual_pct_ = 0;
  std::vector<std::string> lines_;
};

void Bench::Metric(const std::string& name, double value,
                   const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  lines_.push_back("metric " + name + " " + buf + " " + unit);
}

void Bench::E2e(const std::string& name, double value,
                const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  lines_.push_back(std::string(traced_ ? "traced_e2e " : "metric ") + name +
                   " " + buf + " " + unit);
}

void Bench::Setup(Inputs* in, bool probe) {
  Scope setup(spans_, "setup");
  // Every set-up lowers its networks afresh.
  gpuexec::LoweringCache::Global().Clear();
  const double t0 = NowS();
  {
    Scope s(spans_, "zoo.build");
    in->zoo = spec_.model.zoo_stride == 1
                  ? zoo::ImageClassificationZoo()
                  : zoo::SmallZoo(spec_.model.zoo_stride);
    in->serve_networks = BuildNetworks(kJobNetworks);
    in->heal_networks = BuildNetworks(kHealNetworks);
  }
  const double t1 = NowS();
  std::vector<double> call_us;
  {
    Scope s(spans_, "gpuexec.measure_e2e");
    gpuexec::Profiler profiler(oracle_);
    in->serve_truth = Truth(profiler, in->serve_networks,
                            Gpus(spec_.serve.pool), &call_us);
    in->heal_truth =
        Truth(profiler, in->heal_networks, Gpus(spec_.heal.pool), &call_us);
  }
  {
    Scope s(spans_, "setup.serving_model");
    const ModelSpec m = SupportModel(tiny_);
    dataset::BuildOptions options;
    options.gpu_names = m.gpus;
    options.batch = m.batch;
    options.jobs = m.jobs;
    const dataset::Dataset data =
        dataset::BuildDataset(zoo::SmallZoo(m.zoo_stride), options);
    in->serving_model = std::make_unique<models::KwModel>();
    in->serving_model->Train(data,
                             dataset::SplitByNetwork(data, 0.15, kSplitSeed));
  }
  if (probe) {
    Metric("zoo.build_ms", (t1 - t0) * 1e3, "ms");
    Metric("gpuexec.measure_e2e_us", Median(call_us), "us");
  }
}

void Bench::MakeSweep() {
  model_gpus_.clear();
  if (spec_.model.gpus.empty()) {
    for (const gpuexec::GpuSpec& g : gpuexec::AllGpus()) model_gpus_.push_back(&g);
  } else {
    model_gpus_ = Gpus(spec_.model.gpus);
  }
  // (network, GPU) cells in shuffled order; each cell's batches 1..512
  // stay together, as a design-space sweep asks them.
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (std::size_t n = 0; n < in_.zoo.size(); ++n) {
    for (std::size_t g = 0; g < model_gpus_.size(); ++g) cells.push_back({n, g});
  }
  // A fixed shuffle (splitmix64 Fisher-Yates): the sweep order changes
  // the timing of cache misses, so a seeded order would make the predict
  // metrics vary between seeds.
  std::uint64_t state = kSplitSeed;
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    std::swap(cells[i - 1], cells[(z ^ (z >> 31)) % i]);
  }
  sweep_.clear();
  for (const auto& [n, g] : cells) {
    for (std::int64_t b = 1; b <= 512; b *= 2) {
      sweep_.push_back({&in_.zoo[n], model_gpus_[g], b});
    }
  }
}

void Bench::ModelStage(bool first) {
  Scope stage(spans_, "stage.model");
  const ModelSpec& m = spec_.model;
  dataset::BuildOptions options;
  options.gpu_names = m.gpus;
  options.batch = m.batch;
  options.jobs = m.jobs;
  data_.reset();
  // Each campaign lowers the zoo afresh, as a user's first campaign does.
  gpuexec::LoweringCache::Global().Clear();
  Timed(&campaign_t_, [&] {
    Scope s(spans_, "dataset.build");
    data_ = std::make_unique<dataset::Dataset>(
        dataset::BuildDataset(in_.zoo, options));
  });
  split_ = std::make_unique<dataset::NetworkSplit>(
      dataset::SplitByNetwork(*data_, 0.15, kSplitSeed));
  for (int sample = 0; sample < m.samples; ++sample) {
    pristine_.reset();
    auto trained = std::make_unique<models::KwModel>();
    Timed(&train_t_, [&] {
      Scope s(spans_, "models.kw_train");
      trained->Train(*data_, *split_);
    });
    pristine_ = std::move(trained);
  }
  const std::size_t q = sweep_.size();

  // Cold single queries: first touch on a fresh copy of the trained model.
  for (int sample = 0; sample < m.samples; ++sample) {
    models::KwModel cold(*pristine_);
    double sum = 0;
    Timed(&cold_t_, [&] {
      Scope s(spans_, "models.predict_cold");
      for (const models::PredictQuery& query : sweep_) {
        sum += cold.PredictUs(*query.network, *query.gpu, query.batch);
      }
    });
    if (first && sample == 0) predict_digest_.Add(sum);
  }
  // Warm single queries on the model the later stages use.
  if (first) {
    warm_ = std::make_unique<models::KwModel>(*pristine_);
    reference_us_.assign(q, 0);
    for (std::size_t i = 0; i < q; ++i) {
      reference_us_[i] =
          warm_->PredictUs(*sweep_[i].network, *sweep_[i].gpu, sweep_[i].batch);
    }
  }
  for (int sample = 0; sample < m.samples; ++sample) {
    double sum = 0;
    Timed(&warm_t_, [&] {
      Scope s(spans_, "models.predict_warm");
      for (int pass = 0; pass < m.warm_passes; ++pass) {
        for (const models::PredictQuery& query : sweep_) {
          sum += warm_->PredictUs(*query.network, *query.gpu, query.batch);
        }
      }
    });
    if (first && sample == 0) predict_digest_.Add(sum);
  }
  // Batched: one PredictMany per fresh copy (compiles every plan), then
  // repeated on the warm model.
  std::vector<double> out(q, 0);
  for (int sample = 0; sample < m.samples; ++sample) {
    models::KwModel cold(*pristine_);
    Timed(&many_cold_t_, [&] {
      Scope s(spans_, "models.predict_many_cold");
      cold.PredictMany(sweep_, out);
    });
  }
  warm_->PredictMany(sweep_, out);
  for (int sample = 0; sample < m.samples; ++sample) {
    Timed(&many_warm_t_, [&] {
      Scope s(spans_, "models.predict_many_warm");
      for (int pass = 0; pass < m.many_warm_passes; ++pass) {
        warm_->PredictMany(sweep_, out);
      }
    });
  }
  if (first) {
    // Gate: batched is bit-identical to single, every prediction finite
    // and positive.
    for (std::size_t i = 0; i < q; ++i) {
      const double v = reference_us_[i];
      const bool ok = std::memcmp(&out[i], &v, sizeof(double)) == 0 &&
                      std::isfinite(v) && v > 0;
      gate_.Check(ok, ok ? std::string()
                         : "sweep query " + std::to_string(i) + " (" +
                               sweep_[i].network->name() + ", " +
                               sweep_[i].gpu->name + ", batch " +
                               std::to_string(sweep_[i].batch) +
                               "): PredictMany and PredictUs disagree or "
                               "the prediction is not finite and positive");
      predict_digest_.Add(v);
    }
    // Held-out-network KW error against the measured campaign rows.
    std::map<std::string, const dnn::Network*> by_name;
    for (const dnn::Network& n : in_.zoo) by_name[n.name()] = &n;
    double ape = 0;
    long long count = 0;
    for (const dataset::NetworkRow& row : data_->network_rows()) {
      if (!split_->IsTest(row.network_id)) continue;
      const dnn::Network* network =
          by_name.at(data_->networks().Get(row.network_id));
      const gpuexec::GpuSpec& gpu =
          gpuexec::GpuByName(data_->gpus().Get(row.gpu_id));
      const double predicted = warm_->PredictUs(*network, gpu, row.batch);
      ape += std::abs(predicted - row.e2e_us) / row.e2e_us;
      ++count;
    }
    gate_.Check(count > 0 && std::isfinite(ape), "held-out KW error is defined");
    kw_mape_pct_ = count > 0 ? 100.0 * ape / static_cast<double>(count) : 0;
    predict_digest_.Add(kw_mape_pct_);
  }
}

simsys::ServingConfig Bench::ServingConfigFor(double duration_s) const {
  simsys::ServingConfig config;
  config.arrival_rate_per_s = serve_rate_;
  config.duration_s = duration_s;
  config.seed = seed_;
  config.policy = simsys::DispatchPolicy::kPredictedLeastLoad;
  if (spec_.serve.chaos) {
    config.faults.mtbf_s = 5;
    config.faults.mttr_s = 2;
    config.faults.seed = kPoolSeed;
    config.retry.max_retries = 3;
    config.adaptive_detect_quantile = 0.99;
    config.hedge_trigger_factor = 1.5;
    config.retry_budget = 0.5;
    config.breaker.failure_threshold = 3;
    config.breaker.cooldown_ms = 1000;
    // Gray slowdowns are what make jobs overrun their prediction and
    // trigger hedges.
    config.chaos.seed = kPoolSeed;
    config.chaos.gray_mtbf_s = 60;
    config.chaos.gray_mttr_s = 3;
    config.chaos.gray_factor = 2;
  }
  return config;
}

StatusOr<simsys::ServingResult> Bench::Simulate(
    const simsys::ServingConfig& base, double* host_s,
    obs::FlightRecorder* recorder, obs::SpanTracer* tracer) {
  simsys::ServingConfig config = base;
  config.recorder = recorder;
  const std::vector<double> mix(in_.serve_networks.size(), 1.0);
  const double t0 = NowS();
  StatusOr<simsys::ServingResult> result = simsys::SimulateServing(
      in_.serve_truth, serve_predicted_, mix, config, tracer);
  *host_s = NowS() - t0;
  return result;
}

void Bench::CheckServing(const simsys::ServingResult& r, double rate,
                         double duration_s, const std::string& what) {
  // The arrival stream is Poisson(rate * duration): every arrival must
  // end completed, dropped or shed, so their sum must be a plausible
  // draw (6 sigma) of that count.
  const double expected = rate * duration_s;
  const double arrivals = r.completed + r.dropped + r.shed_on_admission;
  gate_.Check(std::abs(arrivals - expected) <= 6 * std::sqrt(expected) + 1,
              what + ": completed + dropped + shed = " +
                  std::to_string(arrivals) + " is not a Poisson(" +
                  std::to_string(expected) + ") arrival count");
  gate_.Check(r.hedges_won <= r.hedges_issued,
              what + ": hedges_won > hedges_issued");
  gate_.Check(r.completed > 0 && std::isfinite(r.p99_ms) && r.p99_ms > 0,
              what + ": no completions or non-finite latency");
}

void Bench::ServeStage(bool first) {
  Scope stage(spans_, "stage.serve");
  const ServeSpec& s = spec_.serve;
  if (first) {
    simsys::ServingMatrixBuffer buffer;
    FillPredictedServingMatrix(*in_.serving_model, in_.serve_networks, Gpus(s.pool),
                               kServeBatch, buffer, serve_predicted_);
    if (s.chaos) {
      serve_rate_ = kChaosRatePerS;
    } else {
      // Capacity of the pool when every GPU serves the equal job mix.
      double capacity = 0;
      for (std::size_t g = 0; g < s.pool.size(); ++g) {
        double mean_us = 0;
        for (const auto& row : in_.serve_truth) mean_us += row[g];
        mean_us /= static_cast<double>(in_.serve_truth.size());
        capacity += 1e6 / mean_us;
      }
      serve_rate_ = kTargetUtilization * capacity;
    }
    serve_duration_s_ = s.duration_s > 0 ? s.duration_s : s.arrivals / serve_rate_;
  }
  const simsys::ServingConfig config = ServingConfigFor(serve_duration_s_);
  {
    obs::FlightRecorder recorder;
    double host_s = 0;
    StatusOr<simsys::ServingResult> result(simsys::ServingResult{});
    Timed(&sim_t_, [&] {
      Scope span(spans_, "simsys.serving");
      result = Simulate(config, &host_s, s.chaos ? &recorder : nullptr, nullptr);
    });
    gate_.Check(result.ok(), "serving simulation: " +
                                 (result.ok() ? std::string() : result.status().message()));
    if (!result.ok()) return;
    const simsys::ServingResult& r = *result;
    const int arrivals = r.completed + r.dropped + r.shed_on_admission;
    sim_arrivals_ = arrivals;
    Digest d;
    DigestServing(r, &d);
    if (first) {
      CheckServing(r, serve_rate_, serve_duration_s_, "serving");
      serve_digest_ = d.value();
      sim_digest_.Add(serve_digest_);
      serve_result_ = r;
      sim_p99_ms_ = r.p99_ms;
      sim_completed_pct_ = 100.0 * r.completed / std::max(1, arrivals);
      if (s.chaos) {
        // A second sink: the recorder's counter channels must add up to
        // the result's totals.
        recorder.FinishAt(static_cast<long long>(serve_duration_s_ * 1e6));
        std::map<std::string, std::uint64_t> totals;
        for (const obs::FlightFrame& frame : recorder.frames()) {
          for (const obs::FlightSample& channel : frame.samples) {
            if (channel.kind == obs::FlightSample::kCounter) {
              totals[*channel.channel] = channel.counter_total;
            }
          }
        }
        gate_.Check(totals["gpuperf_serving_jobs_completed"] ==
                            static_cast<std::uint64_t>(r.completed) &&
                        totals["gpuperf_serving_jobs_dropped"] ==
                            static_cast<std::uint64_t>(r.dropped) &&
                        totals["gpuperf_serving_jobs_shed"] ==
                            static_cast<std::uint64_t>(r.shed_on_admission),
                    "flight recorder totals match the serving result");
      }
    } else {
      gate_.Check(d.value() == serve_digest_,
                  "serving result repeats bit for bit across cycles");
    }
  }
}

void Bench::HealStage() {
  Scope stage(spans_, "stage.heal");
  const HealSpec& h = spec_.heal;
  const std::vector<const gpuexec::GpuSpec*> gpus = Gpus(h.pool);
  const std::string dir = work_dir_ + "/heal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string bundle = dir + "/serving";
  {
    Scope s(spans_, "models.bundle_save");
    const Status saved = models::ModelIo::SaveKw(*in_.serving_model, bundle);
    gate_.Check(saved.ok(), "initial bundle saves: " + saved.message());
    if (!saved.ok()) return;
  }
  models::BundleRegistry registry;
  models::CanaryOptions canary;
  canary.probe_networks = in_.heal_networks;
  canary.batch = kServeBatch;
  {
    Scope s(spans_, "models.bundle_promote");
    const Status promoted = registry.TryPromote(bundle, canary);
    gate_.Check(promoted.ok(), "initial bundle promotes: " + promoted.message());
    if (!promoted.ok()) return;
  }
  std::size_t drifted = 0;
  for (std::size_t g = 0; g < h.pool.size(); ++g) {
    if (h.pool[g] == kHealDriftGpu) drifted = g;
  }
  gpuexec::DriftEvent event;
  event.resource = drifted;
  event.at_us = h.drift_at_s * 1e6;
  event.factor = kHealDriftFactor;
  const gpuexec::DriftSchedule drift(h.pool.size(), {event});

  models::LifecycleOptions lifecycle;
  lifecycle.work_dir = dir + "/heal";
  models::LifecycleController controller(&registry, bundle, canary, lifecycle);
  simsys::SelfHealingConfig config;
  config.serving.arrival_rate_per_s = h.rate_per_s;
  config.serving.duration_s = h.epoch_s;
  config.serving.seed = kPoolSeed;
  config.serving.policy = simsys::DispatchPolicy::kPredictedLeastLoad;
  config.serving.drift = &drift;
  config.epochs = h.epochs;
  config.batch = kServeBatch;
  const std::vector<double> mix(in_.heal_networks.size(), 1.0);

  double host_s = 0;
  StatusOr<simsys::SelfHealingResult> result(simsys::SelfHealingResult{});
  {
    Scope s(spans_, "simsys.self_healing");
    const double t0 = NowS();
    result = simsys::RunSelfHealingServing(in_.heal_networks, gpus,
                                           in_.heal_truth, mix, &registry,
                                           &controller, config);
    host_s = NowS() - t0;
  }
  gate_.Check(result.ok(), "self-healing run: " +
                               (result.ok() ? std::string() : result.status().message()));
  if (!result.ok()) return;
  long long arrivals = 0;
  Digest d;
  for (const simsys::SelfHealingEpoch& e : result->epochs) {
    arrivals += e.completed + e.dropped + e.shed;
    d.Add(e.completed);
    d.Add(e.dropped);
    d.Add(e.shed);
    for (double v : e.mean_abs_log_ratio) d.Add(v);
    gate_.Check(std::abs(e.completed + e.dropped + e.shed -
                         h.rate_per_s * h.epoch_s) <=
                    6 * std::sqrt(h.rate_per_s * h.epoch_s) + 1,
                "self-healing epoch arrivals are a Poisson count");
  }
  const models::LifecycleCounters& c = result->counters;
  for (std::uint64_t v : {c.refits, c.promotions, c.rollbacks,
                          c.canary_rejections, c.shadow_rejections}) {
    d.Add(v);
  }
  gate_.Check(c.promotions >= 1, "lifecycle promoted at least one refit");
  gate_.Check(c.rollbacks == 0, "lifecycle rolled nothing back");
  sim_digest_.Add(d.value());
  heal_residual_pct_ =
      100.0 * result->epochs.back().mean_abs_log_ratio[drifted];
  gate_.Check(std::isfinite(heal_residual_pct_) && heal_residual_pct_ > 0,
              "final-epoch residual is finite and positive");
  if (traced_) {
    Metric("models.refits", static_cast<double>(c.refits), "count");
    Metric("models.promotions", static_cast<double>(c.promotions), "count");
    Metric("models.rollbacks", static_cast<double>(c.rollbacks), "count");
    Metric("models.canary_rejections", static_cast<double>(c.canary_rejections), "count");
    Metric("models.shadow_rejections", static_cast<double>(c.shadow_rejections), "count");
    long long observations = 0;
    for (const simsys::SelfHealingEpoch& e : result->epochs) {
      for (int n : e.observation_count) observations += n;
    }
    Metric("models.observations", static_cast<double>(observations), "count");
    lifecycle_host_s_ = host_s;
    lifecycle_arrivals_ = arrivals;
  }
  fs::remove_all(dir);
}

void Bench::LayerProbes() {
  Scope stage(spans_, "stage.probes");
  // gpuexec: lowering and serial profiling of the campaign's runs.
  {
    Scope s(spans_, "gpuexec.lower");
    long long layers = 0;
    const double t0 = NowS();
    for (const dnn::Network& network : in_.zoo) {
      layers += static_cast<long long>(
          gpuexec::LowerNetwork(network, spec_.model.batch).size());
    }
    Metric("gpuexec.lower_ns_per_layer",
           (NowS() - t0) * 1e9 / std::max(1LL, layers), "ns");
  }
  std::map<std::string, const dnn::Network*> by_name;
  for (const dnn::Network& n : in_.zoo) by_name[n.name()] = &n;
  double profile_s = 0;
  {
    gpuexec::LoweringCache::Global().Clear();
    Scope s(spans_, "gpuexec.profile_serial");
    gpuexec::Profiler profiler(oracle_);
    long long records = 0;
    const double t0 = NowS();
    for (const dataset::NetworkRow& row : data_->network_rows()) {
      const gpuexec::NetworkProfile profile = profiler.Profile(
          *by_name.at(data_->networks().Get(row.network_id)),
          gpuexec::GpuByName(data_->gpus().Get(row.gpu_id)), row.batch);
      records += static_cast<long long>(profile.kernels.size());
    }
    profile_s = NowS() - t0;
    Metric("gpuexec.profile_us_per_kernel",
           profile_s * 1e6 / std::max(1LL, records), "us");
    Metric("gpuexec.kernel_records", static_cast<double>(records), "count");
  }
  // dataset: the campaign at 1 and 2 jobs.
  {
    dataset::BuildOptions options;
    options.gpu_names = spec_.model.gpus;
    options.batch = spec_.model.batch;
    double build_s[2] = {0, 0};
    for (int jobs = 1; jobs <= 2; ++jobs) {
      data_.reset();
      gpuexec::LoweringCache::Global().Clear();
      Scope s(spans_, "dataset.build_jobs" + std::to_string(jobs));
      options.jobs = jobs;
      const double t0 = NowS();
      data_ = std::make_unique<dataset::Dataset>(
          dataset::BuildDataset(in_.zoo, options));
      build_s[jobs - 1] = NowS() - t0;
    }
    Metric("dataset.build_jobs1_s", build_s[0], "s");
    Metric("dataset.build_jobs2_s", build_s[1], "s");
    Metric("dataset.speedup_2v1", build_s[0] / build_s[1], "x");
    Metric("dataset.profile_share", profile_s / build_s[0], "ratio");
  }
  // models: training counts, per-call prediction and plan compilation.
  {
    Metric("models.kw_train_s", Median(train_t_.raw_s), "s");
    double kernels = 0, clusters = 0;
    for (const std::string& gpu : warm_->TrainedGpus()) {
      kernels += warm_->KernelCount(gpu);
      clusters += warm_->ClusterCount(gpu);
    }
    Metric("models.kw_kernels", kernels, "count");
    Metric("models.kw_clusters", clusters, "count");
  }
  std::vector<double> call_us;
  call_us.reserve(sweep_.size());
  {
    Scope s(spans_, "models.predict_cold_calls");
    models::KwModel cold(*pristine_);
    for (const models::PredictQuery& q : sweep_) {
      const double t0 = NowS();
      cold.PredictUs(*q.network, *q.gpu, q.batch);
      call_us.push_back((NowS() - t0) * 1e6);
    }
  }
  Metric("models.predict_cold_us_p50", Percentile(call_us, 50), "us");
  Metric("models.predict_cold_us_p99", Percentile(call_us, 99), "us");
  call_us.clear();
  {
    Scope s(spans_, "models.predict_warm_calls");
    for (const models::PredictQuery& q : sweep_) {
      const double t0 = NowS();
      warm_->PredictUs(*q.network, *q.gpu, q.batch);
      call_us.push_back((NowS() - t0) * 1e6);
    }
  }
  Metric("models.predict_warm_us_p50", Percentile(call_us, 50), "us");
  Metric("models.predict_warm_us_p99", Percentile(call_us, 99), "us");
  call_us.clear();
  {
    Scope s(spans_, "models.plan_compile");
    models::KwModel cold(*pristine_);
    obs::Counter& compiles = obs::MetricsRegistry::Global().counter(
        "gpuperf_predictor_plan_compiles");
    const std::uint64_t before = compiles.Value();
    for (std::size_t i = 0; i < sweep_.size(); ++i) {
      if (i > 0 && sweep_[i].network == sweep_[i - 1].network &&
          sweep_[i].gpu == sweep_[i - 1].gpu) {
        continue;
      }
      const double t0 = NowS();
      cold.PlanFor(*sweep_[i].network, *sweep_[i].gpu);
      call_us.push_back((NowS() - t0) * 1e6);
    }
    Metric("models.plans_compiled",
           static_cast<double>(compiles.Value() - before), "count");
  }
  Metric("models.plan_compile_us_p50", Percentile(call_us, 50), "us");
  Metric("models.plan_compile_us_p99", Percentile(call_us, 99), "us");
  Metric("models.predict_many_ns_per_query",
         Median(many_warm_t_.raw_s) * 1e9 /
             (static_cast<double>(sweep_.size()) * spec_.model.many_warm_passes),
         "ns");

  // simsys + obs: the workload's serving configuration.
  {
    Scope s(spans_, "simsys.matrix_fill");
    models::KwModel cold(*in_.serving_model);
    simsys::ServingMatrixBuffer buffer;
    std::vector<std::vector<double>> predicted;
    const double t0 = NowS();
    FillPredictedServingMatrix(cold, in_.serve_networks, Gpus(spec_.serve.pool),
                               kServeBatch, buffer, predicted);
    Metric("simsys.matrix_fill_us", (NowS() - t0) * 1e6, "us");
  }
  const simsys::ServingResult& r = serve_result_;
  const bool recorded = spec_.serve.chaos;
  // Each comparison runs three times, alternating, and takes medians.
  std::vector<double> quarter, plain, with_recorder;
  std::size_t frames = 0;
  for (int i = 0; i < 3; ++i) {
    Scope s(spans_, "simsys.serving_quarter");
    obs::FlightRecorder recorder;
    double host_s = 0;
    StatusOr<simsys::ServingResult> q =
        Simulate(ServingConfigFor(serve_duration_s_ / 4), &host_s,
                 recorded ? &recorder : nullptr, nullptr);
    gate_.Check(q.ok(), "quarter-horizon serving simulation");
    if (q.ok()) {
      CheckServing(*q, serve_rate_, serve_duration_s_ / 4, "quarter serving");
      quarter.push_back(host_s / std::max(1, q->completed + q->dropped +
                                                 q->shed_on_admission));
    }
  }
  for (int i = 0; i < 3; ++i) {
    // The full horizon with and without a flight recorder; the runs whose
    // sinks match the end-to-end configuration give the per-arrival cost.
    for (int with : {0, 1}) {
      obs::FlightRecorder recorder;
      Scope s(spans_, with ? "simsys.serving_recorded" : "simsys.serving_plain");
      double host_s = 0;
      StatusOr<simsys::ServingResult> full =
          Simulate(ServingConfigFor(serve_duration_s_), &host_s,
                   with ? &recorder : nullptr, nullptr);
      gate_.Check(full.ok(), "full-horizon serving simulation");
      if (with) {
        recorder.FinishAt(static_cast<long long>(serve_duration_s_ * 1e6));
        frames = recorder.frames().size() + recorder.dropped_frames();
      }
      (with ? with_recorder : plain).push_back(host_s);
    }
  }
  const double arrivals = r.completed + r.dropped + r.shed_on_admission;
  const double plain_s = Median(plain);
  const double recorded_s = Median(with_recorder);
  const double full_s = recorded ? recorded_s : plain_s;
  const double quarter_s = Median(quarter);
  Metric("simsys.serving_us_per_arrival_quarter", quarter_s * 1e6, "us");
  Metric("simsys.serving_us_per_arrival_full", full_s * 1e6 / arrivals, "us");
  Metric("simsys.serving_linearity", full_s / arrivals / quarter_s, "ratio");
  Metric("simsys.dispatches", r.dispatches, "count");
  Metric("simsys.degraded_dispatches", r.degraded_dispatches, "count");
  Metric("simsys.retries", r.retries, "count");
  Metric("simsys.retries_suppressed", r.retries_suppressed, "count");
  Metric("simsys.hedges_issued", r.hedges_issued, "count");
  Metric("simsys.hedges_won", r.hedges_won, "count");
  Metric("simsys.hedge_win_ratio",
         r.hedges_issued > 0 ? static_cast<double>(r.hedges_won) / r.hedges_issued : 0,
         "ratio");
  Metric("simsys.breaker_opens", r.breaker_opens, "count");
  Metric("simsys.dropped", r.dropped, "count");
  Metric("simsys.shed", r.shed_on_admission, "count");
  Metric("obs.recorder_overhead_pct", 100.0 * (recorded_s - plain_s) / plain_s, "%");
  Metric("obs.timeline_frames", static_cast<double>(frames), "count");
  {
    // Span tracing buffers every job's events, so it is measured at an
    // eighth of the horizon to bound its memory.
    const simsys::ServingConfig config = ServingConfigFor(serve_duration_s_ / 8);
    std::vector<double> untraced_s, traced_s;
    Scope s(spans_, "obs.tracer_compare");
    for (int i = 0; i < 3; ++i) {
      double host_s = 0;
      StatusOr<simsys::ServingResult> a = Simulate(config, &host_s, nullptr, nullptr);
      untraced_s.push_back(host_s);
      obs::SpanTracer tracer;
      StatusOr<simsys::ServingResult> b = Simulate(config, &host_s, nullptr, &tracer);
      traced_s.push_back(host_s);
      gate_.Check(a.ok() && b.ok() && a->p99_ms == b->p99_ms &&
                      a->completed == b->completed,
                  "a span tracer leaves the serving result unchanged");
    }
    Metric("obs.tracer_overhead_pct",
           100.0 * (Median(traced_s) - Median(untraced_s)) / Median(untraced_s), "%");
  }

  // models lifecycle: bundle I/O, one recorded epoch, observe replay.
  const std::string dir = work_dir_ + "/probe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string bundle = dir + "/bundle";
  std::vector<double> save_ms, load_ms;
  for (int i = 0; i < 3; ++i) {
    {
      Scope s(spans_, "models.bundle_save");
      const double t0 = NowS();
      const Status saved = models::ModelIo::SaveKw(*in_.serving_model, bundle);
      save_ms.push_back((NowS() - t0) * 1e3);
      gate_.Check(saved.ok(), "bundle save: " + saved.message());
    }
    {
      Scope s(spans_, "models.bundle_load");
      const double t0 = NowS();
      StatusOr<models::KwModel> loaded = models::ModelIo::LoadKw(bundle);
      load_ms.push_back((NowS() - t0) * 1e3);
      gate_.Check(loaded.ok(), "bundle load");
    }
  }
  Metric("models.bundle_save_ms", Median(save_ms), "ms");
  Metric("models.bundle_load_ms", Median(load_ms), "ms");

  const HealSpec& h = spec_.heal;
  const std::vector<const gpuexec::GpuSpec*> gpus = Gpus(h.pool);
  simsys::ServingMatrixBuffer buffer;
  std::vector<std::vector<double>> predicted;
  FillPredictedServingMatrix(*in_.serving_model, in_.heal_networks, gpus, kServeBatch,
                             buffer, predicted);
  simsys::ServingConfig epoch;
  epoch.arrival_rate_per_s = h.rate_per_s;
  epoch.duration_s = h.epoch_s;
  epoch.seed = kPoolSeed;
  epoch.record_observations = true;
  const std::vector<double> mix(in_.heal_networks.size(), 1.0);
  double epoch_s = 0;
  StatusOr<simsys::ServingResult> recorded_epoch(simsys::ServingResult{});
  {
    Scope s(spans_, "simsys.epoch");
    const double t0 = NowS();
    recorded_epoch = simsys::SimulateServing(in_.heal_truth, predicted, mix, epoch);
    epoch_s = NowS() - t0;
  }
  gate_.Check(recorded_epoch.ok(), "recorded epoch simulation");
  double epoch_us_per_arrival = 0, observe_mean_us = 0;
  if (recorded_epoch.ok()) {
    const simsys::ServingResult& e = *recorded_epoch;
    epoch_us_per_arrival =
        epoch_s * 1e6 / std::max(1, e.completed + e.dropped + e.shed_on_admission);
    models::BundleRegistry registry;
    models::CanaryOptions canary;
    canary.batch = kServeBatch;
    gate_.Check(registry.TryPromote(bundle, canary).ok(), "probe bundle promotes");
    models::LifecycleOptions options;
    options.work_dir = dir + "/heal";
    models::LifecycleController controller(&registry, bundle, canary, options);
    call_us.clear();
    Scope s(spans_, "models.observe_replay");
    for (const simsys::ServingObservation& o : e.observations) {
      const double t0 = NowS();
      controller.Observe(in_.heal_networks[o.job], h.pool[o.gpu], kServeBatch,
                         o.predicted_us, o.observed_us);
      call_us.push_back((NowS() - t0) * 1e6);
    }
    observe_mean_us = call_us.empty()
                          ? 0
                          : std::accumulate(call_us.begin(), call_us.end(), 0.0) /
                                static_cast<double>(call_us.size());
  }
  Metric("models.observe_us_p50", Percentile(call_us, 50), "us");
  Metric("models.observe_us_p99", Percentile(call_us, 99), "us");
  Metric("simsys.epoch_us_per_arrival", epoch_us_per_arrival, "us");
  // The loop's time not explained by serving and observing: bundle
  // saves, promotions, canaries, refits and matrix refreshes.
  const double explained_s =
      (epoch_us_per_arrival + observe_mean_us) * lifecycle_arrivals_ / 1e6;
  Metric("lifecycle.other_share",
         lifecycle_host_s_ > 0 ? 1.0 - explained_s / lifecycle_host_s_ : 0, "ratio");
  fs::remove_all(dir);
}

int Bench::Run() {
  Scope run(spans_, "run");
  Timed(&setup_t_, [&] { Setup(&in_, traced_); });
  MakeSweep();
  HealStage();
  // Cycles repeat every timed phase once, so each metric's samples are
  // spread over the whole run; a new cycle starts only if it is expected
  // to end within --seconds.
  const double start = NowS();
  int cycles = 0;
  while (true) {
    const bool first = cycles == 0;
    if (!first) {
      // Set-up is timed again each cycle, on inputs that are then dropped.
      Inputs again;
      Timed(&setup_t_, [&] { Setup(&again, false); });
    }
    ModelStage(first);
    ServeStage(first);
    ++cycles;
    const double elapsed = NowS() - start;
    if (traced_ || cycles >= 50) break;
    if (cycles >= spec_.min_cycles && elapsed * (cycles + 1) / cycles > seconds_) {
      break;
    }
  }
  if (traced_) LayerProbes();

  for (const auto& [name, v] : std::vector<std::pair<std::string, const Samples*>>{
           {"setup", &setup_t_}, {"campaign", &campaign_t_}, {"train", &train_t_},
           {"cold", &cold_t_}, {"warm", &warm_t_}, {"many_cold", &many_cold_t_},
           {"many_warm", &many_warm_t_}, {"sim", &sim_t_}}) {
    std::fprintf(stderr, "samples %s raw_s", name.c_str());
    for (double x : v->raw_s) std::fprintf(stderr, " %.4g", x);
    std::fprintf(stderr, " scaled_s");
    for (double x : v->scaled_s) std::fprintf(stderr, " %.4g", x);
    std::fprintf(stderr, "\n");
  }
  const ModelSpec& m = spec_.model;
  const double q = static_cast<double>(sweep_.size());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  E2e("setup_s", Median(setup_t_.scaled_s), "s");
  // The probe's ring stays resident for the whole run.
  E2e("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0 - probe_.resident_mb(),
      "MB");
  E2e("campaign_s", Median(campaign_t_.scaled_s), "s");
  E2e("train_s", Median(train_t_.scaled_s), "s");
  E2e("kw_mape_pct", kw_mape_pct_, "%");
  E2e("predict_cold_qps", q / Median(cold_t_.scaled_s), "1/s");
  E2e("predict_warm_qps", q * m.warm_passes / Median(warm_t_.scaled_s), "1/s");
  E2e("predict_many_cold_qps", q / Median(many_cold_t_.scaled_s), "1/s");
  E2e("predict_many_warm_qps", q * m.many_warm_passes / Median(many_warm_t_.scaled_s),
      "1/s");
  E2e("sim_arrivals_per_s", sim_arrivals_ / Median(sim_t_.scaled_s), "1/s");
  E2e("sim_p99_ms", sim_p99_ms_, "ms");
  E2e("sim_completed_pct", sim_completed_pct_, "%");
  E2e("heal_residual_pct", heal_residual_pct_, "%");
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  std::printf("cycles %d\n", cycles);
  std::printf("digest predictions %016llx\n",
              static_cast<unsigned long long>(predict_digest_.value()));
  std::printf("digest simulation %016llx\n",
              static_cast<unsigned long long>(sim_digest_.value()));
  std::printf("gate %lld %lld\n", gate_.attempted(), gate_.failed());
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x01021997: return "9p";
    case 0x6A656A63: return "virtiofs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void WriteSpans(const Spans& spans, const std::string& workload,
                const std::string& machine, const std::string& path) {
  std::ofstream out(path);
  out << "{\"machine\": " << machine << "}\n";
  const double origin = spans.spans().empty() ? 0 : spans.spans()[0].start_s;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Spans::Span& s = spans.spans()[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d, \"workload\": \"%s\"}\n",
                  i, JsonEscape(s.name).c_str(), s.start_s - origin,
                  s.end_s - origin, s.parent, JsonEscape(workload).c_str());
    out << buf;
  }
}

/** Per span name: total time, and self time not covered by child spans. */
void PrintSelfTime(const Spans& spans) {
  const std::vector<Spans::Span>& all = spans.spans();
  std::vector<double> child_s(all.size(), 0);
  for (const Spans::Span& s : all) {
    if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, std::pair<double, double>> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double total = all[i].end_s - all[i].start_s;
    by_name[all[i].name].first += total;
    by_name[all[i].name].second += total - child_s[i];
  }
  for (const auto& [name, t] : by_name) {
    std::printf("selftime %s %.6f %.6f %.1f\n", name.c_str(), t.first,
                t.second, t.first > 0 ? 100.0 * t.second / t.first : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args = {
      {"workload", ""}, {"seed", "1"}, {"seconds", "10"}, {"trace", "0"},
      {"work-dir", ".bench_build/work"}, {"size", "full"}, {"spans-out", ""}};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || args.count(key.substr(2)) == 0) {
      std::fprintf(stderr, "perfbench_driver: unknown flag %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  Spec spec;
  if (!MakeSpec(args["workload"], args["size"] == "tiny", &spec)) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 args["workload"].c_str());
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool optimized = build_type == "Release";
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to report timings from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }
  const std::string work_dir = args["work-dir"] + "/" + spec.name + "-" +
                               std::to_string(static_cast<long>(getpid()));
  fs::create_directories(work_dir);
  char machine[1024];
  std::snprintf(
      machine, sizeof(machine),
      "{\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"bundle_fs\": \"%s\"}",
      sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
      JsonEscape(PERFBENCH_COMPILER).c_str(), build_type.c_str(),
      FilesystemOf(work_dir).c_str());
  std::printf("machine %s\n", machine);
  const bool traced = args["trace"] == "1";
  Bench bench(spec, args["size"] == "tiny", std::stoull(args["seed"]), std::stod(args["seconds"]),
              traced, work_dir);
  const int rc = bench.Run();
  if (traced) {
    PrintSelfTime(bench.spans());
    if (!args["spans-out"].empty()) {
      WriteSpans(bench.spans(), spec.name, machine, args["spans-out"]);
    }
  }
  fs::remove_all(work_dir);
  return rc;
}
