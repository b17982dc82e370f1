#include "models/model_io.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "test_support.h"
#include "zoo/zoo.h"

namespace gpuperf::models {
namespace {

using testing::SmallCampaign;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GP_CHECK(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GP_CHECK(out.good()) << path;
  out << content;
}

std::vector<std::string> Lines(const std::string& content) {
  std::vector<std::string> lines = Split(content, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

std::string Unlines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/** Replaces comma-field `index` of line `line_no` (0 = header). */
void SetField(std::vector<std::string>* lines, std::size_t line_no,
              std::size_t index, const std::string& value) {
  std::vector<std::string> fields = Split((*lines)[line_no], ',');
  GP_CHECK_LT(index, fields.size());
  fields[index] = value;
  (*lines)[line_no] = Join(fields, ",");
}

/**
 * Rewrites manifest.csv to match the current on-disk bundle files, so a
 * corruption test can reach the *field validation* layer instead of
 * stopping at the checksum gate.
 */
void Remanifest(const std::string& dir) {
  std::ofstream out(dir + "/manifest.csv", std::ios::trunc);
  out << "bundle_version,file,checksum,rows\n";
  for (const char* file :
       {"kernel_models.csv", "mapping_table.csv", "calibration.csv",
        "layer_fallback.csv"}) {
    const std::string content = ReadAll(dir + "/" + file);
    out << Format("%d,%s,%016llx,%zu\n", kKwBundleVersion, file,
                  static_cast<unsigned long long>(StableHash(content)),
                  Lines(content).size() - 1);
  }
}

/** A pristine saved bundle, trained once per process. */
const std::string& GoldenBundle() {
  static const std::string* const kDir = [] {
    // Pid-suffixed: ctest runs each case as its own process, and two
    // processes sharing one golden dir would race remove_all/reads.
    auto* dir = new std::string(
        (std::filesystem::temp_directory_path() /
         Format("gpuperf_model_io_golden_%d", static_cast<int>(getpid())))
            .string());
    std::filesystem::remove_all(*dir);
    std::filesystem::create_directories(*dir);
    KwModel model;
    model.Train(SmallCampaign::Get().data(), SmallCampaign::Get().split());
    GP_CHECK(ModelIo::SaveKw(model, *dir).ok());
    return dir;
  }();
  return *kDir;
}

/** Copies the golden bundle into a scratch directory. */
std::string ScratchBundle(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       Format("gpuperf_corrupt_%s_%d", tag.c_str(),
              static_cast<int>(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& entry :
       std::filesystem::directory_iterator(GoldenBundle())) {
    std::filesystem::copy(entry.path(), dir + "/" +
                                            entry.path().filename().string());
  }
  return dir;
}

/** Edits one bundle file in place and re-manifests. */
void EditFile(const std::string& dir, const std::string& file,
              const std::function<void(std::vector<std::string>*)>& edit) {
  std::vector<std::string> lines = Lines(ReadAll(dir + "/" + file));
  edit(&lines);
  WriteAll(dir + "/" + file, Unlines(lines));
  Remanifest(dir);
}

TEST(ModelIoTest, SaveLoadRoundTripPreservesPredictions) {
  KwModel original;
  original.Train(SmallCampaign::Get().data(), SmallCampaign::Get().split());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_model_io").string();
  ASSERT_TRUE(ModelIo::SaveKw(original, dir).ok());
  KwModel loaded = ModelIo::LoadKw(dir).value();

  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  for (const char* name : {"resnet50", "vgg16_bn", "mobilenet_v2",
                           "densenet121", "googlenet"}) {
    dnn::Network net = zoo::BuildByName(name);
    EXPECT_NEAR(loaded.PredictUs(net, a100, 256),
                original.PredictUs(net, a100, 256),
                1e-6 * original.PredictUs(net, a100, 256))
        << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(ModelIoTest, RoundTripPreservesKernelModels) {
  KwModel original;
  original.Train(SmallCampaign::Get().data(), SmallCampaign::Get().split());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_model_io2")
          .string();
  ASSERT_TRUE(ModelIo::SaveKw(original, dir).ok());
  KwModel loaded = ModelIo::LoadKw(dir).value();

  const auto& original_kernels = original.KernelModels("A40");
  const auto& loaded_kernels = loaded.KernelModels("A40");
  ASSERT_EQ(loaded_kernels.size(), original_kernels.size());
  for (const auto& [name, km] : original_kernels) {
    auto it = loaded_kernels.find(name);
    ASSERT_NE(it, loaded_kernels.end()) << name;
    EXPECT_EQ(it->second.driver, km.driver) << name;
    EXPECT_NEAR(it->second.fit.slope, km.fit.slope,
                1e-9 * std::abs(km.fit.slope) + 1e-18);
    EXPECT_NEAR(it->second.fit.intercept, km.fit.intercept, 1e-6);
    EXPECT_EQ(it->second.cluster_id, km.cluster_id);
  }
  EXPECT_EQ(loaded.MappingTable().size(), original.MappingTable().size());
  std::filesystem::remove_all(dir);
}

TEST(ModelIoTest, LoadFromMissingDirectoryIsRecoverable) {
  StatusOr<KwModel> loaded = ModelIo::LoadKw("/nonexistent/model/dir");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("not a model bundle"),
            std::string::npos)
      << loaded.status().message();
}

TEST(ModelIoTest, ManifestIsWrittenLast) {
  // An interrupted save (no manifest yet) must never validate.
  const std::string dir = ScratchBundle("no_manifest");
  std::filesystem::remove(dir + "/manifest.csv");
  EXPECT_FALSE(ModelIo::LoadKw(dir).ok());
  std::filesystem::remove_all(dir);
}

/** One corruption mode of the matrix. */
struct Corruption {
  const char* tag;                          // scratch-dir suffix
  std::function<void(const std::string&)> apply;  // mutates the bundle
  const char* expected_substring;           // must appear in the message
};

TEST(ModelIoCorruptionMatrixTest, EveryCorruptionIsANonOkStatus) {
  const std::vector<Corruption> corruptions = {
      {"deleted_file",
       [](const std::string& dir) {
         std::filesystem::remove(dir + "/kernel_models.csv");
       },
       "kernel_models.csv"},
      {"truncated_file",
       [](const std::string& dir) {
         // Drop the last line without fixing the manifest: checksum gate.
         std::vector<std::string> lines =
             Lines(ReadAll(dir + "/kernel_models.csv"));
         lines.pop_back();
         WriteAll(dir + "/kernel_models.csv", Unlines(lines));
       },
       "checksum mismatch"},
      {"row_count_drift",
       [](const std::string& dir) {
         // Manifest row count lies while the checksum entry is patched to
         // match the file: the row-count gate must catch it.
         std::vector<std::string> lines = Lines(ReadAll(dir + "/manifest.csv"));
         SetField(&lines, 1, 3, "99999");
         WriteAll(dir + "/manifest.csv", Unlines(lines));
       },
       "manifest says"},
      {"unsupported_version",
       [](const std::string& dir) {
         std::vector<std::string> lines = Lines(ReadAll(dir + "/manifest.csv"));
         for (std::size_t i = 1; i < lines.size(); ++i) {
           SetField(&lines, i, 0, "99");
         }
         WriteAll(dir + "/manifest.csv", Unlines(lines));
       },
       "version 99 is not supported"},
      {"manifest_missing_entry",
       [](const std::string& dir) {
         std::vector<std::string> lines = Lines(ReadAll(dir + "/manifest.csv"));
         lines.erase(lines.begin() + 1);  // drop kernel_models.csv entry
         WriteAll(dir + "/manifest.csv", Unlines(lines));
       },
       "no entry"},
      {"non_finite_slope",
       [](const std::string& dir) {
         EditFile(dir, "kernel_models.csv", [](std::vector<std::string>* l) {
           SetField(l, 1, 3, "inf");
         });
       },
       "slope"},
      {"non_numeric_field",
       [](const std::string& dir) {
         EditFile(dir, "kernel_models.csv", [](std::vector<std::string>* l) {
           SetField(l, 1, 5, "banana");
         });
       },
       "cluster_id"},
      {"negative_cluster_id",
       [](const std::string& dir) {
         EditFile(dir, "kernel_models.csv", [](std::vector<std::string>* l) {
           SetField(l, 1, 5, "-1");
         });
       },
       "cluster id -1 must be non-negative"},
      {"unknown_driver",
       [](const std::string& dir) {
         EditFile(dir, "kernel_models.csv", [](std::vector<std::string>* l) {
           SetField(l, 1, 2, "vibes");
         });
       },
       "not a cost driver"},
      {"duplicate_kernel_row",
       [](const std::string& dir) {
         EditFile(dir, "kernel_models.csv", [](std::vector<std::string>* l) {
           l->push_back((*l)[1]);
         });
       },
       "duplicate kernel model"},
      {"missing_column",
       [](const std::string& dir) {
         EditFile(dir, "kernel_models.csv", [](std::vector<std::string>* l) {
           SetField(l, 0, 3, "slopeX");
         });
       },
       "missing column 'slope'"},
      {"ragged_row",
       [](const std::string& dir) {
         EditFile(dir, "kernel_models.csv", [](std::vector<std::string>* l) {
           (*l)[1] += ",extra";
         });
       },
       "fields"},
      {"duplicate_mapping_key",
       [](const std::string& dir) {
         EditFile(dir, "mapping_table.csv", [](std::vector<std::string>* l) {
           l->push_back((*l)[1]);
         });
       },
       "duplicate mapping-table key"},
      {"empty_kernel_list",
       [](const std::string& dir) {
         EditFile(dir, "mapping_table.csv", [](std::vector<std::string>* l) {
           SetField(l, 1, 1, "");
         });
       },
       "empty kernel list"},
      {"non_positive_calibration",
       [](const std::string& dir) {
         EditFile(dir, "calibration.csv", [](std::vector<std::string>* l) {
           SetField(l, 1, 1, "-0.5");
         });
       },
       "must be positive"},
      {"duplicate_calibration_gpu",
       [](const std::string& dir) {
         EditFile(dir, "calibration.csv", [](std::vector<std::string>* l) {
           l->push_back((*l)[1]);
         });
       },
       "duplicate calibration row"},
      {"unknown_layer_kind",
       [](const std::string& dir) {
         EditFile(dir, "layer_fallback.csv", [](std::vector<std::string>* l) {
           SetField(l, 1, 1, "Blursed");
         });
       },
       "not a layer kind"},
      {"missing_fallback_rows",
       [](const std::string& dir) {
         EditFile(dir, "layer_fallback.csv", [](std::vector<std::string>* l) {
           // Keep only the header: no GPU can degrade to the LW tier.
           l->resize(1);
         });
       },
       "no fallback rows"},
  };

  ASSERT_GE(corruptions.size(), 10u);
  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE(corruption.tag);
    const std::string dir = ScratchBundle(corruption.tag);
    corruption.apply(dir);
    // The load must fail with a Status — never abort the process.
    StatusOr<KwModel> loaded = ModelIo::LoadKw(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find(corruption.expected_substring),
              std::string::npos)
        << corruption.tag << ": " << loaded.status().message();
    std::filesystem::remove_all(dir);
  }
}

// --- Seeded randomized-corruption sweep ("mini-fuzz"). The handcrafted
// matrix above checks one known failure per validation layer; the sweep
// below checks the *unknown* ones: any byte- or field-level mutation of
// a saved bundle, without patching the manifest, must surface as a
// Status — never a crash, never an accepted load (the checksum gate
// guarantees a mutated file can't validate). Seeded Rng keeps every run
// identical, so a failure is a repro, not a flake.

constexpr const char* kBundleFiles[] = {
    "kernel_models.csv", "mapping_table.csv", "calibration.csv",
    "layer_fallback.csv"};

TEST(ModelIoFuzzTest, RandomByteMutationsAlwaysYieldAStatus) {
  Rng rng(0xB0B5'0001);
  for (int trial = 0; trial < 64; ++trial) {
    SCOPED_TRACE(Format("byte trial %d", trial));
    const std::string dir = ScratchBundle("fuzz_byte");
    const char* file = kBundleFiles[rng.NextBelow(4)];
    std::string content = ReadAll(dir + "/" + file);
    ASSERT_FALSE(content.empty());
    // 1-4 independent byte mutations: flip, overwrite, or truncate.
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits && !content.empty(); ++e) {
      const std::size_t pos = rng.NextBelow(content.size());
      switch (rng.NextBelow(3)) {
        case 0:
          content[pos] = static_cast<char>(content[pos] ^
                                           (1 << rng.NextBelow(8)));
          break;
        case 1:
          content[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        default:
          content.resize(pos);
          break;
      }
    }
    WriteAll(dir + "/" + file, content);
    if (content != ReadAll(GoldenBundle() + "/" + file)) {
      StatusOr<KwModel> loaded = ModelIo::LoadKw(dir);
      EXPECT_FALSE(loaded.ok()) << file << " mutated but load succeeded";
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(ModelIoFuzzTest, RandomFieldMutationsAlwaysYieldAStatus) {
  Rng rng(0xB0B5'0002);
  const std::vector<std::string> junk = {"",      "nan",  "-inf", "1e999",
                                         "banana", "-1",   "  ",   "0x12",
                                         "1,2",    "\"q\""};
  for (int trial = 0; trial < 64; ++trial) {
    SCOPED_TRACE(Format("field trial %d", trial));
    const std::string dir = ScratchBundle("fuzz_field");
    const char* file = kBundleFiles[rng.NextBelow(4)];
    std::vector<std::string> lines = Lines(ReadAll(dir + "/" + file));
    ASSERT_GE(lines.size(), 2u);
    const std::size_t line = rng.NextBelow(lines.size());
    const std::vector<std::string> fields = Split(lines[line], ',');
    const std::size_t index = rng.NextBelow(fields.size());
    const std::string& value = junk[rng.NextBelow(junk.size())];
    if (fields[index] == value) {
      std::filesystem::remove_all(dir);
      continue;
    }
    SetField(&lines, line, index, value);
    // No Remanifest(): an on-disk mutation the manifest doesn't bless is
    // exactly what a partial write or bit rot produces.
    WriteAll(dir + "/" + file, Unlines(lines));
    StatusOr<KwModel> loaded = ModelIo::LoadKw(dir);
    EXPECT_FALSE(loaded.ok())
        << file << " line " << line << " field " << index << " <- '"
        << value << "' was accepted";
    std::filesystem::remove_all(dir);
  }
}

TEST(ModelIoTest, RemanifestedUntouchedBundleStillLoads) {
  // Sanity-check the corruption harness itself: re-manifesting without
  // edits must keep the bundle loadable (checksums recompute correctly).
  const std::string dir = ScratchBundle("sanity");
  Remanifest(dir);
  EXPECT_TRUE(ModelIo::LoadKw(dir).ok());
  std::filesystem::remove_all(dir);
}

// --- Crash-point injection harness. SaveKw() stages the bundle into
// `<dir>.saving` (manifest last) and commits with renames through
// `<dir>.stale`; the tests below materialize the exact on-disk state a
// crash would leave at EVERY byte boundary of every staged file and at
// every rename stage, then assert LoadKwRecovering() yields exactly the
// old or the new generation — never a hybrid, never an abort.

/**
 * Loads a tiny, hand-crafted, valid single-kernel bundle. The crash
 * sweep visits every byte boundary of every planned file, so the
 * generations must be small — crash consistency is structural, not
 * model-size dependent.
 */
KwModel TinyModel(double slope) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       Format("gpuperf_tiny_%d_%g", static_cast<int>(getpid()), slope))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  WriteAll(dir + "/kernel_models.csv",
           "gpu,kernel,driver,slope,intercept,cluster_id,solo_r2\n" +
               Format("A100,k1,input,%g,0.5,0,0.9\n", slope));
  WriteAll(dir + "/mapping_table.csv", "signature,kernels\nsig1,k1\n");
  WriteAll(dir + "/calibration.csv", "gpu,factor\nA100,1.25\n");
  WriteAll(dir + "/layer_fallback.csv",
           "gpu,layer_kind,slope,intercept\nA100,CONV,1,0\n");
  Remanifest(dir);
  KwModel model = ModelIo::LoadKw(dir).value();
  std::filesystem::remove_all(dir);
  return model;
}

/** Two distinguishable generations plus their write plans. */
struct Generations {
  KwModel old_model;
  KwModel new_model;
  std::vector<BundleFilePlan> old_plan;
  std::vector<BundleFilePlan> new_plan;
};

const Generations& TwoGenerations() {
  static const Generations* const kGen = [] {
    auto* g = new Generations;
    g->old_model = TinyModel(2.0);
    g->new_model = TinyModel(3.0);
    g->old_plan = ModelIo::PlanKwSave(g->old_model);
    g->new_plan = ModelIo::PlanKwSave(g->new_model);
    return g;
  }();
  return *kGen;
}

bool SamePlan(const std::vector<BundleFilePlan>& a,
              const std::vector<BundleFilePlan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].content != b[i].content) return false;
  }
  return true;
}

enum class Gen { kOld, kNew, kNeither };

/** Which generation `model` is, by byte-identical re-serialization. */
Gen Identify(const KwModel& model) {
  const std::vector<BundleFilePlan> plan = ModelIo::PlanKwSave(model);
  if (SamePlan(plan, TwoGenerations().old_plan)) return Gen::kOld;
  if (SamePlan(plan, TwoGenerations().new_plan)) return Gen::kNew;
  return Gen::kNeither;
}

/**
 * Materializes a crashed staging write into `dir`: plan files before
 * `full` are complete, file `full` is cut to its first `bytes` bytes,
 * and later files were never started.
 */
void MaterializeTruncated(const std::string& dir,
                          const std::vector<BundleFilePlan>& plan,
                          std::size_t full, std::size_t bytes) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (std::size_t i = 0; i < full && i < plan.size(); ++i) {
    WriteAll(dir + "/" + plan[i].name, plan[i].content);
  }
  if (full < plan.size()) {
    WriteAll(dir + "/" + plan[full].name, plan[full].content.substr(0, bytes));
  }
}

void MaterializeFull(const std::string& dir,
                     const std::vector<BundleFilePlan>& plan) {
  MaterializeTruncated(dir, plan, plan.size(), 0);
}

TEST(ModelIoCrashTest, GenerationsAreDistinguishable) {
  const Generations& gen = TwoGenerations();
  ASSERT_FALSE(SamePlan(gen.old_plan, gen.new_plan));
  EXPECT_EQ(Identify(gen.old_model), Gen::kOld);
  EXPECT_EQ(Identify(gen.new_model), Gen::kNew);
}

TEST(ModelIoCrashTest, PlanWritesManifestLastAndMatchesSavedBundle) {
  const Generations& gen = TwoGenerations();
  ASSERT_EQ(gen.old_plan.size(), 5u);
  EXPECT_EQ(gen.old_plan.back().name, "manifest.csv");
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_plan_match")
          .string();
  ASSERT_TRUE(ModelIo::SaveKw(gen.old_model, dir).ok());
  for (const BundleFilePlan& file : gen.old_plan) {
    EXPECT_EQ(ReadAll(dir + "/" + file.name), file.content) << file.name;
  }
  std::filesystem::remove_all(dir);
}

TEST(ModelIoCrashTest, SaveOverExistingBundleCommitsAndLeavesNoSidecars) {
  const Generations& gen = TwoGenerations();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_crash_overwrite")
          .string();
  ASSERT_TRUE(ModelIo::SaveKw(gen.old_model, dir).ok());
  ASSERT_TRUE(ModelIo::SaveKw(gen.new_model, dir).ok());
  EXPECT_EQ(Identify(ModelIo::LoadKw(dir).value()), Gen::kNew);
  EXPECT_FALSE(std::filesystem::exists(dir + kBundleSavingSuffix));
  EXPECT_FALSE(std::filesystem::exists(dir + kBundleStaleSuffix));
  std::filesystem::remove_all(dir);
}

TEST(ModelIoCrashTest, CrashAtEveryByteOfEveryStagedFileKeepsOldGeneration) {
  const Generations& gen = TwoGenerations();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_crash_bytes")
          .string();
  // The committed old generation; staging crashes must never damage it.
  std::filesystem::remove_all(dir);
  MaterializeFull(dir, gen.old_plan);
  int states = 0;
  for (std::size_t f = 0; f < gen.new_plan.size(); ++f) {
    for (std::size_t b = 0; b <= gen.new_plan[f].content.size(); ++b) {
      MaterializeTruncated(dir + kBundleSavingSuffix, gen.new_plan, f, b);
      StatusOr<KwModel> recovered = ModelIo::LoadKwRecovering(dir);
      ASSERT_TRUE(recovered.ok())
          << "file " << f << " byte " << b << ": "
          << recovered.status().ToString();
      ASSERT_EQ(Identify(*recovered), Gen::kOld)
          << "file " << f << " byte " << b
          << ": recovery produced a hybrid or the uncommitted generation";
      ASSERT_FALSE(std::filesystem::exists(dir + kBundleSavingSuffix));
      ++states;
    }
  }
  // A fully-staged-but-unswapped save also resolves to the committed old
  // generation (the swap never began, so the save never happened).
  MaterializeFull(dir + kBundleSavingSuffix, gen.new_plan);
  StatusOr<KwModel> recovered = ModelIo::LoadKwRecovering(dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Identify(*recovered), Gen::kOld);
  EXPECT_FALSE(std::filesystem::exists(dir + kBundleSavingSuffix));
  // Non-vacuity: the sweep covered every byte boundary of every file.
  std::size_t total = 0;
  for (const BundleFilePlan& file : gen.new_plan) {
    total += file.content.size() + 1;
  }
  EXPECT_EQ(states, static_cast<int>(total));
  std::filesystem::remove_all(dir);
}

TEST(ModelIoCrashTest,
     CrashDuringRestagingAfterMidSwapCrashRestoresOldGeneration) {
  // A save crashed between rename(dir -> stale) and rename(staging ->
  // dir); a SECOND save then started, cleared the staging dir, and
  // crashed mid-write at every byte boundary. Only `.stale` holds a
  // complete generation — recovery must unwind to it.
  const Generations& gen = TwoGenerations();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_crash_restage")
          .string();
  std::filesystem::remove_all(dir);
  for (std::size_t f = 0; f < gen.new_plan.size(); ++f) {
    const std::size_t size = gen.new_plan[f].content.size();
    // Truncation points: empty, one byte, midpoint, all-but-one.
    for (std::size_t b : std::vector<std::size_t>{
             0, 1, size / 2, size > 0 ? size - 1 : 0}) {
      MaterializeFull(dir + kBundleStaleSuffix, gen.old_plan);
      MaterializeTruncated(dir + kBundleSavingSuffix, gen.new_plan, f, b);
      StatusOr<KwModel> recovered = ModelIo::LoadKwRecovering(dir);
      ASSERT_TRUE(recovered.ok())
          << "file " << f << " byte " << b << ": "
          << recovered.status().ToString();
      // Either generation may win (a staging dir truncated by only its
      // trailing newline still validates as the complete new bundle) —
      // but the result must be exactly one of them, never a hybrid.
      const Gen outcome = Identify(*recovered);
      ASSERT_NE(outcome, Gen::kNeither)
          << "file " << f << " byte " << b << ": recovery built a hybrid";
      // The recovery re-commits that same generation in place.
      EXPECT_EQ(Identify(ModelIo::LoadKw(dir).value()), outcome);
      ASSERT_FALSE(std::filesystem::exists(dir + kBundleSavingSuffix));
      ASSERT_FALSE(std::filesystem::exists(dir + kBundleStaleSuffix));
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(ModelIoCrashTest, EveryRenameStageCrashResolvesToExactlyOneGeneration) {
  const Generations& gen = TwoGenerations();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_crash_rename")
          .string();
  const std::string staging = dir + kBundleSavingSuffix;
  const std::string stale = dir + kBundleStaleSuffix;

  // Stage A — crash after rename(dir -> stale), before rename(staging ->
  // dir): no committed dir, staging complete. Recovery finishes the swap:
  // the NEW generation commits and the displaced old copy is dropped.
  std::filesystem::remove_all(dir);
  MaterializeFull(stale, gen.old_plan);
  MaterializeFull(staging, gen.new_plan);
  StatusOr<KwModel> recovered = ModelIo::LoadKwRecovering(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Identify(*recovered), Gen::kNew);
  EXPECT_EQ(Identify(ModelIo::LoadKw(dir).value()), Gen::kNew);
  EXPECT_FALSE(std::filesystem::exists(staging));
  EXPECT_FALSE(std::filesystem::exists(stale));

  // Stage B — crash after rename(staging -> dir), before remove(stale):
  // the new generation is committed; recovery only sweeps the leftover.
  std::filesystem::remove_all(dir);
  MaterializeFull(dir, gen.new_plan);
  MaterializeFull(stale, gen.old_plan);
  recovered = ModelIo::LoadKwRecovering(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Identify(*recovered), Gen::kNew);
  EXPECT_FALSE(std::filesystem::exists(stale));

  // Stage C — first-ever save (nothing to displace) crashed mid-staging:
  // there is no generation anywhere, and recovery must say so instead of
  // fabricating one.
  std::filesystem::remove_all(dir);
  MaterializeTruncated(staging, gen.new_plan, 2, 4);
  StatusOr<KwModel> nothing = ModelIo::LoadKwRecovering(dir);
  ASSERT_FALSE(nothing.ok());
  EXPECT_NE(nothing.status().message().find("no recoverable generation"),
            std::string::npos)
      << nothing.status().message();

  // Stage D — first-ever save fully staged, crash before the commit
  // rename: the staged generation is the only one; recovery commits it.
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(staging);
  MaterializeFull(staging, gen.new_plan);
  recovered = ModelIo::LoadKwRecovering(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Identify(*recovered), Gen::kNew);
  EXPECT_EQ(Identify(ModelIo::LoadKw(dir).value()), Gen::kNew);
  EXPECT_FALSE(std::filesystem::exists(staging));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gpuperf::models
