// Binary model container (src/io/container.h, docs/FORMAT.md): structural
// validation on Open, CRC-gated section loads, the required-vs-advisory
// damage policy, the mmap-failure heap fallback, byte-exact round trips,
// and the ModelManager rollback guarantee when a reload candidate is a
// damaged container.
//
// The corruption tests all work the same way: take the known-good file
// image, flip or patch specific bytes (re-sealing the header CRC when the
// corruption is *supposed* to get past the structural check), write the
// mutant to its own temp path, and assert the precise failure mode.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/metrics.h"
#include "core/model_manager.h"
#include "core/stmaker.h"
#include "io/container.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/trajectory_io.h"
#include "landmark/poi_generator.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::FlipSectionByte;
using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::LoadContainerModel;
using ::stmaker::testing::TestWorld;

std::string TempPrefix(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- byte-surgery helpers ---------------------------------------------------

ContainerHeader HeaderOf(const std::string& bytes) {
  ContainerHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  return header;
}

/// Re-seals the header CRC after a deliberate header/table patch, so the
/// mutation under test (and only it) is what the reader trips over.
void ResealHeaderCrc(std::string* bytes) {
  ContainerHeader header = HeaderOf(*bytes);
  header.header_crc32 = 0;
  uint32_t crc =
      Crc32(std::string_view(reinterpret_cast<const char*>(&header),
                             sizeof(header)));
  crc = Crc32(std::string_view(
                  bytes->data() + sizeof(ContainerHeader),
                  header.section_count * sizeof(SectionEntry)),
              crc);
  std::memcpy(bytes->data() + offsetof(ContainerHeader, header_crc32), &crc,
              sizeof(crc));
}

std::string MutatedCopy(const std::string& good_path, const std::string& name,
                        void (*mutate)(std::string*)) {
  Result<std::string> bytes = ReadFileToString(good_path);
  STMAKER_CHECK(bytes.ok());
  mutate(&*bytes);
  const std::string path = TempPrefix(name);
  STMAKER_CHECK(WriteFileToPath(path, *bytes).ok());
  return path;
}

// --- shared fixture world ---------------------------------------------------

/// One CSV data dir + a trained model container, built once per test
/// binary. The model is trained on the world read *back from CSV*, exactly
/// as `stmaker_cli train` does; the container stores that world's raw
/// doubles.
struct ContainerWorld {
  std::string dir;             ///< gen-style data dir (world CSVs).
  RoadNetwork* network;        ///< CSV-roundtripped network (lives forever).
  LandmarkIndex* landmarks;    ///< With trained significances.
  std::vector<RawTrajectory> raws;
  STMaker* maker;              ///< Trained, with hierarchy + trip index.
  std::string container_path;  ///< SaveModelContainer output.
};

const ContainerWorld& GetContainerWorld() {
  static const ContainerWorld& cw = *[] {
    const TestWorld& world = GetTestWorld();
    auto* c = new ContainerWorld();
    c->dir = ::testing::TempDir() + "/container_world";
    ::mkdir(c->dir.c_str(), 0755);  // EEXIST from a previous run is fine
    STMAKER_CHECK(
        WriteRoadNetworkCsv(c->dir + "/network", world.city.network).ok());
    PoiGeneratorOptions poi_options;
    poi_options.num_sites = 250;
    std::vector<RawPoi> pois =
        PoiGenerator(poi_options).Generate(world.city.network);
    STMAKER_CHECK(WritePoisCsv(c->dir + "/pois.csv", pois).ok());
    c->raws.reserve(world.history.size());
    for (const auto& trip : world.history) c->raws.push_back(trip.raw);
    STMAKER_CHECK(
        WriteTrajectoriesCsv(c->dir + "/trajectories.csv", c->raws).ok());

    Result<RoadNetwork> network = ReadRoadNetworkCsv(c->dir + "/network");
    STMAKER_CHECK(network.ok());
    c->network = new RoadNetwork(std::move(*network));
    Result<std::vector<RawPoi>> loaded_pois = ReadPoisCsv(c->dir + "/pois.csv");
    STMAKER_CHECK(loaded_pois.ok());
    c->landmarks =
        new LandmarkIndex(LandmarkIndex::Build(*c->network, *loaded_pois));
    c->maker =
        new STMaker(c->network, c->landmarks, FeatureRegistry::BuiltIn());
    STMAKER_CHECK(c->maker->Train(c->raws).ok());
    STMAKER_CHECK(c->maker->BuildRoadHierarchy().ok());
    c->container_path = c->dir + "/model.stm";
    STMAKER_CHECK(c->maker->SaveModelContainer(c->container_path).ok());
    return c;
  }();
  return cw;
}

class ContainerTest : public ::testing::Test {
 protected:
  ContainerTest() : cw_(GetContainerWorld()) {}

  /// A copy of the fixture container with one payload byte flipped in the
  /// first section of `type`; the section CRC in the table is left as-is,
  /// which is the torn-write / bit-rot case per-section CRCs exist for.
  std::string FlippedCopy(const std::string& name, SectionType type) const {
    const std::string path = TempPrefix(name);
    STMAKER_CHECK(FlipSectionByte(cw_.container_path, path, type).ok());
    return path;
  }

  const ContainerWorld& cw_;
};

// --- round trips and golden parity ------------------------------------------

TEST_F(ContainerTest, SaveIsDeterministicAndLoadSaveIsIdentity) {
  // Identical model state -> byte-identical file, twice over: a second
  // save of the same maker, and a save of a container-loaded maker, must
  // both reproduce the original image exactly.
  Result<std::string> original = ReadFileToString(cw_.container_path);
  ASSERT_TRUE(original.ok());

  const std::string again = TempPrefix("container_again.stm");
  ASSERT_TRUE(cw_.maker->SaveModelContainer(again).ok());
  Result<std::string> again_bytes = ReadFileToString(again);
  ASSERT_TRUE(again_bytes.ok());
  EXPECT_TRUE(*original == *again_bytes) << "re-save is not deterministic";

  auto loaded = LoadContainerModel(cw_.container_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string resaved = TempPrefix("container_resaved.stm");
  ASSERT_TRUE((*loaded)->maker->SaveModelContainer(resaved).ok());
  Result<std::string> resaved_bytes = ReadFileToString(resaved);
  ASSERT_TRUE(resaved_bytes.ok());
  EXPECT_TRUE(*original == *resaved_bytes)
      << "load -> save did not reproduce the container";
}

TEST_F(ContainerTest, TrainedAndContainerLoadedModelsSummarizeIdentically) {
  // Golden parity across the save/load boundary *and* thread counts: the
  // in-process trained model and the container-loaded model at 1 and 4
  // threads must produce byte-identical summaries over the corpus.
  auto ctr1 = LoadContainerModel(cw_.container_path, 1);
  ASSERT_TRUE(ctr1.ok()) << ctr1.status().ToString();
  auto ctr4 = LoadContainerModel(cw_.container_path, 4);
  ASSERT_TRUE(ctr4.ok()) << ctr4.status().ToString();
  EXPECT_TRUE((*ctr1)->maker->has_road_hierarchy());
  EXPECT_TRUE((*ctr1)->maker->has_trajectory_index());
  EXPECT_EQ((*ctr1)->maker->num_trained(), cw_.maker->num_trained());

  std::span<const RawTrajectory> batch(cw_.raws.data(),
                                       std::min<size_t>(cw_.raws.size(), 40));
  std::vector<Result<Summary>> expect = cw_.maker->SummarizeBatch(batch);
  std::vector<Result<Summary>> got1 = (*ctr1)->maker->SummarizeBatch(batch);
  std::vector<Result<Summary>> got4 = (*ctr4)->maker->SummarizeBatch(batch);
  ASSERT_EQ(expect.size(), got1.size());
  ASSERT_EQ(expect.size(), got4.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i].ok(), got1[i].ok()) << "trip " << i;
    ASSERT_EQ(expect[i].ok(), got4[i].ok()) << "trip " << i;
    if (!expect[i].ok()) continue;
    EXPECT_EQ(expect[i]->text, got1[i]->text) << "trip " << i;
    EXPECT_EQ(expect[i]->text, got4[i]->text) << "trip " << i;
  }
}

// --- structural rejection (Open) --------------------------------------------

TEST_F(ContainerTest, OpenRejectsBadMagic) {
  const std::string path = MutatedCopy(
      cw_.container_path, "container_badmagic.stm",
      [](std::string* bytes) { (*bytes)[0] = 'X'; });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("bad magic (want \"STMKCTR1\")"),
            std::string::npos)
      << opened.status().ToString();
}

TEST_F(ContainerTest, OpenRejectsNewerFormatVersion) {
  // Version skew: a file written by a future format must be refused
  // outright (kFailedPrecondition), not half-read. The header CRC is
  // re-sealed so the version check itself is what fires.
  const std::string path = MutatedCopy(
      cw_.container_path, "container_futurever.stm", [](std::string* bytes) {
        const uint32_t future = kContainerFormatVersion + 1;
        std::memcpy(bytes->data() + offsetof(ContainerHeader, format_version),
                    &future, sizeof(future));
        ResealHeaderCrc(bytes);
      });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition)
      << opened.status().ToString();
}

TEST_F(ContainerTest, OpenRejectsTruncatedFile) {
  Result<std::string> bytes = ReadFileToString(cw_.container_path);
  ASSERT_TRUE(bytes.ok());
  const std::string path = TempPrefix("container_truncated.stm");
  ASSERT_TRUE(
      WriteFileToPath(path, bytes->substr(0, bytes->size() - 128)).ok());
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();
}

TEST_F(ContainerTest, OpenRejectsHeaderTableCorruption) {
  // A flipped byte inside the section table (CRC *not* re-sealed) must be
  // caught by the header CRC before any entry is trusted.
  const std::string path = MutatedCopy(
      cw_.container_path, "container_tornheader.stm", [](std::string* bytes) {
        (*bytes)[sizeof(ContainerHeader) + 8] ^= 0x01;
      });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ContainerTest, OpenRejectsMisalignedSection) {
  // An offset that is not a multiple of kContainerAlignment breaks the
  // zero-copy contract (mapped records would be unaligned), so it is a
  // structural error even with a valid header CRC.
  const std::string path = MutatedCopy(
      cw_.container_path, "container_misaligned.stm", [](std::string* bytes) {
        SectionEntry entry{};
        const size_t entry_at = sizeof(ContainerHeader);
        std::memcpy(&entry, bytes->data() + entry_at, sizeof(entry));
        entry.offset += 8;
        std::memcpy(bytes->data() + entry_at, &entry, sizeof(entry));
        ResealHeaderCrc(bytes);
      });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();
}

// --- required-vs-advisory damage policy -------------------------------------

TEST_F(ContainerTest, BitFlipInRequiredSectionFailsTheLoad) {
  // Open() succeeds — it validates structure only, never payloads — and
  // the per-section CRC check fails the *load* with kFailedPrecondition,
  // leaving the maker untrained.
  const std::string path =
      FlippedCopy("container_badfeat.stm", SectionType::kFeatureEdges);
  auto loaded = LoadContainerModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
      << loaded.status().ToString();
}

TEST_F(ContainerTest, BitFlipInNetworkSectionFailsTheNetworkLoad) {
  const std::string path =
      FlippedCopy("container_badnodes.stm", SectionType::kNodes);
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<RoadNetwork> network = LoadNetworkFromContainer(**opened);
  ASSERT_FALSE(network.ok());
  EXPECT_EQ(network.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ContainerTest, DamagedHierarchySectionIsAdvisory) {
  // CH damage degrades to Dijkstra with a warning and a counter, and
  // everything else in the container still serves.
  const std::string path =
      FlippedCopy("container_badch.stm", SectionType::kChArcs);
  Counter& failures = MetricsRegistry::Global().counter(
      "router.ch.load_failures");
  const uint64_t base = failures.value();
  auto loaded = LoadContainerModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE((*loaded)->maker->has_road_hierarchy());
  EXPECT_TRUE((*loaded)->maker->has_trajectory_index());
  EXPECT_EQ(failures.value(), base + 1);
  // The degraded model still summarizes, identically to the intact one.
  Result<Summary> expect = cw_.maker->Summarize(cw_.raws[0]);
  Result<Summary> got = (*loaded)->maker->Summarize(cw_.raws[0]);
  ASSERT_EQ(expect.ok(), got.ok());
  if (expect.ok()) EXPECT_EQ(expect->text, got->text);
}

TEST_F(ContainerTest, DamagedTripIndexSectionIsAdvisory) {
  const std::string path =
      FlippedCopy("container_badcells.stm", SectionType::kTripCells);
  Counter& failures =
      MetricsRegistry::Global().counter("index.load_failures");
  const uint64_t base = failures.value();
  auto loaded = LoadContainerModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE((*loaded)->maker->has_trajectory_index());
  EXPECT_TRUE((*loaded)->maker->has_road_hierarchy());
  EXPECT_EQ(failures.value(), base + 1);
}

// --- mmap fallback ----------------------------------------------------------

TEST_F(ContainerTest, MapFailureFallsBackToHeapRead) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "build without -DSTMAKER_FAILPOINTS=ON";
  }
  Counter& fallbacks =
      MetricsRegistry::Global().counter("container.map_fallbacks");
  const uint64_t base = fallbacks.value();
  ArmFailpoint("container/map");
  auto loaded = LoadContainerModel(cw_.container_path);
  DisarmAllFailpoints();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->container->heap_backed());
  EXPECT_EQ(fallbacks.value(), base + 1);
  EXPECT_TRUE((*loaded)->maker->has_road_hierarchy());
  // Heap-backed and mapped reads serve identical bytes.
  Result<Summary> expect = cw_.maker->Summarize(cw_.raws[1]);
  Result<Summary> got = (*loaded)->maker->Summarize(cw_.raws[1]);
  ASSERT_EQ(expect.ok(), got.ok());
  if (expect.ok()) EXPECT_EQ(expect->text, got->text);
}

// --- model-manager lifecycle ------------------------------------------------

TEST_F(ContainerTest, ManagerServesContainerAndRollsBackOnCorruptReload) {
  // A reload pointed at a damaged container must roll back — same
  // snapshot object serving, old mapping still alive (the
  // summarize-after-rollback below walks the mapped CSR arrays).
  const std::string bad =
      FlippedCopy("container_reload_bad.stm", SectionType::kTransitions);
  const std::string noch =
      FlippedCopy("container_reload_noch.stm", SectionType::kChArcs);

  ModelManagerOptions opts;
  opts.data_dir = cw_.dir;
  opts.model_prefix = cw_.container_path;
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  const uint64_t base_failures = manager.reload_failures();
  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  ASSERT_NE(before, nullptr);
  ASSERT_NE(before->container, nullptr);
  EXPECT_TRUE(before->maker->has_road_hierarchy());
  Result<Summary> first = before->maker->Summarize(before->trajectories[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Corrupt required section -> load fails -> rollback.
  Status reload = manager.Reload(bad);
  EXPECT_EQ(reload.code(), StatusCode::kFailedPrecondition)
      << reload.ToString();
  EXPECT_EQ(manager.reload_failures(), base_failures + 1);
  EXPECT_EQ(manager.Current().get(), before.get());

  // Advisory CH damage -> candidate loads but lost its hierarchy -> the
  // hierarchy-regression policy refuses the downgrade.
  reload = manager.Reload(noch);
  EXPECT_EQ(reload.code(), StatusCode::kFailedPrecondition)
      << reload.ToString();
  EXPECT_EQ(manager.reload_failures(), base_failures + 2);
  EXPECT_EQ(manager.Current().get(), before.get());

  // The surviving snapshot's mapping is untouched by the failed loads.
  Result<Summary> after = before->maker->Summarize(before->trajectories[0]);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(first->text, after->text);

  // And a good reload (a second copy of the container) still swaps.
  const std::string copy = TempPrefix("container_reload_good.stm");
  ASSERT_TRUE(cw_.maker->SaveModelContainer(copy).ok());
  ASSERT_TRUE(manager.Reload(copy).ok());
  std::shared_ptr<const ModelSnapshot> swapped = manager.Current();
  EXPECT_EQ(swapped->version, before->version + 3);
  EXPECT_NE(swapped->container, before->container);
  Result<Summary> reserved =
      swapped->maker->Summarize(swapped->trajectories[0]);
  ASSERT_TRUE(reserved.ok());
  EXPECT_EQ(first->text, reserved->text);
}

}  // namespace
}  // namespace stmaker
