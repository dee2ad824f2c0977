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
#include <functional>
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

/// Applies `mutate` to the payload of the first section of `type`, then
/// re-seals that section's CRC and the header CRC: the crafted payload is
/// checksum-valid, so the loader's own validation (and only it) must
/// reject it.
void PatchSection(std::string* bytes, SectionType type,
                  const std::function<void(char* payload, size_t size)>&
                      mutate) {
  const ContainerHeader header = HeaderOf(*bytes);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const size_t at = sizeof(ContainerHeader) + i * sizeof(SectionEntry);
    SectionEntry entry{};
    std::memcpy(&entry, bytes->data() + at, sizeof(entry));
    if (entry.type != static_cast<uint32_t>(type)) continue;
    char* payload = bytes->data() + entry.offset;
    mutate(payload, static_cast<size_t>(entry.bytes));
    entry.crc32 = Crc32(std::string_view(payload, entry.bytes));
    std::memcpy(bytes->data() + at, &entry, sizeof(entry));
    ResealHeaderCrc(bytes);
    return;
  }
  STMAKER_CHECK(false && "no section of that type");
}

/// Reads the i-th `T` of a payload (unaligned-safe).
template <typename T>
T Get(const char* payload, size_t i) {
  T v;
  std::memcpy(&v, payload + i * sizeof(T), sizeof(T));
  return v;
}

/// Writes the i-th `T` of a payload (unaligned-safe).
template <typename T>
void Put(char* payload, size_t i, T v) {
  std::memcpy(payload + i * sizeof(T), &v, sizeof(T));
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

// --- the sealed corpus and the frozen index ---------------------------------

TEST_F(ContainerTest, OpenRejectsVersionOneWithARetrainError) {
  // There is one format: a v1 file (no corpus, no frozen postings) is
  // refused at Open with an error that says what to do.
  const std::string path = MutatedCopy(
      cw_.container_path, "container_v1.stm", [](std::string* bytes) {
        const uint32_t v1 = 1;
        std::memcpy(bytes->data() + offsetof(ContainerHeader, format_version),
                    &v1, sizeof(v1));
        ResealHeaderCrc(bytes);
      });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("retrain"), std::string::npos)
      << opened.status().ToString();
}

TEST_F(ContainerTest, ContainerEqualsCsvAndIsIdenticalAcrossThreadCounts) {
  // The corpus a container serves is the corpus it was trained on, bit
  // for bit: train on trajectories.csv as read back, at 1 and at 4
  // threads. Both containers must be byte-identical, and the restored
  // corpus memcmp-equal to ReadTrajectoriesCsv of the same file.
  Result<std::vector<RawTrajectory>> csv =
      ReadTrajectoriesCsv(cw_.dir + "/trajectories.csv");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  Result<std::vector<RawPoi>> pois = ReadPoisCsv(cw_.dir + "/pois.csv");
  ASSERT_TRUE(pois.ok());
  std::vector<std::string> images;
  for (int threads : {1, 4}) {
    // Training installs significances into its landmark index, so each
    // maker gets its own instead of the fixture's.
    LandmarkIndex landmarks = LandmarkIndex::Build(*cw_.network, *pois);
    STMakerOptions options;
    options.num_threads = threads;
    STMaker maker(cw_.network, &landmarks, FeatureRegistry::BuiltIn(),
                  options);
    ASSERT_TRUE(maker.Train(*csv).ok());
    const std::string path =
        TempPrefix("container_csv_t" + std::to_string(threads) + ".stm");
    ASSERT_TRUE(maker.SaveModelContainer(path).ok());
    Result<std::string> bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    images.push_back(std::move(*bytes));
  }
  EXPECT_TRUE(images[0] == images[1])
      << "container differs between 1 and 4 training threads";

  auto loaded = LoadContainerModel(TempPrefix("container_csv_t1.stm"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::span<const RawTrajectory> served = (*loaded)->maker->corpus();
  ASSERT_EQ(served.size(), csv->size());
  for (size_t t = 0; t < served.size(); ++t) {
    const RawTrajectory& want = (*csv)[t];
    ASSERT_EQ(served[t].traveler, want.traveler) << "trip " << t;
    ASSERT_EQ(served[t].samples.size(), want.samples.size()) << "trip " << t;
    EXPECT_EQ(std::memcmp(served[t].samples.data(), want.samples.data(),
                          want.samples.size() * sizeof(RawSample)),
              0)
        << "trip " << t;
  }
}

TEST_F(ContainerTest, ManagerServesTheContainerCorpusWithoutDatasetFiles) {
  // A model load reads nothing but the container: an empty data dir
  // serves the same corpus the model was trained on.
  const std::string empty = TempPrefix("container_empty_dir");
  ::mkdir(empty.c_str(), 0755);
  ModelManagerOptions opts;
  opts.data_dir = empty;
  opts.model_prefix = cw_.container_path;
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  std::shared_ptr<const ModelSnapshot> snapshot = manager.Current();
  ASSERT_EQ(snapshot->trajectories.size(), cw_.raws.size());
  EXPECT_EQ(snapshot->trajectories.data(),
            snapshot->maker->corpus().data())
      << "the snapshot must view the maker's corpus, not hold a copy";
  Result<Summary> expect = cw_.maker->Summarize(cw_.raws[2]);
  Result<Summary> got = snapshot->maker->Summarize(snapshot->trajectories[2]);
  ASSERT_EQ(expect.ok(), got.ok());
  if (expect.ok()) {
    EXPECT_EQ(expect->text, got->text);
  }
}

/// Loads a crafted container whose index sections are checksum-valid but
/// inconsistent: the model must load, serve without an index (counted in
/// `index.load_failures`), and answer both retrieval verbs exactly as the
/// indexed fixture maker does.
void ExpectHostileIndexServesTheScan(const ContainerWorld& cw,
                                     const std::string& name,
                                     SectionType type,
                                     const std::function<void(char*, size_t)>&
                                         mutate) {
  SCOPED_TRACE(name);
  Result<std::string> bytes = ReadFileToString(cw.container_path);
  ASSERT_TRUE(bytes.ok());
  PatchSection(&*bytes, type, mutate);
  const std::string path = TempPrefix(name);
  ASSERT_TRUE(WriteFileToPath(path, *bytes).ok());

  Counter& failures = MetricsRegistry::Global().counter("index.load_failures");
  const uint64_t base = failures.value();
  auto loaded = LoadContainerModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const STMaker& maker = *(*loaded)->maker;
  EXPECT_FALSE(maker.has_trajectory_index());
  EXPECT_EQ(failures.value(), base + 1);

  std::span<const RawTrajectory> corpus = maker.corpus();
  for (size_t trip : {size_t{0}, size_t{7}, size_t{31}}) {
    auto scanned = maker.SimilarTrips(corpus, trip, 6);
    auto indexed = cw.maker->SimilarTrips(cw.raws, trip, 6);
    ASSERT_EQ(scanned.ok(), indexed.ok()) << "trip " << trip;
    if (!scanned.ok()) continue;
    ASSERT_EQ(scanned->size(), indexed->size());
    for (size_t i = 0; i < scanned->size(); ++i) {
      EXPECT_EQ((*scanned)[i].trip, (*indexed)[i].trip);
      EXPECT_EQ((*scanned)[i].score, (*indexed)[i].score);
    }
  }
  BoundingBox box;
  box.Extend(Vec2{500, -2500});
  box.Extend(Vec2{2500, -500});
  auto scanned = maker.QueryRegion(corpus, box, std::nullopt);
  auto indexed = cw.maker->QueryRegion(cw.raws, box, std::nullopt);
  ASSERT_TRUE(scanned.ok() && indexed.ok());
  EXPECT_EQ(*scanned, *indexed);
}

TEST_F(ContainerTest, HostileIndexSectionsFallBackToTheScan) {
  const uint32_t num_trips = static_cast<uint32_t>(cw_.raws.size());
  ExpectHostileIndexServesTheScan(
      cw_, "hostile_trip_id.stm", SectionType::kCellIds,
      [num_trips](char* p, size_t) { Put<uint32_t>(p, 0, num_trips); });
  ExpectHostileIndexServesTheScan(
      cw_, "hostile_huge_trip_id.stm", SectionType::kLabelIds,
      [](char* p, size_t n) {
        Put<uint32_t>(p, n / sizeof(uint32_t) - 1, 0xffffffffu);
      });
  ExpectHostileIndexServesTheScan(
      cw_, "hostile_offsets.stm", SectionType::kCellBucketOffsets,
      [](char* p, size_t) {
        Put<uint32_t>(p, 1, Get<uint32_t>(p, 2) + 1);  // offsets[1] > [2]
      });
  ExpectHostileIndexServesTheScan(
      cw_, "hostile_offsets_past_end.stm", SectionType::kCellOffsets,
      [](char* p, size_t n) {
        Put<uint32_t>(p, n / sizeof(uint32_t) - 2, 0x7fffffffu);
      });
  ExpectHostileIndexServesTheScan(
      cw_, "hostile_unsorted_keys.stm", SectionType::kLabelKeys,
      [](char* p, size_t) {
        const int64_t a = Get<int64_t>(p, 0);
        Put<int64_t>(p, 0, Get<int64_t>(p, 1));
        Put<int64_t>(p, 1, a);
      });
  ExpectHostileIndexServesTheScan(
      cw_, "hostile_duplicate_keys.stm", SectionType::kCellKeys,
      [](char* p, size_t) { Put<uint64_t>(p, 1, Get<uint64_t>(p, 0)); });
  ExpectHostileIndexServesTheScan(
      cw_, "hostile_cell_slice.stm", SectionType::kTripDescriptors,
      [](char* p, size_t) {
        TripDescRecord rec = Get<TripDescRecord>(p, 0);
        rec.cells_begin = ~uint64_t{0} - 1;
        Put<TripDescRecord>(p, 0, rec);
      });
}

/// Loads a crafted container whose sealed-match sections are
/// checksum-valid but inconsistent: the model must load with nothing
/// sealed (counted in `roadnet.map_match.seal_load_failures`) and serve
/// corpus trips through the live matcher, with the live answers.
void ExpectHostileSealMatchesLive(const ContainerWorld& cw,
                                  const std::string& name, SectionType type,
                                  const std::function<void(char*, size_t)>&
                                      mutate) {
  SCOPED_TRACE(name);
  Result<std::string> bytes = ReadFileToString(cw.container_path);
  ASSERT_TRUE(bytes.ok());
  PatchSection(&*bytes, type, mutate);
  const std::string path = TempPrefix(name);
  ASSERT_TRUE(WriteFileToPath(path, *bytes).ok());

  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& failures = registry.counter("roadnet.map_match.seal_load_failures");
  Counter& sealed = registry.counter("roadnet.map_match.sealed");
  const uint64_t failures_before = failures.value();
  auto loaded = LoadContainerModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const STMaker& maker = *(*loaded)->maker;
  EXPECT_EQ(failures.value(), failures_before + 1);
  EXPECT_EQ(maker.match_seal().num_trips(), maker.corpus().size());
  EXPECT_TRUE(maker.match_seal().all_runs().empty());
  EXPECT_TRUE(maker.has_trajectory_index());

  const uint64_t sealed_before = sealed.value();
  for (size_t trip : {size_t{0}, size_t{1}, size_t{31}}) {
    Result<Summary> served = maker.SummarizeTrip(trip);
    Result<Summary> live = cw.maker->Summarize(cw.raws[trip]);
    ASSERT_TRUE(served.ok() && live.ok()) << "trip " << trip;
    EXPECT_EQ(served->text, live->text);
  }
  EXPECT_EQ(sealed.value(), sealed_before);
}

TEST_F(ContainerTest, HostileSealedMatchesServeLive) {
  // Trip 0's runs are the first records of kMatchRuns (offsets[0] == 0).
  const size_t trip0_runs = cw_.maker->match_seal().runs(0).size();
  ASSERT_GE(trip0_runs, 2u);
  ExpectHostileSealMatchesLive(
      cw_, "hostile_seal_end_past_trip.stm", SectionType::kMatchRuns,
      [trip0_runs](char* p, size_t) {
        MatchRunRecord last = Get<MatchRunRecord>(p, trip0_runs - 1);
        last.end += 1;
        Put<MatchRunRecord>(p, trip0_runs - 1, last);
      });
  ExpectHostileSealMatchesLive(
      cw_, "hostile_seal_ends_descend.stm", SectionType::kMatchRuns,
      [](char* p, size_t) {
        MatchRunRecord first = Get<MatchRunRecord>(p, 0);
        first.end = Get<MatchRunRecord>(p, 1).end;
        Put<MatchRunRecord>(p, 0, first);
      });
  const int32_t num_edges = static_cast<int32_t>(cw_.network->NumEdges());
  ExpectHostileSealMatchesLive(
      cw_, "hostile_seal_edge.stm", SectionType::kMatchRuns,
      [num_edges](char* p, size_t) {
        MatchRunRecord first = Get<MatchRunRecord>(p, 0);
        first.edge = num_edges;
        Put<MatchRunRecord>(p, 0, first);
      });
  ExpectHostileSealMatchesLive(
      cw_, "hostile_seal_offsets.stm", SectionType::kMatchOffsets,
      [](char* p, size_t) { Put<uint32_t>(p, 1, 0x7fffffffu); });
  ExpectHostileSealMatchesLive(
      cw_, "hostile_seal_options.stm", SectionType::kMatchMeta,
      [](char* p, size_t) {
        MatchMetaRecord meta = Get<MatchMetaRecord>(p, 0);
        meta.jump_cost += 1;
        Put<MatchMetaRecord>(p, 0, meta);
      });
}

TEST_F(ContainerTest, HostileCorpusFailsTheLoadAndTheReloadRollsBack) {
  struct Case {
    const char* name;
    std::function<void(char*, size_t)> mutate;
  };
  const std::vector<Case> cases = {
      {"hostile_corpus_past_end.stm",
       [](char* p, size_t n) {
         const size_t last = n / sizeof(CorpusTripRecord) - 1;
         CorpusTripRecord rec = Get<CorpusTripRecord>(p, last);
         rec.samples_count += 1;
         Put<CorpusTripRecord>(p, last, rec);
       }},
      {"hostile_corpus_huge_slice.stm",
       [](char* p, size_t) {
         CorpusTripRecord rec = Get<CorpusTripRecord>(p, 0);
         rec.samples_count = ~uint64_t{0};
         Put<CorpusTripRecord>(p, 0, rec);
       }},
      {"hostile_corpus_gap.stm",
       [](char* p, size_t) {
         CorpusTripRecord rec = Get<CorpusTripRecord>(p, 1);
         rec.samples_begin += 1;
         Put<CorpusTripRecord>(p, 1, rec);
       }},
  };
  ModelManagerOptions opts;
  opts.data_dir = cw_.dir;
  opts.model_prefix = cw_.container_path;
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Result<std::string> bytes = ReadFileToString(cw_.container_path);
    ASSERT_TRUE(bytes.ok());
    PatchSection(&*bytes, SectionType::kCorpusTrips, c.mutate);
    const std::string path = TempPrefix(c.name);
    ASSERT_TRUE(WriteFileToPath(path, *bytes).ok());

    auto loaded = LoadContainerModel(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();

    const uint64_t failures = manager.reload_failures();
    EXPECT_FALSE(manager.Reload(path).ok());
    EXPECT_EQ(manager.reload_failures(), failures + 1);
    EXPECT_EQ(manager.Current().get(), before.get());
  }
  // The surviving snapshot still serves.
  Result<Summary> summary =
      before->maker->Summarize(before->trajectories[0]);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
}

}  // namespace
}  // namespace stmaker
