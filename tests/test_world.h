#ifndef STMAKER_TESTS_TEST_WORLD_H_
#define STMAKER_TESTS_TEST_WORLD_H_

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fileutil.h"
#include "core/stmaker.h"
#include "io/container.h"
#include "landmark/poi_generator.h"
#include "roadnet/map_generator.h"
#include "traj/generator.h"

namespace stmaker::testing {

/// A fully built small world shared by integration-level tests: city map,
/// landmarks, trajectory generator, a historical corpus, and a trained
/// STMaker. Building it is deterministic; the singleton keeps test binaries
/// fast.
struct TestWorld {
  GeneratedMap city;
  std::unique_ptr<LandmarkIndex> landmarks;
  std::unique_ptr<TrajectoryGenerator> generator;
  std::vector<GeneratedTrip> history;
  std::unique_ptr<STMaker> maker;
};

inline const TestWorld& GetTestWorld() {
  static const TestWorld& world = *[] {
    auto* w = new TestWorld();
    MapGeneratorOptions map_options;
    map_options.blocks_x = 14;
    map_options.blocks_y = 14;
    map_options.seed = 42;
    w->city = MapGenerator(map_options).Generate();

    PoiGeneratorOptions poi_options;
    poi_options.num_sites = 250;
    std::vector<RawPoi> pois =
        PoiGenerator(poi_options).Generate(w->city.network);
    w->landmarks = std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(w->city.network, pois));

    w->generator = std::make_unique<TrajectoryGenerator>(&w->city.network,
                                                         w->landmarks.get());
    w->history = w->generator->GenerateCorpus(/*count=*/400,
                                              /*num_travelers=*/40,
                                              /*num_days=*/7, /*seed=*/99);

    w->maker = std::make_unique<STMaker>(&w->city.network, w->landmarks.get(),
                                         FeatureRegistry::BuiltIn());
    std::vector<RawTrajectory> raws;
    raws.reserve(w->history.size());
    for (const GeneratedTrip& t : w->history) raws.push_back(t.raw);
    Status trained = w->maker->Train(raws);
    STMAKER_CHECK(trained.ok());
    return w;
  }();
  return world;
}

/// A model served from a container file: the mapping, the world restored
/// from it, and the maker — in ModelSnapshot's member order, so the mapping
/// outlives the network views. Heap-allocated because the maker holds raw
/// pointers into the struct.
struct ContainerModel {
  std::shared_ptr<MappedContainer> container;
  RoadNetwork network;
  std::unique_ptr<LandmarkIndex> landmarks;
  std::unique_ptr<STMaker> maker;
};

/// Opens the container at `path` and restores world + model from it,
/// exactly as ModelManager does, over `registry` with `threads` workers.
inline Result<std::unique_ptr<ContainerModel>> LoadContainerModel(
    const std::string& path, int threads = 1,
    FeatureRegistry registry = FeatureRegistry::BuiltIn()) {
  auto m = std::make_unique<ContainerModel>();
  STMAKER_ASSIGN_OR_RETURN(m->container, MappedContainer::Open(path));
  STMAKER_ASSIGN_OR_RETURN(m->network,
                           LoadNetworkFromContainer(*m->container));
  STMAKER_ASSIGN_OR_RETURN(
      LandmarkIndex landmarks,
      LoadLandmarksFromContainer(*m->container, m->network));
  m->landmarks = std::make_unique<LandmarkIndex>(std::move(landmarks));
  STMakerOptions options;
  options.num_threads = threads;
  m->maker = std::make_unique<STMaker>(&m->network, m->landmarks.get(),
                                       std::move(registry), options);
  STMAKER_RETURN_IF_ERROR(m->maker->LoadModelContainer(*m->container));
  return m;
}

/// Copies the container at `src` to `dst` with one payload byte flipped in
/// the middle of the first section of `type`, leaving that section's CRC
/// stale — the bit-rot a per-section CRC must catch.
inline Status FlipSectionByte(const std::string& src, const std::string& dst,
                              SectionType type) {
  STMAKER_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(src));
  ContainerHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry{};
    std::memcpy(&entry, bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.type == static_cast<uint32_t>(type) && entry.bytes > 0) {
      bytes[entry.offset + entry.bytes / 2] ^= 0x40;
      return WriteFileToPath(dst, bytes);
    }
  }
  return Status::NotFound(src + ": no non-empty section of that type");
}

}  // namespace stmaker::testing

#endif  // STMAKER_TESTS_TEST_WORLD_H_
