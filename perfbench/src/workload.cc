#include "workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <thread>

#include "core/feature.h"
#include "core/stmaker.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/trajectory_io.h"
#include "landmark/poi_generator.h"
#include "roadnet/map_generator.h"
#include "traj/generator.h"

namespace perfbench {

using stmaker::BoundingBox;
using stmaker::ModelSnapshot;
using stmaker::RawTrajectory;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: derives independent RNG seeds from (seed, purpose).
uint64_t Mix(uint64_t seed, uint64_t purpose) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Bench-world scale shared with bench/bench_world.h: a 20x20-block city,
// 500 POI sites, 3,000 trips by 200 travellers over 30 days.
constexpr int kBlocks = 20;
constexpr int kPoiSites = 500;
constexpr size_t kTrips = 3000;
constexpr int kTravelers = 200;
constexpr int kDays = 30;
constexpr size_t kHotTrips = 64;
constexpr size_t kPoolSize = 1024;

bool DigestFile(const std::string& path, uint64_t* digest) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  *digest = Fnv1a(bytes, *digest);
  return true;
}

std::string Fmt(const char* format, double a, double b) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

/// The wire body (after the id) of one request.
std::string RequestBody(const Workload& w, const RequestKey& key) {
  switch (key.verb) {
    case Verb::kSummarize:
      return "\"trip\": " + std::to_string(key.index);
    case Verb::kSimilar:
      return "\"similar\": 1, \"trip\": " + std::to_string(key.index) +
             ", \"k\": 5";
    case Verb::kQuery: {
      const QueryArgs& q = w.queries[key.index];
      return "\"query\": 1, \"bbox\": \"" + q.bbox + "\", \"window\": \"" +
             q.window + "\"";
    }
    case Verb::kRoute: {
      const RouteArgs& r = w.routes[key.index];
      return "\"route\": 1, \"src\": " + std::to_string(r.src) +
             ", \"dst\": " + std::to_string(r.dst);
    }
  }
  return "";
}

}  // namespace

bool BuildWorld(uint64_t seed, int threads, const std::string& dir,
                BuildTimes* times, uint64_t* digest, std::string* error) {
  const uint64_t world_seed = Mix(seed, 1) % 1'000'000'007ULL;
  Clock::time_point t0 = Clock::now();
  stmaker::MapGeneratorOptions map_options;
  map_options.blocks_x = kBlocks;
  map_options.blocks_y = kBlocks;
  map_options.seed = world_seed;
  stmaker::GeneratedMap city =
      stmaker::MapGenerator(map_options).Generate();
  stmaker::PoiGeneratorOptions poi_options;
  poi_options.num_sites = kPoiSites;
  poi_options.seed = world_seed + 1;
  std::vector<stmaker::RawPoi> pois =
      stmaker::PoiGenerator(poi_options).Generate(city.network);
  auto landmarks = std::make_unique<stmaker::LandmarkIndex>(
      stmaker::LandmarkIndex::Build(city.network, pois));
  std::vector<RawTrajectory> raws;
  {
    stmaker::TrajectoryGenerator generator(&city.network, landmarks.get());
    std::vector<stmaker::GeneratedTrip> trips = generator.GenerateCorpus(
        kTrips, kTravelers, kDays, world_seed + 2);
    raws.reserve(trips.size());
    for (stmaker::GeneratedTrip& t : trips) raws.push_back(std::move(t.raw));
  }
  times->generate_s = SecondsSince(t0);

  t0 = Clock::now();
  stmaker::Status st =
      stmaker::WriteRoadNetworkCsv(dir + "/network", city.network);
  if (st.ok()) st = stmaker::WritePoisCsv(dir + "/pois.csv", pois);
  if (st.ok()) {
    st = stmaker::WriteTrajectoriesCsv(dir + "/trajectories.csv", raws);
  }
  if (!st.ok()) {
    *error = "writing the dataset: " + st.ToString();
    return false;
  }
  // Train on the corpus exactly as the server will read it.
  stmaker::Result<std::vector<RawTrajectory>> served =
      stmaker::ReadTrajectoriesCsv(dir + "/trajectories.csv");
  if (!served.ok()) {
    *error = "reading the corpus back: " + served.status().ToString();
    return false;
  }
  times->write_s = SecondsSince(t0);

  stmaker::STMakerOptions options;
  options.num_threads = threads;
  stmaker::STMaker maker(&city.network, landmarks.get(),
                         stmaker::FeatureRegistry::BuiltIn(), options);
  t0 = Clock::now();
  st = maker.Train(*served);
  times->ingest_s = SecondsSince(t0);
  t0 = Clock::now();
  if (st.ok()) st = maker.BuildRoadHierarchy();
  times->hierarchy_s = SecondsSince(t0);
  t0 = Clock::now();
  if (st.ok()) st = maker.SaveModelContainer(dir + "/model.stm");
  times->save_s = SecondsSince(t0);
  if (!st.ok()) {
    *error = "training the model: " + st.ToString();
    return false;
  }
  for (const char* file : {"/network_nodes.csv", "/network_edges.csv",
                           "/pois.csv", "/trajectories.csv", "/model.stm"}) {
    if (!DigestFile(dir + file, digest)) {
      *error = std::string("cannot read back ") + dir + file;
      return false;
    }
  }
  return true;
}

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kSummarize: return "summarize";
    case Verb::kSimilar: return "similar";
    case Verb::kQuery: return "query";
    case Verb::kRoute: return "route";
  }
  return "?";
}

bool ReloadsUnderLoad(const std::string& name) {
  return name == "reload_under_load";
}

bool MakeWorkload(const std::string& name, uint64_t seed,
                  const ModelSnapshot& model, Workload* out) {
  Workload w;
  w.name = name;
  const uint32_t corpus = static_cast<uint32_t>(model.trajectories.size());
  std::vector<uint32_t> all(corpus);
  for (uint32_t t = 0; t < corpus; ++t) all[t] = t;
  std::mt19937_64 rng(Mix(seed, 2));
  std::vector<uint32_t> hot = all;
  std::shuffle(hot.begin(), hot.end(), rng);
  hot.resize(std::min<size_t>(kHotTrips, hot.size()));
  std::sort(hot.begin(), hot.end());

  // The mix is an assumption (no production traffic exists): half
  // summaries, retrieval and routing for the rest.
  const double mixed[kNumVerbs] = {0.5, 0.2, 0.2, 0.1};
  if (name == "mixed_uniform") {
    std::copy(mixed, mixed + kNumVerbs, w.share);
    w.trips = all;
    w.nominal_qps = 2000;
  } else if (name == "summarize_hot") {
    w.trips = hot;
    w.nominal_qps = 2000;
  } else if (ReloadsUnderLoad(name)) {
    std::copy(mixed, mixed + kNumVerbs, w.share);
    w.trips = hot;
    w.nominal_qps = 1200;
    w.reload_every_s = 2.0;
  } else {
    return false;
  }

  // Query boxes: 250 m - 2 km sides inside the city, windows of 1-3 h
  // inside the corpus's time span.
  BoundingBox city;
  for (size_t n = 0; n < model.network.NumNodes(); ++n) {
    city.Extend(model.network.node(static_cast<stmaker::NodeId>(n)).pos);
  }
  double t_min = 1e300, t_max = -1e300;
  for (const RawTrajectory& raw : model.trajectories) {
    if (raw.empty()) continue;
    t_min = std::min(t_min, raw.StartTime());
    t_max = std::max(t_max, raw.EndTime());
  }
  std::uniform_real_distribution<double> side(250.0, 2000.0);
  std::uniform_real_distribution<double> hours(1.0, 3.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t i = 0; i < kPoolSize; ++i) {
    const double w_m = side(rng), h_m = side(rng);
    const double x0 = city.min.x + unit(rng) * (city.max.x - city.min.x - w_m);
    const double y0 = city.min.y + unit(rng) * (city.max.y - city.min.y - h_m);
    const double span = hours(rng) * 3600.0;
    const double t0 = t_min + unit(rng) * std::max(0.0, t_max - t_min - span);
    QueryArgs q;
    q.bbox = Fmt("%.3f,%.3f", x0, y0) + "," + Fmt("%.3f,%.3f", x0 + w_m, y0 + h_m);
    q.window = Fmt("%.3f,%.3f", t0, t0 + span);
    // Parse the wire text back so the direct call sees the server's doubles.
    std::sscanf(q.bbox.c_str(), "%lf,%lf,%lf,%lf", &q.x0, &q.y0, &q.x1, &q.y1);
    std::sscanf(q.window.c_str(), "%lf,%lf", &q.t0, &q.t1);
    w.queries.push_back(std::move(q));
  }
  std::uniform_int_distribution<int64_t> node(
      0, static_cast<int64_t>(model.network.NumNodes()) - 1);
  // Only connected pairs: one-way streets leave some pairs without a
  // route, and a workload's requests must all be answerable.
  while (w.routes.size() < kPoolSize) {
    RouteArgs r{node(rng), node(rng)};
    if (r.src != r.dst &&
        model.maker
            ->RoadRoute(static_cast<stmaker::NodeId>(r.src),
                        static_cast<stmaker::NodeId>(r.dst))
            .ok()) {
      w.routes.push_back(r);
    }
  }
  *out = std::move(w);
  return true;
}

Stream MakeStream(const Workload& w, uint64_t seed, uint64_t stream,
                  double qps, double duration_s) {
  Stream s;
  std::mt19937_64 rng(Mix(seed, 1000 + stream));
  std::exponential_distribution<double> gap(qps);
  std::discrete_distribution<int> verb(w.share, w.share + kNumVerbs);
  for (double t = gap(rng); t < duration_s; t += gap(rng)) {
    RequestKey key;
    key.verb = static_cast<Verb>(verb(rng));
    switch (key.verb) {
      case Verb::kSummarize:
      case Verb::kSimilar:
        key.index = w.trips[rng() % w.trips.size()];
        break;
      case Verb::kQuery:
        key.index = static_cast<uint32_t>(rng() % w.queries.size());
        break;
      case Verb::kRoute:
        key.index = static_cast<uint32_t>(rng() % w.routes.size());
        break;
    }
    s.requests.push_back(ScheduledRequest{t, RequestBody(w, key)});
    s.keys.push_back(key);
  }
  return s;
}

Oracle::Expected Oracle::Compute(const RequestKey& key) const {
  Expected e;
  const ModelSnapshot& m = *model_;
  switch (key.verb) {
    case Verb::kSummarize: {
      auto summary = m.maker->Summarize(m.trajectories[key.index]);
      e.ok = summary.ok();
      if (!e.ok) {
        e.error = summary.status().ToString();
        break;
      }
      e.partitions = summary->partitions.size();
      e.text = summary->text;
      break;
    }
    case Verb::kSimilar: {
      auto matches = m.maker->SimilarTrips(m.trajectories, key.index, 5);
      e.ok = matches.ok();
      if (!e.ok) {
        e.error = matches.status().ToString();
        break;
      }
      for (const auto& match : *matches) {
        e.matches.emplace_back(match.trip, match.score);
      }
      break;
    }
    case Verb::kQuery: {
      const QueryArgs& q = workload_->queries[key.index];
      BoundingBox box;
      box.Extend({q.x0, q.y0});
      box.Extend({q.x1, q.y1});
      auto trips = m.maker->QueryRegion(m.trajectories, box,
                                        std::make_pair(q.t0, q.t1));
      e.ok = trips.ok();
      if (!e.ok) {
        e.error = trips.status().ToString();
        break;
      }
      e.trips = *trips;
      break;
    }
    case Verb::kRoute: {
      const RouteArgs& r = workload_->routes[key.index];
      auto path = m.maker->RoadRoute(static_cast<stmaker::NodeId>(r.src),
                                     static_cast<stmaker::NodeId>(r.dst));
      e.ok = path.ok();
      if (!e.ok) {
        e.error = path.status().ToString();
        break;
      }
      e.cost = path->cost;
      e.hops = path->edges.size();
      break;
    }
  }
  return e;
}

void Oracle::Prepare(const std::vector<RequestKey>& keys, int threads) {
  std::vector<RequestKey> todo;
  std::vector<uint64_t> seen;
  for (const RequestKey& key : keys) {
    uint64_t slot = Slot(key);
    if (expected_.count(slot) != 0) continue;
    seen.push_back(slot);
    expected_[slot];  // reserve; filled below
    todo.push_back(key);
  }
  std::vector<Expected> results(todo.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < std::max(1, threads); ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < todo.size();) {
        results[i] = Compute(todo[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t i = 0; i < todo.size(); ++i) {
    expected_[seen[i]] = std::move(results[i]);
  }
}

bool Oracle::Matches(const RequestKey& key, const FlatJsonDoc& response,
                     std::string* why) const {
  auto it = expected_.find(Slot(key));
  if (it == expected_.end()) {
    *why = "no direct answer prepared";
    return false;
  }
  const Expected& e = it->second;
  auto status = response.strings.find("status");
  if (status == response.strings.end() || status->second != "ok") {
    *why = "status is not ok";
    return false;
  }
  if (!e.ok) {
    *why = "server answered ok, direct call failed: " + e.error;
    return false;
  }
  if (response.Number("model_version", 0) < 1) {
    *why = "missing model_version";
    return false;
  }
  auto number_is = [&](const std::string& field, double want, double tol) {
    auto n = response.numbers.find(field);
    return n != response.numbers.end() && std::fabs(n->second - want) <= tol;
  };
  switch (key.verb) {
    case Verb::kSummarize: {
      auto text = response.strings.find("text");
      if (text == response.strings.end() || text->second != e.text ||
          !number_is("partitions", static_cast<double>(e.partitions), 0)) {
        *why = "summary differs from the direct Summarize";
        return false;
      }
      return true;
    }
    case Verb::kSimilar: {
      if (!number_is("trip", key.index, 0)) {
        *why = "similar answer names another trip";
        return false;
      }
      for (size_t i = 0; i < e.matches.size(); ++i) {
        const std::string p = "results/" + std::to_string(i) + "/";
        // Scores go over the wire with six decimals.
        if (!number_is(p + "trip", e.matches[i].first, 0) ||
            !number_is(p + "score", e.matches[i].second, 5.1e-7)) {
          *why = "similar results differ from the direct SimilarTrips";
          return false;
        }
      }
      if (response.Has("results/" + std::to_string(e.matches.size()) +
                       "/trip")) {
        *why = "similar answer has extra results";
        return false;
      }
      return true;
    }
    case Verb::kQuery: {
      if (!number_is("count", static_cast<double>(e.trips.size()), 0)) {
        *why = "query count differs from the direct QueryRegion";
        return false;
      }
      for (size_t i = 0; i < e.trips.size(); ++i) {
        if (!number_is("trips/" + std::to_string(i), e.trips[i], 0)) {
          *why = "query trips differ from the direct QueryRegion";
          return false;
        }
      }
      return true;
    }
    case Verb::kRoute:
      // Costs go over the wire with three decimals.
      if (!number_is("cost", e.cost, 5.1e-4) ||
          !number_is("hops", static_cast<double>(e.hops), 0)) {
        *why = "route differs from the direct RoadRoute";
        return false;
      }
      return true;
  }
  return false;
}

double TimeDirectCall(const ModelSnapshot& m, const Workload& w,
                      const RequestKey& key) {
  const Clock::time_point t0 = Clock::now();
  bool ok = false;
  switch (key.verb) {
    case Verb::kSummarize:
      ok = m.maker->Summarize(m.trajectories[key.index]).ok();
      break;
    case Verb::kSimilar:
      ok = m.maker->SimilarTrips(m.trajectories, key.index, 5).ok();
      break;
    case Verb::kQuery: {
      const QueryArgs& q = w.queries[key.index];
      BoundingBox box;
      box.Extend({q.x0, q.y0});
      box.Extend({q.x1, q.y1});
      ok = m.maker->QueryRegion(m.trajectories, box, std::make_pair(q.t0, q.t1))
               .ok();
      break;
    }
    case Verb::kRoute: {
      const RouteArgs& r = w.routes[key.index];
      ok = m.maker
               ->RoadRoute(static_cast<stmaker::NodeId>(r.src),
                           static_cast<stmaker::NodeId>(r.dst))
               .ok();
      break;
    }
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return ok ? ms : -1;
}

}  // namespace perfbench
