#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// \file
/// Seeded inputs of the benchmark: the bench world (road network, POIs,
/// 3,000-trip corpus) and its trained `.stm` model, the request streams
/// of each workload, and the oracle that checks every server answer
/// against a direct in-process call on the same model.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/model_manager.h"
#include "loadgen.h"

namespace perfbench {

/// Wall time of each set-up step of one world build, in seconds.
struct BuildTimes {
  double generate_s = 0;  ///< map + POIs + corpus generation
  double write_s = 0;     ///< dataset CSVs written and the corpus read back
  double ingest_s = 0;    ///< STMaker::Train
  double hierarchy_s = 0; ///< STMaker::BuildRoadHierarchy
  double save_s = 0;      ///< STMaker::SaveModelContainer
};

/// Generates the bench world for `seed` under `dir` (network_*.csv,
/// pois.csv, trajectories.csv) and trains + saves `dir`/model.stm with
/// `threads` workers. The model is trained on the corpus as read back
/// from trajectories.csv, i.e. exactly the corpus the server serves.
/// `digest` receives a fingerprint of every file written.
bool BuildWorld(uint64_t seed, int threads, const std::string& dir,
                BuildTimes* times, uint64_t* digest, std::string* error);

enum class Verb : uint8_t { kSummarize = 0, kSimilar, kQuery, kRoute };
constexpr int kNumVerbs = 4;
const char* VerbName(Verb verb);

/// One request of a workload: the verb and the index of its argument
/// (a trip id for summarize/similar, a pool entry for query/route).
struct RequestKey {
  Verb verb = Verb::kSummarize;
  uint32_t index = 0;
};

/// Query and route arguments drawn once per seed. Coordinates are stored
/// as the exact doubles the server parses from the wire text.
struct QueryArgs {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0, t0 = 0, t1 = 0;
  std::string bbox, window;  ///< wire text
};
struct RouteArgs {
  int64_t src = 0, dst = 0;
};

/// The request mix of a workload, with its argument pools.
struct Workload {
  std::string name;
  double share[kNumVerbs] = {1, 0, 0, 0};  ///< summarize/similar/query/route
  std::vector<uint32_t> trips;  ///< trip ids summarize/similar draw from
  std::vector<QueryArgs> queries;
  std::vector<RouteArgs> routes;
  double nominal_qps = 0;   ///< fixed offered rate of the nominal phase
  double reload_every_s = 0;  ///< > 0: reload verb on this cadence
};

/// True for the workload that reloads the model while serving
/// ("reload_under_load"); its reloader thread needs a CPU of its own.
bool ReloadsUnderLoad(const std::string& name);

/// Builds workload `name` ("mixed_uniform", "summarize_hot",
/// "reload_under_load") for `seed` over the serving snapshot. False for an
/// unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed,
                  const stmaker::ModelSnapshot& model, Workload* out);

/// A Poisson arrival stream at `qps` for `duration_s`, verbs and
/// arguments drawn from the workload's mix. Deterministic in
/// (seed, stream).
struct Stream {
  std::vector<ScheduledRequest> requests;
  std::vector<RequestKey> keys;
};
Stream MakeStream(const Workload& w, uint64_t seed, uint64_t stream,
                  double qps, double duration_s);

/// Checks server answers against direct calls on the same model.
class Oracle {
 public:
  /// Shares `model`; `workload` must outlive the oracle.
  Oracle(std::shared_ptr<const stmaker::ModelSnapshot> model,
                  const Workload* workload)
      : model_(std::move(model)), workload_(workload) {}

  /// Computes the direct answer of every key not yet known, on `threads`
  /// worker threads.
  void Prepare(const std::vector<RequestKey>& keys, int threads);

  /// True when `response` is an ok answer equal to the direct answer of
  /// `key` (Prepare must have seen the key). `why` explains a mismatch.
  bool Matches(const RequestKey& key, const FlatJsonDoc& response,
               std::string* why) const;

 private:
  struct Expected {
    bool ok = false;
    std::string error;
    size_t partitions = 0;
    std::string text;
    std::vector<std::pair<uint32_t, double>> matches;
    std::vector<uint32_t> trips;
    double cost = 0;
    size_t hops = 0;
  };
  static uint64_t Slot(const RequestKey& key) {
    return (static_cast<uint64_t>(key.verb) << 32) | key.index;
  }
  Expected Compute(const RequestKey& key) const;

  std::shared_ptr<const stmaker::ModelSnapshot> model_;
  const Workload* workload_;
  std::map<uint64_t, Expected> expected_;
};

/// Times one direct in-process call of `key`'s verb on `model` (the
/// library function the server calls for it), in milliseconds.
double TimeDirectCall(const stmaker::ModelSnapshot& model, const Workload& w,
                      const RequestKey& key);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
