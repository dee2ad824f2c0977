#ifndef STMAKER_CORE_MODEL_MANAGER_H_
#define STMAKER_CORE_MODEL_MANAGER_H_

/// \file
/// \brief Zero-downtime model lifecycle: versioned snapshots behind an
/// atomic swap, with rollback on any load failure.
///
/// A ModelSnapshot is an immutable, version-stamped bundle of everything a
/// request needs: the road network (CSR), the landmark index, the serving
/// corpus, and a trained STMaker (which carries the CH hierarchy, feature
/// map, and calibration/popular-route caches). Snapshots are built off to
/// the side on a background thread — parse-then-commit, with the model
/// container's per-section CRC32 validation — and published with one
/// shared_ptr swap. Every in-flight request pins the snapshot it started
/// on, so a response is never served from a half-loaded or mixed-version
/// model and a swap frees the old snapshot only after its last request
/// finishes.
///
/// Reload triggers (both funnel into one serialized reloader thread):
///   - SIGHUP: the signal handler calls NotifySighup() (async-signal-safe,
///     one atomic store); floods coalesce into a single in-place reload.
///   - The serve protocol's admin verb {"reload": 1, "model_dir": "..."}:
///     RequestReload() enqueues FIFO and the callback fires with the
///     outcome when that reload actually ran — so back-to-back reloads
///     never interleave and the final state is the last request's.
///
/// Rollback state machine (DESIGN.md §15): a reload that fails for any
/// reason — a missing or non-container file, a CRC mismatch, a
/// failpoint-injected fault
/// mid-load, or a hierarchy regression — leaves the current snapshot
/// serving untouched, increments `model.reload_failures`, and reports the
/// error to the caller. There is no intermediate state visible to
/// requests: Current() returns the old snapshot until the instant the new
/// one is complete.
///
/// Metrics (global registry): model.version and model.loaded_unix_ms
/// (gauges), model.reloads_ok and model.reload_failures (counters),
/// model.reload_ms (histogram of successful reload wall time), and one
/// histogram per reload stage, each observed once per successful reload
/// so that `stats` alone shows where a slow reload went:
///   - model.reload.world_ms: container open, network and landmarks (or,
///     without a model, the network/POI CSVs and the landmark build);
///   - model.reload.corpus_ms: reading the serving corpus,
///     trajectories.csv, which every load re-reads;
///   - model.reload.model_ms: LoadModelContainer (or in-process training)
///     plus the hierarchy policy;
///   - model.reload.commit_ms: the publish swap, including the release of
///     the old snapshot when no request still pins it.
/// world + corpus + model is model.reload_ms up to bookkeeping.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/stmaker.h"
#include "io/container.h"
#include "landmark/landmark_index.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace stmaker {

/// \brief One immutable, version-stamped serving model. Never mutated
/// after Build; shared by every request pinned to it and destroyed when
/// the last pin drops.
struct ModelSnapshot {
  /// Monotonically increasing per manager, starting at 1.
  uint64_t version = 0;
  /// Dataset directory the world (network/POIs/corpus) was loaded from.
  std::string data_dir;
  /// Model container path; empty when the snapshot was trained in-process.
  std::string model_prefix;
  /// Wall-clock publish time (ms since the Unix epoch).
  int64_t loaded_unix_ms = 0;
  /// Wall time the load took: world, corpus and model (not the commit).
  double load_ms = 0;

  /// The mapped model container when the snapshot was loaded from one
  /// (null for snapshots trained in-process). The network's hot arrays alias this
  /// mapping zero-copy, so it is declared *before* `network`: members
  /// destroy in reverse declaration order, guaranteeing the network (and
  /// every request pinning this snapshot) dies before the mapping is
  /// unmapped. Swap/rollback semantics are unchanged — the mapping is just
  /// one more resource the snapshot pin keeps alive.
  std::shared_ptr<MappedContainer> container;
  RoadNetwork network;
  std::unique_ptr<LandmarkIndex> landmarks;
  /// The serving corpus backing the protocol's "trip" field.
  std::vector<RawTrajectory> trajectories;
  std::unique_ptr<STMaker> maker;
};

/// Configuration for the manager's snapshot loads.
struct ModelManagerOptions {
  /// Dataset directory: trajectories.csv (the serving corpus), plus the
  /// network CSVs and pois.csv when there is no model to load.
  std::string data_dir;
  /// Model container path (`.stm`); empty trains in-process from the
  /// corpus.
  std::string model_prefix;
  /// Forwarded to every snapshot's STMaker.
  STMakerOptions maker;
  /// --router ch (true) vs dijkstra (false).
  bool use_hierarchy = true;
  /// Initial load only: contract the network when the model carries no
  /// usable hierarchy. Reloads never rebuild — see Reload() for the
  /// hierarchy-regression policy.
  bool build_hierarchy_if_missing = true;
  /// FIFO bound for RequestReload; excess requests fail fast with
  /// kResourceExhausted instead of backing drain up without bound.
  size_t max_queued_reloads = 8;
};

/// See the file comment. All public methods are thread-safe; NotifySighup
/// is additionally async-signal-safe.
class ModelManager {
 public:
  /// Outcome delivery for RequestReload: the final Status and the version
  /// serving after the attempt (the new version on success, the surviving
  /// one on rollback). Invoked on the reloader thread, exactly once.
  using ReloadCallback = std::function<void(const Status&, uint64_t version)>;

  explicit ModelManager(const ModelManagerOptions& options);

  /// Stops the reloader thread. Reload requests still queued (or arriving
  /// during shutdown) fail with kCancelled through their callbacks.
  ~ModelManager();

  ModelManager(const ModelManager&) = delete;
  ModelManager& operator=(const ModelManager&) = delete;

  /// Synchronous first load; publishes snapshot v1 and starts the
  /// reloader thread. Must succeed before Current() is used.
  Status Initialize();

  /// The serving snapshot (never null after a successful Initialize).
  /// Requests must call this once at admission and keep the returned
  /// pointer for their whole lifetime — that pin is what makes the swap
  /// safe.
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Synchronous reload, serialized against every other reload. Loads a
  /// complete candidate snapshot off to the side (empty `model_prefix`
  /// re-uses the current snapshot's source), then swaps. On any failure
  /// the current snapshot keeps serving and `model.reload_failures` is
  /// incremented. With use_hierarchy set, a candidate whose hierarchy
  /// failed verification is a *failed* reload (kFailedPrecondition): the
  /// old snapshot's working hierarchy is never traded for a silent
  /// Dijkstra downgrade, and reloads never re-contract (their latency
  /// must stay bounded by file I/O).
  Status Reload(const std::string& model_prefix = "");

  /// Enqueues a reload for the reloader thread (FIFO; never interleaves
  /// with another reload) and returns immediately. `done` may be null.
  void RequestReload(std::string model_prefix, ReloadCallback done);

  /// Marks a SIGHUP-triggered in-place reload pending. Async-signal-safe:
  /// one relaxed atomic store, no locks, no allocation. Bursts coalesce
  /// into a single reload, picked up by the reloader within ~50 ms.
  void NotifySighup();

  /// Blocks until the reload queue is empty and no reload is running
  /// (including a pending SIGHUP). Test/shutdown aid.
  void WaitIdle();

  uint64_t reloads_ok() const { return c_reloads_ok_.value(); }
  uint64_t reload_failures() const { return c_reload_failures_.value(); }

 private:
  struct PendingReload {
    std::string model_prefix;
    ReloadCallback done;
  };

  /// Builds a complete snapshot from disk (or in-process training). Pure:
  /// touches no manager state besides options, so a failure leaves
  /// nothing to roll back. `for_reload` selects the hierarchy policy.
  /// Wall time of LoadSnapshot's stages (see the model.reload.* metrics).
  struct LoadStages {
    double world_ms = 0;
    double corpus_ms = 0;
    double model_ms = 0;
  };

  Result<std::shared_ptr<const ModelSnapshot>> LoadSnapshot(
      const std::string& model_prefix, uint64_t version, bool for_reload,
      LoadStages* stages);

  /// The serialized body shared by Initialize/Reload: load, then publish
  /// or roll back. Caller must hold reload_mu_.
  Status ReloadLocked(const std::string& model_prefix, bool for_reload);

  void Publish(std::shared_ptr<const ModelSnapshot> snapshot);
  void ReloaderMain();

  ModelManagerOptions options_;

  /// Serializes loads: at most one candidate snapshot is ever under
  /// construction, so back-to-back reloads cannot interleave.
  std::mutex reload_mu_;

  mutable std::mutex current_mu_;  ///< guards the current_ swap/read
  std::shared_ptr<const ModelSnapshot> current_;
  std::atomic<uint64_t> next_version_{1};

  Counter& c_reloads_ok_;
  Counter& c_reload_failures_;
  Gauge& g_version_;
  Gauge& g_loaded_unix_ms_;
  Histogram& h_reload_ms_;
  Histogram& h_reload_world_ms_;
  Histogram& h_reload_corpus_ms_;
  Histogram& h_reload_model_ms_;
  Histogram& h_reload_commit_ms_;

  std::atomic<bool> sighup_pending_{false};
  std::atomic<bool> shutting_down_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;   ///< reloader wakeup + WaitIdle
  std::deque<PendingReload> queue_;    ///< FIFO admin reload requests
  bool reload_running_ = false;        ///< a dequeued reload is executing
  std::thread reloader_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_MODEL_MANAGER_H_
