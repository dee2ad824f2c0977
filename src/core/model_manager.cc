#include "core/model_manager.h"

#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "core/feature.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/trajectory_io.h"

namespace stmaker {

namespace {

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ModelManager::ModelManager(const ModelManagerOptions& options)
    : options_(options),
      c_reloads_ok_(MetricsRegistry::Global().counter("model.reloads_ok")),
      c_reload_failures_(
          MetricsRegistry::Global().counter("model.reload_failures")),
      g_version_(MetricsRegistry::Global().gauge("model.version")),
      g_loaded_unix_ms_(
          MetricsRegistry::Global().gauge("model.loaded_unix_ms")),
      h_reload_ms_(MetricsRegistry::Global().histogram("model.reload_ms")),
      h_reload_world_ms_(
          MetricsRegistry::Global().histogram("model.reload.world_ms")),
      h_reload_corpus_ms_(
          MetricsRegistry::Global().histogram("model.reload.corpus_ms")),
      h_reload_model_ms_(
          MetricsRegistry::Global().histogram("model.reload.model_ms")),
      h_reload_commit_ms_(
          MetricsRegistry::Global().histogram("model.reload.commit_ms")),
      h_reload_release_ms_(
          MetricsRegistry::Global().histogram("model.reload.release_ms")) {}

ModelManager::~ModelManager() {
  shutting_down_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (reloader_.joinable()) reloader_.join();
  // Whatever is still queued never ran; its callers must not hang.
  std::deque<PendingReload> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers.swap(queue_);
  }
  const uint64_t version = current_ == nullptr ? 0 : current_->version;
  for (PendingReload& pending : leftovers) {
    if (pending.done) {
      pending.done(Status::Cancelled("model manager shutting down"), version);
    }
  }
}

Status ModelManager::Initialize() {
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (current_ != nullptr) {
    return Status::FailedPrecondition("model manager already initialized");
  }
  Status loaded = ReloadLocked(options_.model_prefix, /*for_reload=*/false);
  if (!loaded.ok()) return loaded;
  reloader_ = std::thread([this] { ReloaderMain(); });
  return Status::OK();
}

std::shared_ptr<const ModelSnapshot> ModelManager::Current() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

std::shared_ptr<const ModelSnapshot> ModelManager::Publish(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  g_version_.Set(static_cast<int64_t>(snapshot->version));
  g_loaded_unix_ms_.Set(snapshot->loaded_unix_ms);
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_.swap(snapshot);
  }
  // `snapshot` now holds the displaced one. The caller drops it outside
  // current_mu_, so that freeing it never blocks Current(); it dies then,
  // or when the last request pinning it finishes.
  return snapshot;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelManager::LoadSnapshot(
    const std::string& model_prefix, uint64_t version, bool for_reload,
    LoadStages* stages) {
  const auto start = std::chrono::steady_clock::now();
  // Chaos/robustness seam: lets tests fail a (re)load before any real I/O,
  // proving the rollback path without staging corrupt files.
  STMAKER_FAILPOINT("model/reload", {
    return Status::IoError("injected model/reload fault");
  });

  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->version = version;
  snapshot->data_dir = options_.data_dir;
  snapshot->model_prefix = model_prefix;

  if (!model_prefix.empty()) {
    // The model container: one mmap carries the world and the model. The
    // snapshot pins the mapping (see ModelSnapshot::container) and the
    // network's hot arrays alias it zero-copy; everything else is
    // validated and materialized before publish, so any damage — a
    // non-container file included (bad magic) — rolls back the reload.
    STMAKER_ASSIGN_OR_RETURN(snapshot->container,
                             MappedContainer::Open(model_prefix));
    STMAKER_ASSIGN_OR_RETURN(snapshot->network,
                             LoadNetworkFromContainer(*snapshot->container));
    STMAKER_ASSIGN_OR_RETURN(
        LandmarkIndex landmarks,
        LoadLandmarksFromContainer(*snapshot->container, snapshot->network));
    snapshot->landmarks =
        std::make_unique<LandmarkIndex>(std::move(landmarks));
  } else {
    // No model: the world comes from the dataset CSVs and the snapshot
    // trains in-process. Loaded fresh per snapshot — training writes
    // significances into the landmark index it is given, so sharing one
    // across versions would tear the serving snapshot.
    STMAKER_ASSIGN_OR_RETURN(
        snapshot->network, ReadRoadNetworkCsv(options_.data_dir + "/network"));
    STMAKER_ASSIGN_OR_RETURN(std::vector<RawPoi> pois,
                             ReadPoisCsv(options_.data_dir + "/pois.csv"));
    snapshot->landmarks = std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(snapshot->network, pois));
  }
  stages->world_ms = MsSince(start);
  const auto model_start = std::chrono::steady_clock::now();

  snapshot->maker = std::make_unique<STMaker>(
      &snapshot->network, snapshot->landmarks.get(),
      FeatureRegistry::BuiltIn(), options_.maker);
  if (snapshot->container != nullptr) {
    // The corpus comes out of the container with the model; its sections
    // are timed inside the load.
    STMAKER_RETURN_IF_ERROR(snapshot->maker->LoadModelContainer(
        *snapshot->container, &stages->corpus_ms));
  } else {
    const auto corpus_start = std::chrono::steady_clock::now();
    STMAKER_ASSIGN_OR_RETURN(
        std::vector<RawTrajectory> corpus,
        ReadTrajectoriesCsv(options_.data_dir + "/trajectories.csv"));
    stages->corpus_ms = MsSince(corpus_start);
    STMAKER_RETURN_IF_ERROR(snapshot->maker->Train(corpus));
  }
  snapshot->trajectories = snapshot->maker->corpus();

  if (options_.use_hierarchy && !snapshot->maker->has_road_hierarchy()) {
    if (!for_reload && options_.build_hierarchy_if_missing) {
      STMAKER_RETURN_IF_ERROR(snapshot->maker->BuildRoadHierarchy());
    } else if (for_reload) {
      // Hierarchy-regression policy: a reload must not silently downgrade
      // routing to Dijkstra (the old snapshot's hierarchy still works),
      // and re-contracting would blow the bounded-I/O reload budget.
      return Status::FailedPrecondition(
          "reload rejected: model '" + model_prefix +
          "' has no usable routing hierarchy (missing or damaged hierarchy "
          "section); keeping the current snapshot");
    }
  } else if (!options_.use_hierarchy) {
    snapshot->maker->DropRoadHierarchy();
  }

  stages->model_ms = MsSince(model_start) - stages->corpus_ms;
  snapshot->loaded_unix_ms = NowUnixMs();
  snapshot->load_ms = MsSince(start);
  return std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
}

Status ModelManager::ReloadLocked(const std::string& model_prefix,
                                  bool for_reload) {
  const std::string prefix =
      model_prefix.empty() && current_ != nullptr ? current_->model_prefix
                                                  : model_prefix;
  const uint64_t version =
      next_version_.fetch_add(1, std::memory_order_relaxed);
  LoadStages stages;
  Result<std::shared_ptr<const ModelSnapshot>> candidate =
      LoadSnapshot(prefix, version, for_reload, &stages);
  if (!candidate.ok()) {
    if (for_reload) {
      c_reload_failures_.Increment();
      std::fprintf(stderr,
                   "stmaker: model reload to '%s' failed, keeping snapshot "
                   "v%llu: %s\n",
                   prefix.c_str(),
                   static_cast<unsigned long long>(
                       current_ == nullptr ? 0 : current_->version),
                   candidate.status().ToString().c_str());
    }
    return candidate.status();
  }
  if (for_reload) {
    c_reloads_ok_.Increment();
    h_reload_ms_.Observe((*candidate)->load_ms);
    h_reload_world_ms_.Observe(stages.world_ms);
    h_reload_corpus_ms_.Observe(stages.corpus_ms);
    h_reload_model_ms_.Observe(stages.model_ms);
    std::fprintf(stderr,
                 "stmaker: model reloaded from '%s' as v%llu in %.0f ms "
                 "(world %.0f, corpus %.0f, model %.0f)\n",
                 prefix.c_str(),
                 static_cast<unsigned long long>((*candidate)->version),
                 (*candidate)->load_ms, stages.world_ms, stages.corpus_ms,
                 stages.model_ms);
  }
  const auto commit_start = std::chrono::steady_clock::now();
  std::shared_ptr<const ModelSnapshot> replaced = Publish(*std::move(candidate));
  if (for_reload) h_reload_commit_ms_.Observe(MsSince(commit_start));
  const auto release_start = std::chrono::steady_clock::now();
  replaced.reset();
  if (for_reload) h_reload_release_ms_.Observe(MsSince(release_start));
  return Status::OK();
}

Status ModelManager::Reload(const std::string& model_prefix) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (current_ == nullptr) {
    return Status::FailedPrecondition("model manager not initialized");
  }
  return ReloadLocked(model_prefix, /*for_reload=*/true);
}

void ModelManager::RequestReload(std::string model_prefix,
                                 ReloadCallback done) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!shutting_down_.load(std::memory_order_acquire) &&
        queue_.size() < options_.max_queued_reloads) {
      queue_.push_back({std::move(model_prefix), std::move(done)});
      queue_cv_.notify_all();
      return;
    }
  }
  if (done) {
    Status rejected =
        shutting_down_.load(std::memory_order_acquire)
            ? Status::Cancelled("model manager shutting down")
            : Status::ResourceExhausted(
                  StrFormat("reload queue full (%zu pending)",
                            options_.max_queued_reloads));
    auto current = Current();
    done(rejected, current == nullptr ? 0 : current->version);
  }
}

void ModelManager::NotifySighup() {
  sighup_pending_.store(true, std::memory_order_release);
  // No notify: condvars are not async-signal-safe. The reloader polls the
  // flag on its 50 ms tick.
}

void ModelManager::WaitIdle() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [this] {
    return queue_.empty() && !reload_running_ &&
           !sighup_pending_.load(std::memory_order_acquire);
  });
}

void ModelManager::ReloaderMain() {
  for (;;) {
    PendingReload pending;
    bool have_request = false;
    bool have_sighup = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
        return !queue_.empty() ||
               shutting_down_.load(std::memory_order_acquire);
      });
      if (shutting_down_.load(std::memory_order_acquire)) return;
      // SIGHUP coalescing: however many signals arrived, one in-place
      // reload answers them all. Cleared before the reload runs so a
      // signal arriving *during* it is honored by a fresh pass.
      have_sighup = sighup_pending_.exchange(false, std::memory_order_acq_rel);
      if (!queue_.empty()) {
        pending = std::move(queue_.front());
        queue_.pop_front();
        have_request = true;
      }
      if (!have_request && !have_sighup) continue;
      reload_running_ = true;
    }
    if (have_sighup && !have_request) {
      (void)Reload("");  // outcome lands in the counters + stderr log
    } else if (have_request) {
      Status outcome = Reload(pending.model_prefix);
      if (pending.done) {
        auto current = Current();
        pending.done(outcome, current == nullptr ? 0 : current->version);
      }
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      reload_running_ = false;
    }
    queue_cv_.notify_all();
  }
}

}  // namespace stmaker
