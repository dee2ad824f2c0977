#ifndef STMAKER_CORE_STMAKER_H_
#define STMAKER_CORE_STMAKER_H_

/// \file
/// STMaker: the façade wiring sanitize, calibration, feature extraction,
/// partitioning, selection, and text generation into train/serve entry
/// points, plus model persistence and the road-routing seam.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "core/feature.h"
#include "core/feature_extractor.h"
#include "core/historical_feature_map.h"
#include "core/irregularity.h"
#include "core/match_seal.h"
#include "core/partitioner.h"
#include "core/popular_route.h"
#include "core/summary.h"
#include "geo/bounding_box.h"
#include "index/trajectory_index.h"
#include "landmark/landmark_index.h"
#include "landmark/significance.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "traj/calibration.h"
#include "traj/sanitize.h"

namespace stmaker {

class MappedContainer;  // io/container.h

/// Per-summary knobs (Sec. VII-B: feature weights 1, irregular threshold
/// η = 0.2).
struct SummaryOptions {
  /// Number of partitions; 0 requests the unconstrained global optimum
  /// (Sec. IV-C). Values larger than the number of segments are clamped.
  int k = 0;
  /// Landmark-significance weight C_a in the potential (Eq. 2). Note: with
  /// Eq. 3 similarities bounded in [0.5, 1] for non-negative feature
  /// vectors, a boundary cuts only when C_a · l.s exceeds the similarity, so
  /// the paper's stated C_a = 0.5 can never produce a cut (l.s <= 1). We
  /// default to 1.6 so the unconstrained optimum splits at genuinely
  /// significant landmarks; see EXPERIMENTS.md.
  double ca = 1.6;
  double eta = 0.2;  ///< Irregular-rate selection threshold η.
};

/// System-level configuration fixed at construction.
struct STMakerOptions {
  CalibrationOptions calibration;
  FeatureExtractorOptions extraction;
  int significance_iterations = 40;  ///< HITS iterations during Train().
  /// Worker threads for Train()/TrainIncremental() corpus ingestion and the
  /// default for SummarizeBatch(). 1 = serial; 0 = hardware concurrency.
  /// Thread count never changes results (see DESIGN.md, "Parallel execution
  /// & determinism").
  int num_threads = 1;
  /// Input sanitization applied to every trajectory entering the system —
  /// ingestion and serving alike. The default kRepair policy drops
  /// defective points (NaN, out-of-range, backwards time, duplicates,
  /// teleports) and mends the trajectory; kStrict quarantines/rejects it
  /// whole. Clean trajectories pass through bit-identical.
  SanitizeOptions sanitize;
  /// Train/TrainIncremental fail with kFailedPrecondition when more than
  /// this fraction of the corpus was quarantined — a corpus that is mostly
  /// garbage signals an upstream fault, not a few bad trips. 1.0 (default)
  /// never converts quarantine into a hard error.
  double max_quarantine_fraction = 1.0;
  /// Geometry of the spatio-temporal trajectory index built during
  /// Train() (grid cell edge, coarse time bucket). Persisted with the
  /// index so a restored model queries under the geometry it was built
  /// with.
  TrajectoryIndexOptions index;
};

/// \brief Admission and limit knobs for SummarizeBatch.
struct BatchOptions {
  /// Worker threads; 0 = STMakerOptions::num_threads resolved against
  /// hardware concurrency.
  int num_threads = 0;
  /// Optional shared request context (deadline / cancellation) applied to
  /// every item of the batch.
  const RequestContext* context = nullptr;
  /// Admission limit: items with index >= max_items are shed — never run,
  /// their slot reports kResourceExhausted. 0 admits everything. Shedding
  /// is by item index, so the shed set is identical at every thread count
  /// (a racy "first come, first served" policy would make batch results
  /// scheduling-dependent).
  size_t max_items = 0;
};

/// \brief Outcome of one corpus ingestion (Train / TrainIncremental):
/// how many trajectories made it into the model and why the rest were
/// quarantined. Each trip's outcome is recorded in its own slot and the
/// slots are counted in corpus order, so the report is identical at every
/// thread count.
struct IngestReport {
  size_t total = 0;        ///< Trajectories offered.
  size_t ingested = 0;     ///< Trajectories that entered the model.
  size_t quarantined = 0;  ///< Skipped; the sum of the reasons below.
  size_t sanitize_rejected = 0;    ///< kStrict sanitization rejections.
  size_t calibration_failed = 0;   ///< Calibrator returned an error.
  size_t extraction_failed = 0;    ///< Feature extractor returned an error.
  size_t failpoint_injected = 0;   ///< "train/shard" failpoint firings.
  /// Repair statistics (policy kRepair): trajectories that survived with
  /// points dropped, and the total points dropped across the corpus.
  size_t repaired = 0;
  size_t dropped_points = 0;

  double QuarantineFraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(quarantined) /
                            static_cast<double>(total);
  }
  /// "380/400 ingested, 20 quarantined (calibration: 12, sanitize: 8)".
  std::string ToString() const;
};

/// \brief The STMaker system: end-to-end trajectory summarization
/// (Fig. 3's four steps behind one facade).
///
/// Usage:
///   1. Construct over a road network, a landmark index, and a feature
///      registry. Register custom features and adjust weights through
///      registry() *before* Train().
///   2. Train() on a historical trajectory corpus. This mines popular
///      routes, builds the historical feature map, and computes landmark
///      significance (HITS over the corpus's landmark visits), writing the
///      scores into the landmark index.
///   3. Summarize() any raw trajectory.
///
/// Feature *weights* may be changed between Summarize() calls; the feature
/// *set* is fixed once Train() has run.
class STMaker {
 public:
  /// `network` and `landmarks` must outlive the STMaker; `landmarks` is
  /// mutated by Train() (significance installation).
  STMaker(const RoadNetwork* network, LandmarkIndex* landmarks,
          FeatureRegistry registry,
          const STMakerOptions& options = STMakerOptions());

  /// Mutable registry for weight tuning (any time) and custom feature
  /// registration (before Train only).
  FeatureRegistry& registry() { return registry_; }
  const FeatureRegistry& registry() const { return registry_; }

  /// Builds the historical knowledge from a corpus of raw trajectories and
  /// keeps a copy of the corpus as the serving corpus (corpus()).
  /// Defective trajectories are sanitized (options().sanitize) and, when
  /// still unusable, quarantined — counted and skipped, never fatal unless
  /// the quarantine fraction exceeds options().max_quarantine_fraction or
  /// fewer than two trajectories survive. Replaces any previous training.
  /// Ingestion runs on options().num_threads workers; the trained model and
  /// the report are identical for every thread count (see IngestCorpus).
  Status Train(const std::vector<RawTrajectory>& history);

  /// Train(), returning the per-corpus IngestReport on success.
  Result<IngestReport> TrainWithReport(
      const std::vector<RawTrajectory>& history);

  /// Folds additional trajectories into an already-trained model: they are
  /// appended to the serving corpus, popular
  /// routes and the historical feature map accumulate, and landmark
  /// significance is recomputed over the combined visit corpus. Requires a
  /// prior successful Train() or LoadModelContainer() (the container
  /// carries the visit corpus). Quarantine semantics match Train(); when the
  /// quarantine threshold converts to a hard error the existing model is
  /// left untouched.
  Status TrainIncremental(const std::vector<RawTrajectory>& history);

  /// TrainIncremental(), returning the batch's IngestReport on success.
  Result<IngestReport> TrainIncrementalWithReport(
      const std::vector<RawTrajectory>& history);

  bool trained() const { return analyzer_ != nullptr; }
  size_t num_trained() const { return num_trained_; }

  /// The serving corpus: every trajectory the model was trained on, in
  /// training order, exactly as offered (quarantined trips included, so
  /// position t is trip t of the trajectory index). Train and
  /// TrainIncremental append to it, SaveModelContainer seals it into the
  /// container and LoadModelContainer restores it.
  std::span<const RawTrajectory> corpus() const { return corpus_; }

  /// The map-matched edges sealed per corpus trip (one slot per corpus()
  /// position once trained). Train and TrainIncremental seal every trip
  /// that sanitized clean, SaveModelContainer writes the seal and
  /// LoadModelContainer serves it in place from the mapping.
  const MatchSeal& match_seal() const { return match_seal_; }

  /// Summarizes one raw trajectory (requires Train() first). The input is
  /// sanitized with options().sanitize first (kRepair mends defective
  /// fixes; kStrict rejects the request with kInvalidArgument). Features
  /// the model has no baseline for are marked BaselineStatus::kNoBaseline
  /// in the partitions with a neutral irregular rate — a degraded but
  /// well-formed summary rather than garbage or kInternal. Thread-safe
  /// against concurrent Summarize/SummarizeBatch calls — the const serving
  /// path only reads the trained model, and the internal caches
  /// (calibration, popular-route queries) are mutex-guarded. Must not
  /// overlap Train/TrainIncremental/LoadModelContainer.
  ///
  /// `ctx` (optional) bounds the request: the pipeline checks the deadline
  /// and cancellation token at every stage boundary and inside every hot
  /// loop, returning kDeadlineExceeded/kCancelled instead of a truncated
  /// or degraded summary. A null context (the default) means no limits —
  /// byte-identical behaviour to the pre-context API. Context aborts are
  /// never memoized in the internal caches, so a timed-out request leaves
  /// no observable trace for later calls.
  Result<Summary> Summarize(const RawTrajectory& raw,
                            const SummaryOptions& options = SummaryOptions(),
                            const RequestContext* ctx = nullptr) const;

  /// Summarizes corpus trip `trip` (corpus()[trip]): exactly what
  /// Summarize(corpus()[trip], options, ctx) returns, byte for byte. When
  /// the trip is sealed (match_seal()) and its serve-time sanitize report
  /// is clean, the extract stage reads the edges matched at train time
  /// instead of map-matching the trip again (counted in
  /// `roadnet.map_match.sealed`); otherwise it matches live. An
  /// out-of-range trip fails with kOutOfRange.
  Result<Summary> SummarizeTrip(
      size_t trip, const SummaryOptions& options = SummaryOptions(),
      const RequestContext* ctx = nullptr) const;

  /// Summarizes a batch on `num_threads` workers (0 = options().num_threads
  /// resolved against hardware concurrency). Element i of the result is
  /// exactly what Summarize(raws[i], options) returns — same summaries,
  /// same per-item failures, independent of thread count.
  std::vector<Result<Summary>> SummarizeBatch(
      std::span<const RawTrajectory> raws,
      const SummaryOptions& options = SummaryOptions(),
      int num_threads = 0) const;

  /// SummarizeBatch with overload control: `batch.max_items` sheds excess
  /// items deterministically by index (kResourceExhausted), and
  /// `batch.context` applies one shared deadline/cancel context to every
  /// admitted item. Results stay per-item: one slow, shed, or cancelled
  /// trajectory never poisons the rest of its batch.
  std::vector<Result<Summary>> SummarizeBatch(
      std::span<const RawTrajectory> raws, const SummaryOptions& options,
      const BatchOptions& batch) const;

  /// Dumps the trained knowledge — popular-route transitions, the
  /// historical feature map, landmark significances, the landmark visit
  /// corpus, and (when present) the trajectory index and routing
  /// hierarchy — as human-readable CSV files under `prefix`, for diffing
  /// (`stmaker_cli unpack`). One-way: nothing loads these files; the
  /// model container is the only loadable format. Requires Train() first.
  Status SaveModel(const std::string& prefix) const;

  /// Persists the trained model *and its serving world* — road-network
  /// CSR + geometry, CH hierarchy, landmarks with significances,
  /// popular-route transitions, the historical feature map, the visit
  /// corpus, the serving corpus, the frozen trajectory index, and
  /// calibration stats — as one
  /// binary container file (docs/FORMAT.md) that the server mmaps and
  /// serves zero-copy — the one model format (`stmaker_cli train` writes
  /// it). Requires Train() first.
  ///
  /// \param path Destination file, written atomically.
  /// \return OK, or the I/O error.
  Status SaveModelContainer(const std::string& path) const;

  /// Restores the trained knowledge from an opened model container. The
  /// maker must have been constructed over the world restored from the
  /// *same* container (LoadNetworkFromContainer /
  /// LoadLandmarksFromContainer). Feature-set mismatch or damage to a
  /// required section (the serving corpus included) fails, leaving the
  /// maker untrained; a damaged hierarchy or trajectory-index section only
  /// degrades — warning + metric, Dijkstra/scan fallback. The trajectory
  /// index is served in place from the mapping, which it pins; the corpus
  /// is copied out (one memcpy per trip) and the rest of the model state
  /// is replayed from its records.
  ///
  /// \param container An open container (see MappedContainer::Open).
  /// \param corpus_ms When non-null, receives the wall time spent
  ///   restoring the corpus sections (reload attribution).
  /// \return OK, or the validation error.
  Status LoadModelContainer(const MappedContainer& container,
                            double* corpus_ms = nullptr);

  /// Calibration entry point, exposed for tests and tooling.
  Result<CalibratedTrajectory> Calibrate(
      const RawTrajectory& raw, const RequestContext* ctx = nullptr) const;

  /// Contracts the road network into a hierarchy and installs it as the
  /// routing backend for RoadRoute/RoadDistanceTable. SaveModelContainer
  /// then persists it so a served model starts without re-contracting. Preprocessing work, not serving work — run it next to
  /// Train(), never concurrently with queries.
  ///
  /// \return OK, or the ContractionHierarchy::Build error.
  Status BuildRoadHierarchy();

  /// Detaches and discards the hierarchy; road queries return to Dijkstra
  /// and the saved model carries no hierarchy.
  void DropRoadHierarchy();

  /// True when a hierarchy is installed (built, or restored from a
  /// container).
  bool has_road_hierarchy() const { return road_hierarchy_ != nullptr; }

  /// Point-to-point road route under the geometric-length metric —
  /// hierarchy-accelerated when one is installed, plain Dijkstra
  /// otherwise; results are identical either way. Honors `ctx` like
  /// Summarize (deadline, cancellation, expansion budget).
  ///
  /// \param src Start road-network node id.
  /// \param dst Destination road-network node id.
  /// \param ctx Optional request limits (may be null).
  /// \return The path, or the ShortestPathRouter::Route errors.
  Result<Path> RoadRoute(NodeId src, NodeId dst,
                         const RequestContext* ctx = nullptr) const;

  /// Many-to-many length-metric distance table; result[i][j] is the
  /// distance sources[i] -> targets[j] in meters (+infinity when
  /// unreachable). With a hierarchy installed this is the bucket-based
  /// batch query (|S|+|T| small searches); without one it degrades to
  /// |S| Dijkstra sweeps.
  ///
  /// \param sources Source node ids.
  /// \param targets Target node ids.
  /// \param ctx Optional request limits (may be null).
  /// \return The |S|×|T| table, or the query errors.
  Result<std::vector<std::vector<double>>> RoadDistanceTable(
      std::span<const NodeId> sources, std::span<const NodeId> targets,
      const RequestContext* ctx = nullptr) const;

  /// Reduces one raw trajectory to its index descriptor (sanitize →
  /// calibrate → extract → fingerprint), exactly as Train() describes the
  /// corpus trips — the scan fallback and external-query building block.
  /// The returned descriptor carries TripDescriptor::kNoTrip as its id;
  /// callers targeting a corpus trip overwrite it.
  Result<TripDescriptor> DescribeTrip(const RawTrajectory& raw,
                                      const RequestContext* ctx = nullptr)
      const;

  /// Top-k historical trips similar to corpus trip `trip`: among the
  /// corpus trips sharing at least one grid cell or landmark label with it
  /// (its spatio-temporal neighbourhood), ranked by the Eq. 3 weighted
  /// cosine of the feature fingerprints under the current registry
  /// weights, ties broken by ascending trip id. Served from the trajectory
  /// index when one is installed, otherwise by a full corpus scan through
  /// the same pipeline — the results are identical either way (the oracle
  /// suite pins this). `corpus` must be the corpus the model was trained
  /// on, in training order (corpus()); an index whose trip count differs
  /// from it is not used.
  Result<std::vector<TrajectoryIndex::Match>> SimilarTrips(
      std::span<const RawTrajectory> corpus, size_t trip, size_t k,
      const RequestContext* ctx = nullptr) const;

  /// Region/time-window retrieval: the ascending ids of every corpus trip
  /// with at least one sanitized fix inside `box` (and, when `window` is
  /// set, timestamped within [window->first, window->second]). Index
  /// candidates are refined against the actual samples, so indexed and
  /// scan answers are identical.
  Result<std::vector<uint32_t>> QueryRegion(
      std::span<const RawTrajectory> corpus, const BoundingBox& box,
      const std::optional<std::pair<double, double>>& window,
      const RequestContext* ctx = nullptr) const;

  /// The trajectory index, or null when none is installed (untrained,
  /// index build failed, or the persisted index was unusable on load).
  const TrajectoryIndex* trip_index() const { return trip_index_.get(); }

  /// True when similarity/region queries are index-accelerated.
  bool has_trajectory_index() const { return trip_index_ != nullptr; }

  /// Discards the index; similarity/region queries fall back to the full
  /// corpus scan and the saved model carries no index. The
  /// scan-vs-index differential tests and the speedup benchmark use this.
  void DropTrajectoryIndex() { trip_index_.reset(); }

  /// Hit/miss/eviction counters of the serving-path caches (serve mode
  /// prints these on shutdown).
  CacheStats CalibrationCacheStats() const { return calibrator_.Stats(); }
  CacheStats RouteCacheStats() const { return miner_.Stats(); }

  const PopularRouteMiner& popular_routes() const { return miner_; }
  const HistoricalFeatureMap* feature_map() const {
    return feature_map_.get();
  }
  const LandmarkIndex& landmarks() const { return *landmarks_; }

 private:
  /// The staged pipeline body of Summarize (sanitize → calibrate → extract
  /// → partition → select → generate), each stage wrapped in a trace span
  /// and a stage-latency histogram. Summarize() itself only adds the
  /// request counters and the root span — the split keeps "count every
  /// outcome exactly once" trivially correct across the many early
  /// returns.
  /// `sealed` holds the trip's train-time match runs (empty for a live
  /// match); it replaces MapMatcher::Match only when the sanitize report
  /// is clean and the runs cover exactly the sanitized fixes.
  Result<Summary> SummarizeStages(const RawTrajectory& raw,
                                  std::span<const MatchRun> sealed,
                                  const SummaryOptions& options,
                                  const RequestContext* ctx) const;

  /// Sanitizes, calibrates, and mines every trajectory of `history` into
  /// the current accumulators (miner, feature map, visit corpus, match
  /// seal) using `num_threads` workers. Workers run the per-trip pipeline
  /// and record each trip's outcome and contribution in that trip's own
  /// slot; the slots are then counted and replayed into the accumulators
  /// serially in corpus order, so the model and the report are the serial
  /// ones at every thread count by construction (DESIGN.md §8). Unusable
  /// trajectories are quarantined into the report. When the quarantine
  /// fraction exceeds options().max_quarantine_fraction the error is
  /// returned *before* the replay, leaving the member accumulators
  /// untouched.
  Result<IngestReport> IngestCorpus(const std::vector<RawTrajectory>& history,
                                    int num_threads);

  /// Rebuilds HITS significance from the visit corpus and installs the
  /// scores into the landmark index.
  void RecomputeSignificance();

  /// Rebuilds the trajectory index over the previous descriptors (if any)
  /// plus `fresh`, the descriptors of the corpus' last fresh.size() trips
  /// — called at the end of every successful ingest. Without an index over
  /// the earlier trips (a failed build, a dropped or unusable index) it
  /// stays on the scan path until the next full Train(). A build failure
  /// (the "index/build" failpoint) downgrades to the scan path with a
  /// warning and the `index.build_failures` counter; it never fails
  /// training.
  void RebuildTrajectoryIndex(const std::vector<TripDescriptor>& fresh);

  /// Exact region-membership test shared by the indexed refine and the
  /// scan fallback: true when the sanitized form of `raw` has a fix inside
  /// `box` (and the window, when given). Trips that fail sanitization are
  /// not part of the retrieval domain.
  bool TripInRegion(const RawTrajectory& raw, const BoundingBox& box,
                    const std::optional<std::pair<double, double>>& window)
      const;

  const RoadNetwork* network_;
  LandmarkIndex* landmarks_;
  FeatureRegistry registry_;
  STMakerOptions options_;
  Calibrator calibrator_;
  std::unique_ptr<FeatureExtractor> extractor_;
  Partitioner partitioner_;
  PopularRouteMiner miner_;
  std::unique_ptr<HistoricalFeatureMap> feature_map_;
  std::unique_ptr<IrregularityAnalyzer> analyzer_;
  /// Durable training state behind landmark significance: persisted in
  /// the model container, accumulated by TrainIncremental.
  VisitCorpus visit_corpus_;
  size_t num_trained_ = 0;
  /// The serving corpus (see corpus()).
  std::vector<RawTrajectory> corpus_;
  /// One slot per corpus_ trip whenever the maker is trained (see
  /// match_seal()).
  MatchSeal match_seal_;
  /// The spatio-temporal trajectory index over the ingested corpus (null =
  /// scan fallback). Built by Train/TrainIncremental, restored by
  /// LoadModelContainer, dropped with the rest of the model on retrain.
  std::unique_ptr<TrajectoryIndex> trip_index_;
  /// Length-metric road routing facade. The hierarchy (when present) is
  /// attached to the router, which transparently falls back to Dijkstra
  /// for custom cost functions.
  std::unique_ptr<ContractionHierarchy> road_hierarchy_;
  ShortestPathRouter road_router_;
};

/// Rebuilds the road network from a model container's world sections.
/// The CSR adjacency, edge geometry, and edge endpoints alias the mapping
/// zero-copy (RoadNetwork::AdoptMapped), so `container` must outlive the
/// returned network — ModelSnapshot pins it. Section CRCs are verified
/// here (world damage is always fatal: there is no model without a
/// network).
///
/// \param container An open container.
/// \return The network, or kInvalidArgument/kFailedPrecondition naming
///   the damage.
Result<RoadNetwork> LoadNetworkFromContainer(const MappedContainer& container);

/// Rebuilds the landmark dataset — including the persisted significance
/// scores — from a model container. Landmark records are materialized
/// (names are strings), nothing aliases the mapping.
///
/// \param container An open container.
/// \param network The LoadNetworkFromContainer result of the same
///   container (pins the node-id domain).
/// \return The dataset, or kInvalidArgument/kFailedPrecondition naming
///   the damage.
Result<LandmarkIndex> LoadLandmarksFromContainer(
    const MappedContainer& container, const RoadNetwork& network);

}  // namespace stmaker

#endif  // STMAKER_CORE_STMAKER_H_
