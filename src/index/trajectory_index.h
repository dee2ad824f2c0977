#ifndef STMAKER_INDEX_TRAJECTORY_INDEX_H_
#define STMAKER_INDEX_TRAJECTORY_INDEX_H_

/// \file
/// \brief Grid-bucketed spatio-temporal inverted index over the historical
/// trajectory corpus (DESIGN.md §16).
///
/// Every ingested trip is reduced to a TripDescriptor: its bounding box and
/// time range, the set of grid cells its (sanitized) fixes fall into — each
/// tagged with the coarse time bucket of the visit — the set of landmark
/// labels of its calibrated symbolic sequence, and a feature-sequence
/// fingerprint (the mean of the trip's normalized per-segment feature
/// vectors) for Eq. 3 weighted-cosine scoring. The index inverts those
/// descriptors into posting lists keyed by (grid cell, landmark label,
/// coarse time bucket), where a wildcard marks the dimensions a family does
/// not constrain:
///
///   (cell, *, bucket)  trips with a fix in `cell` during `bucket`
///   (cell, *, *)       trips with a fix in `cell` at any time
///   (*, label, *)      trips whose symbolic sequence visits `label`
///
/// The index is frozen: the descriptors and the three posting families are
/// flat arrays (fixed-width trip records; per family, sorted keys, uint32
/// offsets and ascending uint32 trip ids), searched in place by binary
/// search. Train builds them into owned vectors; a container load serves
/// them straight from the mapping after one O(size) validation pass. The
/// same query code runs over both.
///
/// Queries follow the filter-refine pattern: posting lookups produce a
/// candidate id set that provably contains every true result, and an exact
/// pass (cosine re-rank for similarity, raw-sample containment for region
/// retrieval — the latter lives in STMaker, which owns the sanitizer)
/// removes false positives. Results are therefore identical to a brute-force
/// corpus scan, which tests/index_test.cc pins with a differential oracle.
///
/// Determinism: descriptors are built per trip (sharded ingestion writes
/// disjoint slots) and the postings are a sort of (key, trip) pairs, so the
/// index — and its serialized form — is byte-identical at every thread
/// count. All ranking ties break by ascending trip id.

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "geo/bounding_box.h"
#include "geo/vec2.h"
#include "landmark/landmark.h"
#include "traj/trajectory.h"

namespace stmaker {

/// Index geometry, fixed at build time and persisted with the index so a
/// restored index always agrees with its own postings.
struct TrajectoryIndexOptions {
  /// Grid cell edge length (meters) of the spatial bucketing.
  double cell_m = 250.0;
  /// Coarse time bucket width (seconds) of the temporal bucketing.
  double bucket_s = 3600.0;
};

/// One (grid cell, coarse time bucket) visit, ordered by cell, then bucket.
/// The layout is the container's kTripCells record.
struct CellBucket {
  uint64_t cell = 0;
  int64_t bucket = 0;
  friend auto operator<=>(const CellBucket&, const CellBucket&) = default;
};

/// \brief One corpus trip reduced to its index-relevant shape.
///
/// `trip` is the trip's position in the serving corpus. `spatial` is true
/// when the trip sanitized cleanly (bbox/time/cells valid); `scored` when
/// the full calibrate→extract pipeline succeeded as well (labels/
/// fingerprint valid). A quarantined trip keeps its slot — descriptor i is
/// always trip i — but participates in no posting list.
struct TripDescriptor {
  /// Sentinel for descriptors of external (non-corpus) query trajectories.
  static constexpr uint32_t kNoTrip = std::numeric_limits<uint32_t>::max();

  uint32_t trip = kNoTrip;
  bool spatial = false;  ///< bbox, t_begin/t_end, cell_buckets are valid
  bool scored = false;   ///< labels, sequence, fingerprint are valid

  BoundingBox bbox;          ///< over the sanitized raw fixes
  double t_begin = 0;        ///< first fix timestamp
  double t_end = 0;          ///< last fix timestamp
  /// Sorted, unique (grid cell, time bucket) visits of the raw fixes.
  std::vector<CellBucket> cell_buckets;
  /// Sorted, unique landmark labels of the symbolic sequence.
  std::vector<LandmarkId> labels;
  /// The ordered symbolic landmark sequence. Train-time only (popular-route
  /// mining replays transitions from it); not part of the index.
  std::vector<LandmarkId> sequence;
  /// Mean of the normalized per-segment feature vectors (one entry per
  /// registry feature) — the Eq. 3 scoring vector.
  std::vector<double> fingerprint;
};

/// A read-only view of one descriptor: in place in an index's arrays, or
/// over a TripDescriptor (external queries, index builds). Unscored trips
/// have an empty fingerprint.
struct TripDescriptorView {
  uint32_t trip = TripDescriptor::kNoTrip;
  bool spatial = false;
  bool scored = false;
  BoundingBox bbox;
  double t_begin = 0;
  double t_end = 0;
  std::span<const CellBucket> cell_buckets;
  std::span<const LandmarkId> labels;
  std::span<const double> fingerprint;

  TripDescriptorView() = default;
  TripDescriptorView(const TripDescriptor& d)  // NOLINT: implicit by design
      : trip(d.trip),
        spatial(d.spatial),
        scored(d.scored),
        bbox(d.bbox),
        t_begin(d.t_begin),
        t_end(d.t_end),
        cell_buckets(d.cell_buckets),
        labels(d.labels),
        fingerprint(d.fingerprint) {}
};

/// Fixed-width record of one descriptor in a frozen index. Its cells,
/// labels and fingerprint live in the shared arrays, addressed by (begin,
/// count). The layout is the container's kTripDescriptors record.
struct FrozenTrip {
  uint32_t trip = 0;
  uint8_t spatial = 0;  ///< 0 or 1.
  uint8_t scored = 0;   ///< 0 or 1.
  uint16_t pad = 0;     ///< Zero.
  double min_x = 0, min_y = 0, max_x = 0, max_y = 0;  ///< Bounding box.
  double t_begin = 0, t_end = 0;
  uint64_t cells_begin = 0;   ///< First entry in FrozenIndexArrays::cells.
  uint64_t cells_count = 0;
  uint64_t labels_begin = 0;  ///< First entry in FrozenIndexArrays::labels.
  uint64_t labels_count = 0;
};

/// One posting family in CSR form: `keys` strictly ascending; the list of
/// keys[i] is ids[offsets[i], offsets[i + 1]), ascending trip ids.
template <typename Key>
struct PostingLists {
  std::span<const Key> keys;
  std::span<const uint32_t> offsets;  ///< keys.size() + 1 entries.
  std::span<const uint32_t> ids;

  std::span<const uint32_t> list(size_t i) const {
    return ids.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
  /// Index of the first key not less than `key`, searching from `from`.
  size_t LowerBound(const Key& key, size_t from = 0) const {
    return static_cast<size_t>(
        std::lower_bound(keys.begin() + static_cast<ptrdiff_t>(from),
                         keys.end(), key) -
        keys.begin());
  }
};

/// Everything a TrajectoryIndex reads, as flat arrays — exactly the
/// index's container sections (docs/FORMAT.md §5). After a build they are
/// owned vectors; after a container load they alias the mapping.
struct FrozenIndexArrays {
  std::span<const FrozenTrip> trips;     ///< One record per corpus trip.
  std::span<const CellBucket> cells;     ///< All trips' cell visits.
  std::span<const LandmarkId> labels;    ///< All trips' landmark labels.
  std::span<const double> fingerprints;  ///< trips x num_features, row-major.
  PostingLists<uint64_t> cell;           ///< (cell, *, *)
  PostingLists<CellBucket> cell_bucket;  ///< (cell, *, bucket)
  PostingLists<LandmarkId> label;        ///< (*, label, *)
};

/// The descriptors of an index, viewed in place: descriptors()[t] is trip
/// t's TripDescriptorView.
class TripDescriptorTable {
 public:
  TripDescriptorTable(const FrozenIndexArrays* arrays, size_t num_features)
      : arrays_(arrays), num_features_(num_features) {}
  size_t size() const { return arrays_->trips.size(); }
  TripDescriptorView operator[](size_t trip) const;

 private:
  const FrozenIndexArrays* arrays_;
  size_t num_features_;
};

/// See the file comment. Immutable once built; concurrent const queries
/// are safe. Copies share the same arrays.
class TrajectoryIndex {
 public:
  /// One ranked similarity result.
  struct Match {
    uint32_t trip = 0;
    double score = 0;  ///< Eq. 3 weighted cosine in [0, 1]
  };

  /// Builds the frozen arrays from `descriptors`: descriptor i becomes trip
  /// i, and every scored descriptor carries `num_features` fingerprint
  /// entries. The views need only live for the call. Failpoint
  /// "index/build" injects a build failure so tests can prove training and
  /// serving degrade to the scan path cleanly.
  static Result<TrajectoryIndex> Build(
      const TrajectoryIndexOptions& options, size_t num_features,
      std::span<const TripDescriptorView> descriptors);

  /// Serves `arrays` in place — no copy, no rebuild. `backing` owns the
  /// memory the arrays alias (the mapped container) and is pinned for the
  /// index's lifetime. Every record, offset, trip id and key order is
  /// validated first, in one O(size) pass, so a hostile file can make the
  /// load fail but never make a query read out of bounds.
  static Result<TrajectoryIndex> Adopt(const TrajectoryIndexOptions& options,
                                       size_t num_features,
                                       const FrozenIndexArrays& arrays,
                                       std::shared_ptr<const void> backing);

  /// Grid cell key of a point: the packed (floor(x/cell), floor(y/cell))
  /// integer pair.
  static uint64_t CellKey(const Vec2& p, double cell_m);
  /// Coarse time bucket of a timestamp.
  static int64_t BucketOf(double time, double bucket_s);

  /// Builds the spatial half of a descriptor from a sanitized trajectory
  /// (bbox, time range, cell/bucket visits). `scored` stays false.
  static TripDescriptor DescribeSpatial(uint32_t trip,
                                        const RawTrajectory& sanitized,
                                        const TrajectoryIndexOptions& options);

  /// Completes a spatial descriptor with the calibrated labels and the
  /// feature fingerprint (`normalized` is NormalizeSegmentFeatures output,
  /// one vector per segment; the fingerprint is their per-dimension mean).
  static void FinishDescriptor(const SymbolicTrajectory& symbolic,
                               const std::vector<std::vector<double>>& normalized,
                               size_t num_features, TripDescriptor* descriptor);

  const TrajectoryIndexOptions& options() const { return options_; }
  /// The frozen arrays (the container writer stores them verbatim).
  const FrozenIndexArrays& arrays() const { return arrays_; }
  TripDescriptorTable descriptors() const {
    return TripDescriptorTable(&arrays_, num_features_);
  }
  /// Total posting-list entries across every key family (observability).
  size_t num_postings() const {
    return arrays_.cell.ids.size() + arrays_.cell_bucket.ids.size() +
           arrays_.label.ids.size();
  }

  /// Candidate generation for similarity: the ascending trip ids of every
  /// scored trip sharing at least one grid cell or landmark label with
  /// `query`, excluding `query.trip` itself. This is exactly the
  /// relatedness filter of the retrieval semantics, not an approximation —
  /// the re-rank only orders it.
  std::vector<uint32_t> SimilarCandidates(const TripDescriptorView& query) const;

  /// Top-k similar trips: SimilarCandidates scored by the Eq. 3 weighted
  /// cosine of the fingerprints under `weights`, ranked by (score desc,
  /// trip id asc). `ctx` bounds the scan (kDeadlineExceeded/kCancelled).
  Result<std::vector<Match>> SimilarTopK(const TripDescriptorView& query,
                                         size_t k,
                                         const std::vector<double>& weights,
                                         const RequestContext* ctx) const;

  /// Candidate generation for region/time-window retrieval: ascending trip
  /// ids of spatial trips with a posting in a grid cell overlapping `box`
  /// (and, with a window, in a bucket overlapping [t0, t1]). A superset of
  /// the true result set — every trip with a fix inside the box posted the
  /// fix's own cell — which the caller refines against raw samples. `ctx`
  /// bounds the walk (kDeadlineExceeded/kCancelled): box and window arrive
  /// off the wire, so the loops must stay cancellable.
  Result<std::vector<uint32_t>> RegionCandidates(const BoundingBox& box,
                                                 bool has_window, double t0,
                                                 double t1,
                                                 const RequestContext* ctx) const;

  /// Serializes the options and descriptors as CSV (the human-readable
  /// `_index.csv` of `stmaker_cli unpack`; postings are derived state and
  /// are left out).
  std::string SaveToString() const;

 private:
  TrajectoryIndex() = default;

  TrajectoryIndexOptions options_;
  size_t num_features_ = 0;
  FrozenIndexArrays arrays_;
  /// Owns what arrays_ aliases: the built vectors, or the mapped container.
  std::shared_ptr<const void> backing_;
};

}  // namespace stmaker

#endif  // STMAKER_INDEX_TRAJECTORY_INDEX_H_
