#include "index/trajectory_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "core/similarity.h"

namespace stmaker {

namespace {

/// Full-precision double formatting: %.17g round-trips IEEE doubles
/// exactly, so the CSV dump loses nothing.
std::string FmtDouble(double v) { return StrFormat("%.17g", v); }

/// Floor of value/width as a grid index. Coordinates reach this off the
/// wire (bbox corners, window endpoints), so the double→int64 cast
/// saturates instead of hitting UB on huge quotients; NaN maps to cell 0.
/// Request handlers reject non-finite fields before indexing — the
/// saturation here is defense in depth, and keeps finite-but-astronomical
/// values ("1e300") well-defined: they land in the extreme cells, which
/// contain no postings.
int64_t FloorDiv(double value, double width) {
  const double q = std::floor(value / width);
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact in double
  if (std::isnan(q)) return 0;
  if (q >= kTwo63) return std::numeric_limits<int64_t>::max();
  if (q < -kTwo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(q);
}

}  // namespace

uint64_t TrajectoryIndex::CellKey(const Vec2& p, double cell_m) {
  const int64_t cx = FloorDiv(p.x, cell_m);
  const int64_t cy = FloorDiv(p.y, cell_m);
  return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(cy));
}

int64_t TrajectoryIndex::BucketOf(double time, double bucket_s) {
  return FloorDiv(time, bucket_s);
}

TripDescriptor TrajectoryIndex::DescribeSpatial(
    uint32_t trip, const RawTrajectory& sanitized,
    const TrajectoryIndexOptions& options) {
  TripDescriptor d;
  d.trip = trip;
  if (sanitized.samples.empty()) return d;
  d.spatial = true;
  d.t_begin = sanitized.samples.front().time;
  d.t_end = sanitized.samples.back().time;
  d.cell_buckets.reserve(sanitized.samples.size());
  for (const RawSample& s : sanitized.samples) {
    d.bbox.Extend(s.pos);
    d.cell_buckets.push_back({CellKey(s.pos, options.cell_m),
                              BucketOf(s.time, options.bucket_s)});
  }
  std::sort(d.cell_buckets.begin(), d.cell_buckets.end());
  d.cell_buckets.erase(
      std::unique(d.cell_buckets.begin(), d.cell_buckets.end()),
      d.cell_buckets.end());
  return d;
}

void TrajectoryIndex::FinishDescriptor(
    const SymbolicTrajectory& symbolic,
    const std::vector<std::vector<double>>& normalized, size_t num_features,
    TripDescriptor* descriptor) {
  descriptor->sequence.clear();
  descriptor->sequence.reserve(symbolic.samples.size());
  for (const SymbolicSample& s : symbolic.samples) {
    descriptor->sequence.push_back(s.landmark);
  }
  descriptor->labels = descriptor->sequence;
  std::sort(descriptor->labels.begin(), descriptor->labels.end());
  descriptor->labels.erase(
      std::unique(descriptor->labels.begin(), descriptor->labels.end()),
      descriptor->labels.end());
  descriptor->fingerprint.assign(num_features, 0.0);
  if (!normalized.empty()) {
    for (const std::vector<double>& v : normalized) {
      STMAKER_CHECK(v.size() == num_features);
      for (size_t f = 0; f < num_features; ++f) {
        descriptor->fingerprint[f] += v[f];
      }
    }
    for (size_t f = 0; f < num_features; ++f) {
      descriptor->fingerprint[f] /= static_cast<double>(normalized.size());
    }
  }
  descriptor->scored = true;
}

TripDescriptorView TripDescriptorTable::operator[](size_t trip) const {
  const FrozenTrip& r = arrays_->trips[trip];
  TripDescriptorView v;
  v.trip = r.trip;
  v.spatial = r.spatial != 0;
  v.scored = r.scored != 0;
  v.bbox.min = Vec2{r.min_x, r.min_y};
  v.bbox.max = Vec2{r.max_x, r.max_y};
  v.t_begin = r.t_begin;
  v.t_end = r.t_end;
  v.cell_buckets = arrays_->cells.subspan(r.cells_begin, r.cells_count);
  v.labels = arrays_->labels.subspan(r.labels_begin, r.labels_count);
  if (v.scored) {
    v.fingerprint = arrays_->fingerprints.subspan(trip * num_features_,
                                                  num_features_);
  }
  return v;
}

namespace {

/// The vectors a built index's arrays alias; the index's backing owns it.
struct OwnedArrays {
  std::vector<FrozenTrip> trips;
  std::vector<CellBucket> cells;
  std::vector<LandmarkId> labels;
  std::vector<double> fingerprints;
  std::vector<uint64_t> cell_keys;
  std::vector<uint32_t> cell_offsets, cell_ids;
  std::vector<CellBucket> cell_bucket_keys;
  std::vector<uint32_t> cell_bucket_offsets, cell_bucket_ids;
  std::vector<LandmarkId> label_keys;
  std::vector<uint32_t> label_offsets, label_ids;
};

/// Inverts (key, trip) pairs into CSR posting lists. Sorting the pairs
/// orders the keys and, within a key, the trip ids.
template <typename Key>
PostingLists<Key> Invert(std::vector<std::pair<Key, uint32_t>> pairs,
                         std::vector<Key>* keys,
                         std::vector<uint32_t>* offsets,
                         std::vector<uint32_t>* ids) {
  std::sort(pairs.begin(), pairs.end());
  ids->reserve(pairs.size());
  for (const auto& [key, trip] : pairs) {
    if (keys->empty() || keys->back() != key) {
      keys->push_back(key);
      offsets->push_back(static_cast<uint32_t>(ids->size()));
    }
    ids->push_back(trip);
  }
  offsets->push_back(static_cast<uint32_t>(ids->size()));
  return PostingLists<Key>{*keys, *offsets, *ids};
}

/// Checks one posting family: CSR geometry, strictly ascending keys,
/// non-empty lists of strictly ascending ids, and every id naming a trip
/// of the right kind (spatial for the cell families, scored for labels).
template <typename Key>
Status ValidatePostings(const char* family, const PostingLists<Key>& p,
                        std::span<const FrozenTrip> trips, bool labels) {
  auto bad = [&](const char* what) {
    return Status::InvalidArgument(
        StrFormat("trajectory index %s postings: %s", family, what));
  };
  if (p.offsets.size() != p.keys.size() + 1 || p.offsets[0] != 0 ||
      p.offsets.back() != p.ids.size()) {
    return bad("offsets do not frame the trip ids");
  }
  for (size_t k = 0; k < p.keys.size(); ++k) {
    if (k > 0 && !(p.keys[k - 1] < p.keys[k])) {
      return bad("keys are not strictly ascending");
    }
    if (p.offsets[k] >= p.offsets[k + 1] || p.offsets[k + 1] > p.ids.size()) {
      return bad("offsets are not strictly increasing");
    }
    for (uint32_t i = p.offsets[k]; i < p.offsets[k + 1]; ++i) {
      const uint32_t trip = p.ids[i];
      if (trip >= trips.size()) return bad("trip id out of range");
      if (i > p.offsets[k] && p.ids[i - 1] >= trip) {
        return bad("trip ids are not strictly ascending");
      }
      if ((labels ? trips[trip].scored : trips[trip].spatial) == 0) {
        return bad("posting names a trip outside the family");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<TrajectoryIndex> TrajectoryIndex::Build(
    const TrajectoryIndexOptions& options, size_t num_features,
    std::span<const TripDescriptorView> descriptors) {
  if (options.cell_m <= 0 || options.bucket_s <= 0) {
    return Status::InvalidArgument(
        "trajectory index needs positive cell_m and bucket_s");
  }
  STMAKER_FAILPOINT("index/build", return Status::Internal(
                                       "index build failed (injected)"));
  auto owned = std::make_shared<OwnedArrays>();
  std::vector<std::pair<uint64_t, uint32_t>> cell_pairs;
  std::vector<std::pair<CellBucket, uint32_t>> cell_bucket_pairs;
  std::vector<std::pair<LandmarkId, uint32_t>> label_pairs;
  owned->trips.reserve(descriptors.size());
  owned->fingerprints.reserve(descriptors.size() * num_features);
  for (size_t i = 0; i < descriptors.size(); ++i) {
    const TripDescriptorView& d = descriptors[i];
    const uint32_t trip = static_cast<uint32_t>(i);
    FrozenTrip r;
    r.trip = trip;
    r.spatial = d.spatial ? 1 : 0;
    r.scored = d.scored ? 1 : 0;
    r.min_x = d.bbox.min.x;
    r.min_y = d.bbox.min.y;
    r.max_x = d.bbox.max.x;
    r.max_y = d.bbox.max.y;
    r.t_begin = d.t_begin;
    r.t_end = d.t_end;
    r.cells_begin = owned->cells.size();
    r.cells_count = d.cell_buckets.size();
    r.labels_begin = owned->labels.size();
    r.labels_count = d.labels.size();
    owned->trips.push_back(r);
    owned->cells.insert(owned->cells.end(), d.cell_buckets.begin(),
                        d.cell_buckets.end());
    owned->labels.insert(owned->labels.end(), d.labels.begin(),
                         d.labels.end());
    if (d.scored) {
      STMAKER_CHECK(d.fingerprint.size() == num_features);
      owned->fingerprints.insert(owned->fingerprints.end(),
                                 d.fingerprint.begin(), d.fingerprint.end());
    } else {
      // Unscored trips hold an all-zero row so the matrix stays
      // rectangular.
      owned->fingerprints.resize(owned->fingerprints.size() + num_features,
                                 0.0);
    }
    if (!d.spatial) continue;
    for (size_t c = 0; c < d.cell_buckets.size(); ++c) {
      const CellBucket& cb = d.cell_buckets[c];
      cell_bucket_pairs.emplace_back(cb, trip);
      // cell_buckets is sorted by (cell, bucket), so distinct cells arrive
      // as runs — the previous-cell check dedups the (cell, *, *) family.
      if (c == 0 || d.cell_buckets[c - 1].cell != cb.cell) {
        cell_pairs.emplace_back(cb.cell, trip);
      }
    }
    if (!d.scored) continue;
    for (LandmarkId label : d.labels) label_pairs.emplace_back(label, trip);
  }
  constexpr size_t kMax32 = std::numeric_limits<uint32_t>::max();
  if (descriptors.size() > kMax32 || cell_bucket_pairs.size() > kMax32 ||
      label_pairs.size() > kMax32) {
    return Status::ResourceExhausted(
        "trajectory index exceeds its 32-bit trip ids or offsets");
  }

  TrajectoryIndex index;
  index.options_ = options;
  index.num_features_ = num_features;
  FrozenIndexArrays& a = index.arrays_;
  a.trips = owned->trips;
  a.cells = owned->cells;
  a.labels = owned->labels;
  a.fingerprints = owned->fingerprints;
  a.cell = Invert(std::move(cell_pairs), &owned->cell_keys,
                  &owned->cell_offsets, &owned->cell_ids);
  a.cell_bucket =
      Invert(std::move(cell_bucket_pairs), &owned->cell_bucket_keys,
             &owned->cell_bucket_offsets, &owned->cell_bucket_ids);
  a.label = Invert(std::move(label_pairs), &owned->label_keys,
                   &owned->label_offsets, &owned->label_ids);
  index.backing_ = std::move(owned);
  return index;
}

Result<TrajectoryIndex> TrajectoryIndex::Adopt(
    const TrajectoryIndexOptions& options, size_t num_features,
    const FrozenIndexArrays& arrays, std::shared_ptr<const void> backing) {
  if (!(options.cell_m > 0) || !(options.bucket_s > 0)) {
    return Status::InvalidArgument(
        "trajectory index needs positive cell_m and bucket_s");
  }
  const std::span<const FrozenTrip> trips = arrays.trips;
  if (trips.size() > std::numeric_limits<uint32_t>::max() ||
      (num_features != 0 &&
       arrays.fingerprints.size() / num_features != trips.size()) ||
      arrays.fingerprints.size() != trips.size() * num_features) {
    return Status::InvalidArgument(StrFormat(
        "trajectory index: %zu fingerprint entries for %zu trips of %zu "
        "features",
        arrays.fingerprints.size(), trips.size(), num_features));
  }
  // Per trip: the record's own fields, its cell and label slices, and the
  // posting counts those slices imply (checked against the families
  // below, so a list cannot silently drop or invent a posting count).
  uint64_t cell_postings = 0;
  uint64_t cell_bucket_postings = 0;
  uint64_t label_postings = 0;
  for (size_t i = 0; i < trips.size(); ++i) {
    const FrozenTrip& r = trips[i];
    if (r.trip != i || r.spatial > 1 || r.scored > 1) {
      return Status::InvalidArgument(
          StrFormat("trajectory index: trip record %zu malformed", i));
    }
    if (r.cells_count > arrays.cells.size() ||
        r.cells_begin > arrays.cells.size() - r.cells_count ||
        r.labels_count > arrays.labels.size() ||
        r.labels_begin > arrays.labels.size() - r.labels_count) {
      return Status::InvalidArgument(StrFormat(
          "trajectory index: trip %zu cell/label slice out of bounds", i));
    }
    const std::span<const CellBucket> cells =
        arrays.cells.subspan(r.cells_begin, r.cells_count);
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0 && !(cells[c - 1] < cells[c])) {
        return Status::InvalidArgument(StrFormat(
            "trajectory index: trip %zu cells are not strictly ascending",
            i));
      }
      if (r.spatial != 0 && (c == 0 || cells[c - 1].cell != cells[c].cell)) {
        ++cell_postings;
      }
    }
    const std::span<const LandmarkId> labels =
        arrays.labels.subspan(r.labels_begin, r.labels_count);
    for (size_t l = 1; l < labels.size(); ++l) {
      if (!(labels[l - 1] < labels[l])) {
        return Status::InvalidArgument(StrFormat(
            "trajectory index: trip %zu labels are not strictly ascending",
            i));
      }
    }
    if (r.spatial != 0) cell_bucket_postings += cells.size();
    if (r.scored != 0) label_postings += labels.size();
  }
  STMAKER_RETURN_IF_ERROR(ValidatePostings("cell", arrays.cell, trips,
                                           /*labels=*/false));
  STMAKER_RETURN_IF_ERROR(ValidatePostings(
      "cell-bucket", arrays.cell_bucket, trips, /*labels=*/false));
  STMAKER_RETURN_IF_ERROR(ValidatePostings("label", arrays.label, trips,
                                           /*labels=*/true));
  if (arrays.cell.ids.size() != cell_postings ||
      arrays.cell_bucket.ids.size() != cell_bucket_postings ||
      arrays.label.ids.size() != label_postings) {
    return Status::InvalidArgument(
        "trajectory index: posting counts disagree with the trip records");
  }
  TrajectoryIndex index;
  index.options_ = options;
  index.num_features_ = num_features;
  index.arrays_ = arrays;
  index.backing_ = std::move(backing);
  return index;
}

std::vector<uint32_t> TrajectoryIndex::SimilarCandidates(
    const TripDescriptorView& query) const {
  const FrozenIndexArrays& a = arrays_;
  std::vector<char> marked(a.trips.size(), 0);
  auto mark = [&](std::span<const uint32_t> postings) {
    for (uint32_t trip : postings) marked[trip] = 1;
  };
  // The query's cells and labels ascend, so each search starts where the
  // previous one ended.
  size_t at = 0;
  for (size_t c = 0; c < query.cell_buckets.size(); ++c) {
    const uint64_t cell = query.cell_buckets[c].cell;
    if (c > 0 && query.cell_buckets[c - 1].cell == cell) continue;
    at = a.cell.LowerBound(cell, at);
    if (at == a.cell.keys.size()) break;
    if (a.cell.keys[at] == cell) mark(a.cell.list(at));
  }
  at = 0;
  for (LandmarkId label : query.labels) {
    at = a.label.LowerBound(label, at);
    if (at == a.label.keys.size()) break;
    if (a.label.keys[at] == label) mark(a.label.list(at));
  }
  std::vector<uint32_t> out;
  for (size_t t = 0; t < marked.size(); ++t) {
    if (!marked[t]) continue;
    if (static_cast<uint32_t>(t) == query.trip) continue;
    // Cell postings also hold spatial-but-unscored trips, which have no
    // fingerprint to rank; the similarity domain is the scored corpus.
    if (a.trips[t].scored == 0) continue;
    out.push_back(static_cast<uint32_t>(t));
  }
  return out;
}

Result<std::vector<TrajectoryIndex::Match>> TrajectoryIndex::SimilarTopK(
    const TripDescriptorView& query, size_t k,
    const std::vector<double>& weights, const RequestContext* ctx) const {
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  std::vector<Match> scored;
  CancelCheck check(ctx);
  for (uint32_t trip : SimilarCandidates(query)) {
    STMAKER_RETURN_IF_ERROR(check.Tick());
    scored.push_back(Match{
        trip, SegmentSimilarity(
                  query.fingerprint,
                  arrays_.fingerprints.subspan(
                      static_cast<size_t>(trip) * num_features_,
                      num_features_),
                  weights)});
  }
  std::sort(scored.begin(), scored.end(), [](const Match& a, const Match& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.trip < b.trip;
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

Result<std::vector<uint32_t>> TrajectoryIndex::RegionCandidates(
    const BoundingBox& box, bool has_window, double t0, double t1,
    const RequestContext* ctx) const {
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  std::vector<uint32_t> out;
  if (box.IsEmpty() || (has_window && t1 < t0)) return out;
  const int64_t cx0 = FloorDiv(box.min.x, options_.cell_m);
  const int64_t cx1 = FloorDiv(box.max.x, options_.cell_m);
  const int64_t cy0 = FloorDiv(box.min.y, options_.cell_m);
  const int64_t cy1 = FloorDiv(box.max.y, options_.cell_m);
  int64_t b0 = std::numeric_limits<int64_t>::min();
  int64_t b1 = std::numeric_limits<int64_t>::max();
  if (has_window) {
    b0 = BucketOf(t0, options_.bucket_s);
    b1 = BucketOf(t1, options_.bucket_s);
  }
  const FrozenIndexArrays& a = arrays_;
  CancelCheck check(ctx);
  std::vector<char> marked(a.trips.size(), 0);
  auto mark = [&](std::span<const uint32_t> postings) {
    for (uint32_t trip : postings) marked[trip] = 1;
  };
  // Marks every key of the family whose cell lies in [lo, hi] (and, with a
  // window, whose bucket lies in [b0, b1]). Cell keys order by column, then
  // by the row as uint32, so [lo, hi] within one column is one contiguous
  // run of keys; the windowed family skips each cell's out-of-window
  // buckets by binary search instead of walking them.
  auto mark_run = [&](uint64_t lo, uint64_t hi) -> Status {
    if (!has_window) {
      for (size_t i = a.cell.LowerBound(lo);
           i < a.cell.keys.size() && a.cell.keys[i] <= hi; ++i) {
        STMAKER_RETURN_IF_ERROR(check.Tick());
        mark(a.cell.list(i));
      }
      return Status::OK();
    }
    const PostingLists<CellBucket>& p = a.cell_bucket;
    size_t i = p.LowerBound(CellBucket{lo, b0});
    while (i < p.keys.size() && p.keys[i].cell <= hi) {
      STMAKER_RETURN_IF_ERROR(check.Tick());
      const CellBucket& key = p.keys[i];
      if (key.bucket < b0) {
        i = p.LowerBound(CellBucket{key.cell, b0}, i);
      } else if (key.bucket > b1) {
        if (key.cell == hi) break;
        i = p.LowerBound(CellBucket{key.cell + 1, b0}, i);
      } else {
        mark(p.list(i));
        ++i;
      }
    }
    return Status::OK();
  };
  // Walk the box column by column: one range scan per column (two when
  // the row range wraps the uint32 row encoding). Columns are counted as
  // offsets from cx0, computed in uint64 — cx1 may sit at the saturation
  // limit, and a saturated span would overflow int64. A box wider than
  // kMaxColumns walks every key and filters instead; that walk is bounded
  // by the index, not by the client's box. The choice depends on the
  // request only, never on the thread count.
  constexpr uint64_t kMaxColumns = uint64_t{1} << 16;
  const uint64_t span_x =
      static_cast<uint64_t>(cx1) - static_cast<uint64_t>(cx0);
  const uint64_t span_y =
      static_cast<uint64_t>(cy1) - static_cast<uint64_t>(cy0);
  if (span_x < kMaxColumns) {
    const uint32_t row0 = static_cast<uint32_t>(cy0);
    const uint32_t row1 = static_cast<uint32_t>(cy1);
    for (uint64_t ix = 0; ix <= span_x; ++ix) {
      STMAKER_RETURN_IF_ERROR(check.Tick());
      const uint64_t column =
          static_cast<uint64_t>(
              static_cast<uint32_t>(cx0 + static_cast<int64_t>(ix)))
          << 32;
      if (span_y >= std::numeric_limits<uint32_t>::max()) {
        STMAKER_RETURN_IF_ERROR(mark_run(column, column | 0xffffffffu));
      } else if (row0 <= row1) {
        STMAKER_RETURN_IF_ERROR(mark_run(column | row0, column | row1));
      } else {
        STMAKER_RETURN_IF_ERROR(mark_run(column | row0, column | 0xffffffffu));
        STMAKER_RETURN_IF_ERROR(mark_run(column, column | row1));
      }
    }
  } else {
    auto cell_in_range = [&](uint64_t cell) {
      const int64_t cx = static_cast<int32_t>(cell >> 32);
      const int64_t cy = static_cast<int32_t>(cell & 0xffffffffu);
      return cx >= cx0 && cx <= cx1 && cy >= cy0 && cy <= cy1;
    };
    if (has_window) {
      const PostingLists<CellBucket>& p = a.cell_bucket;
      for (size_t i = 0; i < p.keys.size(); ++i) {
        STMAKER_RETURN_IF_ERROR(check.Tick());
        const CellBucket& key = p.keys[i];
        if (key.bucket < b0 || key.bucket > b1) continue;
        if (cell_in_range(key.cell)) mark(p.list(i));
      }
    } else {
      for (size_t i = 0; i < a.cell.keys.size(); ++i) {
        STMAKER_RETURN_IF_ERROR(check.Tick());
        if (cell_in_range(a.cell.keys[i])) mark(a.cell.list(i));
      }
    }
  }
  for (size_t t = 0; t < marked.size(); ++t) {
    if (marked[t]) out.push_back(static_cast<uint32_t>(t));
  }
  return out;
}

std::string TrajectoryIndex::SaveToString() const {
  CsvBuilder csv;
  csv.Row({"record", "id", "a", "b", "c", "d"});
  csv.Row({"options", "0", FmtDouble(options_.cell_m),
           FmtDouble(options_.bucket_s), "", ""});
  const TripDescriptorTable table = descriptors();
  for (size_t t = 0; t < table.size(); ++t) {
    const TripDescriptorView d = table[t];
    const std::string id = std::to_string(d.trip);
    const int flags = (d.spatial ? 1 : 0) | (d.scored ? 2 : 0);
    csv.Row({"trip", id, std::to_string(flags), FmtDouble(d.t_begin),
             FmtDouble(d.t_end), ""});
    if (!d.spatial) continue;
    csv.Row({"bbox", id, FmtDouble(d.bbox.min.x), FmtDouble(d.bbox.min.y),
             FmtDouble(d.bbox.max.x), FmtDouble(d.bbox.max.y)});
    std::vector<std::string> cells;
    cells.reserve(d.cell_buckets.size());
    for (const auto& [cell, bucket] : d.cell_buckets) {
      cells.push_back(StrFormat("%llu:%lld",
                                static_cast<unsigned long long>(cell),
                                static_cast<long long>(bucket)));
    }
    csv.Row({"cells", id, Join(cells, ";"), "", "", ""});
    if (!d.scored) continue;
    std::vector<std::string> labels;
    labels.reserve(d.labels.size());
    for (LandmarkId label : d.labels) {
      labels.push_back(std::to_string(label));
    }
    csv.Row({"labels", id, Join(labels, ";"), "", "", ""});
    std::vector<std::string> fp;
    fp.reserve(d.fingerprint.size());
    for (double v : d.fingerprint) fp.push_back(FmtDouble(v));
    csv.Row({"fp", id, Join(fp, ";"), "", "", ""});
  }
  return csv.str();
}

}  // namespace stmaker
