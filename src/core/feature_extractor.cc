#include "core/feature_extractor.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace stmaker {

namespace {

/// Majority vote over a dense enum range [1, kMax]; ties go to the smallest
/// enum value, exactly like max_element over the ordered map this replaces
/// (strict-< keeps the first maximum, and std::map iterates keys ascending).
template <typename E, int kMax>
class EnumVotes {
 public:
  void Vote(E v) { counts_[static_cast<int>(v)]++; }
  E Best() const {
    int best = 1;
    for (int v = 2; v <= kMax; ++v) {
      if (counts_[v] > counts_[best]) best = v;
    }
    return static_cast<E>(best);
  }

 private:
  std::array<int, kMax + 1> counts_{};
};

/// Majority vote over road names; ties go to the lexicographically smallest
/// name (the ordered-map iteration order the dense path replaces). Segments
/// see a handful of distinct names, so a linear scan beats any map.
class NameVotes {
 public:
  void Vote(const std::string* name) {
    for (auto& [n, count] : votes_) {
      if (n == name || *n == *name) {
        count++;
        return;
      }
    }
    votes_.push_back({name, 1});
  }
  bool empty() const { return votes_.empty(); }
  const std::string& Best() const {
    const std::string* best_name = votes_[0].first;
    int best_count = votes_[0].second;
    for (size_t i = 1; i < votes_.size(); ++i) {
      const auto& [n, count] = votes_[i];
      if (count > best_count ||
          (count == best_count && *n < *best_name)) {
        best_name = n;
        best_count = count;
      }
    }
    return *best_name;
  }
  void clear() { votes_.clear(); }

 private:
  std::vector<std::pair<const std::string*, int>> votes_;
};

}  // namespace

FeatureExtractor::FeatureExtractor(const RoadNetwork* network,
                                   const LandmarkIndex* landmarks,
                                   const FeatureRegistry* registry,
                                   const FeatureExtractorOptions& options)
    : network_(network),
      landmarks_(landmarks),
      registry_(registry),
      options_(options),
      matcher_(network, options.matcher) {
  STMAKER_CHECK(network != nullptr);
  STMAKER_CHECK(landmarks != nullptr);
  STMAKER_CHECK(registry != nullptr);
}

Result<std::vector<EdgeId>> FeatureExtractor::Match(
    const CalibratedTrajectory& trajectory, const RequestContext* ctx) const {
  std::vector<Vec2> positions;
  positions.reserve(trajectory.raw.samples.size());
  for (const RawSample& s : trajectory.raw.samples) {
    positions.push_back(s.pos);
  }
  return matcher_.Match(positions, ctx);
}

Result<std::vector<SegmentFeatures>> FeatureExtractor::Extract(
    const CalibratedTrajectory& trajectory, std::span<const EdgeId> matched,
    const RequestContext* ctx) const {
  const size_t num_segments = trajectory.NumSegments();
  if (num_segments == 0) {
    return Status::InvalidArgument(
        "trajectory has no segments to extract features from");
  }
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));

  // Whole-trajectory passes, sliced per segment afterwards. The per-segment
  // buffers below stay std::vector (their types are part of the
  // SegmentContext extension API) but are hoisted and reused.
  std::vector<StayPoint> stays =
      DetectStayPoints(trajectory.raw, options_.stay);
  std::vector<UTurn> uturns = DetectUTurns(trajectory.raw, options_.uturn);

  CancelCheck check(ctx, /*stride=*/16);  // segments are coarse units
  std::vector<SegmentFeatures> out(num_segments);
  NameVotes name_votes;
  // Plain vector (SegmentContext's type is part of the extension API), but
  // hoisted: assign() reuses its capacity across segments.
  std::vector<EdgeId> matched_slice;
  for (size_t seg = 0; seg < num_segments; ++seg) {
    STMAKER_RETURN_IF_ERROR(check.Tick());
    SegmentFeatures& sf = out[seg];
    auto [first, last] = trajectory.SegmentSampleRange(seg);
    auto [t0, t1] = trajectory.SegmentTimeSpan(seg);
    sf.length_m = trajectory.SegmentLength(seg);
    sf.duration_s = t1 - t0;

    // --- Routing attributes from the matched edges. -------------------------
    EnumVotes<RoadGrade, 7> grade_votes;
    EnumVotes<TrafficDirection, 2> direction_votes;
    name_votes.clear();
    double width_sum = 0;
    int width_count = 0;
    for (size_t i = first; i < last && i < matched.size(); ++i) {
      EdgeId e = matched[i];
      if (e < 0) continue;
      const RoadEdge& edge = network_->edge(e);
      grade_votes.Vote(edge.grade);
      direction_votes.Vote(edge.direction);
      name_votes.Vote(&edge.name);
      width_sum += edge.width_m;
      width_count++;
    }
    if (width_count > 0) {
      sf.dominant_grade = grade_votes.Best();
      sf.dominant_direction = direction_votes.Best();
      sf.dominant_road_name = name_votes.Best();
      sf.mean_width_m = width_sum / width_count;
    }

    // --- Moving attributes. --------------------------------------------------
    sf.speed_kmh =
        sf.duration_s > 0 ? sf.length_m / sf.duration_s * 3.6 : 0.0;
    for (const StayPoint& s : StayPointsInWindow(stays, t0, t1)) {
      sf.num_stays++;
      sf.total_stay_s += s.Duration();
    }
    for (const UTurn& u : UTurnsInWindow(uturns, t0, t1)) {
      sf.num_uturns++;
      LandmarkId near = landmarks_->Nearest(u.pos, 400.0);
      if (near >= 0) {
        sf.uturn_places.push_back(landmarks_->landmark(near).name);
      }
    }

    // --- Assemble the feature vector in registry order. ---------------------
    RawTrajectory segment_raw = trajectory.SegmentRaw(seg);
    matched_slice.assign(
        matched.begin() + std::min(first, matched.size()),
        matched.begin() + std::min(last, matched.size()));
    SegmentContext context;
    context.segment_raw = &segment_raw;
    context.matched_edges = &matched_slice;
    context.network = network_;
    context.segment_length_m = sf.length_m;
    context.duration_s = sf.duration_s;

    sf.values.resize(registry_->size(), 0.0);
    for (size_t f = 0; f < registry_->size(); ++f) {
      const FeatureDef& def = registry_->def(f);
      if (def.extractor) {
        sf.values[f] = def.extractor(context);
        continue;
      }
      switch (f) {
        case kGradeOfRoadFeature:
          sf.values[f] = static_cast<double>(sf.dominant_grade);
          break;
        case kRoadWidthFeature:
          sf.values[f] = sf.mean_width_m;
          break;
        case kTrafficDirectionFeature:
          sf.values[f] = static_cast<double>(sf.dominant_direction);
          break;
        case kSpeedFeature:
          sf.values[f] = sf.speed_kmh;
          break;
        case kStayPointsFeature:
          sf.values[f] = static_cast<double>(sf.num_stays);
          break;
        case kUTurnsFeature:
          sf.values[f] = static_cast<double>(sf.num_uturns);
          break;
        default:
          return Status::Internal(
              "built-in feature without native implementation: " + def.id);
      }
    }
  }
  return out;
}

}  // namespace stmaker
