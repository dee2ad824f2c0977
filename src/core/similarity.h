#ifndef STMAKER_CORE_SIMILARITY_H_
#define STMAKER_CORE_SIMILARITY_H_

/// \file
/// Segment feature normalization and similarity scoring.

#include <span>
#include <vector>

#include "core/feature_extractor.h"

namespace stmaker {

/// Normalizes each feature dimension to [0, 1] across the segments of one
/// trajectory (Sec. IV-B): the normalizing constant of feature f is the
/// largest |value| of f among all segments of T; an all-zero dimension stays
/// zero. Returns one normalized vector per segment.
std::vector<std::vector<double>> NormalizeSegmentFeatures(
    const std::vector<SegmentFeatures>& segments);

/// Weighted cosine similarity mapped to [0, 1] (Eq. 3):
/// S = ½(cos_w(u, v) + 1). Conventions for degenerate inputs: two zero
/// vectors are identical (S = 1); exactly one zero vector gives cos = 0
/// (S = ½). Weights must be non-negative and |u| = |v| = |w|. The span
/// form scores vectors read in place (the trajectory index's mapped
/// fingerprints); both forms compute bit-identical values.
double SegmentSimilarity(std::span<const double> u, std::span<const double> v,
                         std::span<const double> weights);
inline double SegmentSimilarity(const std::vector<double>& u,
                                const std::vector<double>& v,
                                const std::vector<double>& weights) {
  return SegmentSimilarity(std::span<const double>(u),
                           std::span<const double>(v),
                           std::span<const double>(weights));
}

}  // namespace stmaker

#endif  // STMAKER_CORE_SIMILARITY_H_
