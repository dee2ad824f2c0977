#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace stmaker {

std::vector<std::vector<double>> NormalizeSegmentFeatures(
    const std::vector<SegmentFeatures>& segments) {
  std::vector<std::vector<double>> out(segments.size());
  if (segments.empty()) return out;
  const size_t dims = segments[0].values.size();
  std::vector<double> max_abs(dims, 0.0);
  for (const SegmentFeatures& sf : segments) {
    STMAKER_CHECK(sf.values.size() == dims);
    for (size_t f = 0; f < dims; ++f) {
      max_abs[f] = std::max(max_abs[f], std::fabs(sf.values[f]));
    }
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    out[i].resize(dims);
    for (size_t f = 0; f < dims; ++f) {
      out[i][f] = max_abs[f] > 0 ? segments[i].values[f] / max_abs[f] : 0.0;
    }
  }
  return out;
}

double SegmentSimilarity(std::span<const double> u, std::span<const double> v,
                         std::span<const double> weights) {
  STMAKER_CHECK(u.size() == v.size());
  STMAKER_CHECK(u.size() == weights.size());
  double dot = 0;
  double nu = 0;
  double nv = 0;
  for (size_t j = 0; j < u.size(); ++j) {
    STMAKER_DCHECK(weights[j] >= 0);
    dot += weights[j] * u[j] * v[j];
    nu += weights[j] * u[j] * u[j];
    nv += weights[j] * v[j] * v[j];
  }
  double cosine;
  if (nu == 0 && nv == 0) {
    cosine = 1.0;  // Two zero vectors: identical behaviour.
  } else if (nu == 0 || nv == 0) {
    cosine = 0.0;  // One zero vector: orthogonal by convention.
  } else {
    cosine = dot / (std::sqrt(nu) * std::sqrt(nv));
    cosine = std::clamp(cosine, -1.0, 1.0);
  }
  return 0.5 * (cosine + 1.0);
}

}  // namespace stmaker
