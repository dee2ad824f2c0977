#include "core/match_seal.h"

#include <limits>
#include <utility>

#include "common/strings.h"

namespace stmaker {

std::vector<MatchRun> MatchSeal::Encode(std::span<const EdgeId> matched) {
  std::vector<MatchRun> runs;
  if (matched.empty() ||
      matched.size() > std::numeric_limits<uint32_t>::max()) {
    return runs;
  }
  for (size_t i = 0; i < matched.size(); ++i) {
    const EdgeId e = matched[i];
    if (e < -1 || e > std::numeric_limits<int32_t>::max()) return {};
    if (runs.empty() || runs.back().edge != e) {
      runs.push_back(MatchRun{static_cast<int32_t>(e), 0});
    }
    runs.back().end = static_cast<uint32_t>(i + 1);
  }
  return runs;
}

void MatchSeal::Expand(std::span<const MatchRun> runs,
                       std::vector<EdgeId>* matched) {
  matched->clear();
  if (!runs.empty()) matched->reserve(runs.back().end);
  for (const MatchRun& run : runs) matched->resize(run.end, run.edge);
}

Result<MatchSeal> MatchSeal::Adopt(std::span<const uint32_t> offsets,
                                   std::span<const MatchRun> runs,
                                   std::span<const RawTrajectory> corpus,
                                   size_t num_edges,
                                   std::shared_ptr<const void> backing) {
  if (offsets.size() != corpus.size() + 1 || offsets.front() != 0 ||
      offsets.back() != runs.size()) {
    return Status::InvalidArgument(StrFormat(
        "match seal offsets (%zu entries) do not span %zu runs over %zu "
        "corpus trips",
        offsets.size(), runs.size(), corpus.size()));
  }
  // Non-decreasing offsets ending at runs.size() keep every slice inside
  // the runs; check them all before reading a run.
  for (size_t t = 0; t < corpus.size(); ++t) {
    if (offsets[t] > offsets[t + 1]) {
      return Status::InvalidArgument(
          StrFormat("match seal offsets decrease at trip %zu", t));
    }
  }
  for (size_t t = 0; t < corpus.size(); ++t) {
    if (offsets[t] == offsets[t + 1]) continue;  // not sealed
    uint32_t previous_end = 0;
    for (uint32_t r = offsets[t]; r < offsets[t + 1]; ++r) {
      const MatchRun& run = runs[r];
      if (run.end <= previous_end) {
        return Status::InvalidArgument(StrFormat(
            "match seal trip %zu: run ends do not strictly ascend", t));
      }
      if (run.edge < -1 || static_cast<int64_t>(run.edge) >=
                               static_cast<int64_t>(num_edges)) {
        return Status::InvalidArgument(StrFormat(
            "match seal trip %zu: edge %d outside the %zu-edge network", t,
            run.edge, num_edges));
      }
      previous_end = run.end;
    }
    if (previous_end != corpus[t].samples.size()) {
      return Status::InvalidArgument(StrFormat(
          "match seal trip %zu: runs cover %u of its %zu fixes", t,
          previous_end, corpus[t].samples.size()));
    }
  }
  MatchSeal seal;
  seal.mapped_offsets_ = offsets;
  seal.mapped_runs_ = runs;
  seal.backing_ = std::move(backing);
  return seal;
}

void MatchSeal::Append(std::span<const MatchRun> runs) {
  if (backing_ != nullptr) {
    offsets_.assign(mapped_offsets_.begin(), mapped_offsets_.end());
    runs_.assign(mapped_runs_.begin(), mapped_runs_.end());
    mapped_offsets_ = {};
    mapped_runs_ = {};
    backing_.reset();
  }
  if (offsets_.empty()) offsets_.push_back(0);
  if (runs.size() <= std::numeric_limits<uint32_t>::max() - runs_.size()) {
    runs_.insert(runs_.end(), runs.begin(), runs.end());
  }
  offsets_.push_back(static_cast<uint32_t>(runs_.size()));
}

std::span<const MatchRun> MatchSeal::runs(size_t trip) const {
  const std::span<const uint32_t> o = offsets();
  if (trip + 1 >= o.size()) return {};
  return all_runs().subspan(o[trip], o[trip + 1] - o[trip]);
}

}  // namespace stmaker
