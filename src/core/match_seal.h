#ifndef STMAKER_CORE_MATCH_SEAL_H_
#define STMAKER_CORE_MATCH_SEAL_H_

/// \file
/// \brief The map-matched edge sequence of every corpus trip, computed once
/// at train time and served instead of re-matching the trip on every
/// summarize (DESIGN.md §18).
///
/// Training map-matches every ingested trip anyway (the routing features
/// need it). For a trip whose sanitize report was clean, the matched
/// positions are exactly the corpus positions, so its Viterbi edge sequence
/// is kept, run-length encoded: trip t's runs are
/// runs[offsets[t], offsets[t + 1]), and an empty slice means the trip is
/// not sealed (it was repaired, quarantined before matching, or too long
/// for a 32-bit run end). The arrays are exactly the container's
/// kMatchOffsets / kMatchRuns sections (docs/FORMAT.md §7): owned vectors
/// after training, the mapping itself after a load.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace stmaker {

/// One run of a sealed match: the fixes from the previous run's `end` (0
/// for a trip's first run) up to `end`, exclusive, all matched to `edge`
/// (-1 = no edge in range). The layout is the container's kMatchRuns
/// record.
struct MatchRun {
  int32_t edge = -1;
  uint32_t end = 0;
};

/// See the file comment. A const seal is safe to read from any number of
/// threads.
class MatchSeal {
 public:
  /// Run-length encodes one trip's matched edges (one per fix). Returns no
  /// runs — an unsealed slot — when the sequence is empty, longer than a
  /// 32-bit run end can address, or holds an edge id past int32.
  static std::vector<MatchRun> Encode(std::span<const EdgeId> matched);

  /// Expands runs back into one edge id per fix.
  static void Expand(std::span<const MatchRun> runs,
                     std::vector<EdgeId>* matched);

  /// Serves container arrays in place, pinning `backing` (the mapping they
  /// alias). One O(trips + runs) pass validates them against the corpus
  /// they seal: `offsets` has corpus.size() + 1 entries starting at 0 and
  /// ending at runs.size(), never decreasing; in every non-empty slice the
  /// run ends strictly ascend and the last one equals the trip's sample
  /// count; every edge is -1 or below `num_edges`. A hostile file can make
  /// the load fail, never make a summarize read out of bounds.
  static Result<MatchSeal> Adopt(std::span<const uint32_t> offsets,
                                 std::span<const MatchRun> runs,
                                 std::span<const RawTrajectory> corpus,
                                 size_t num_edges,
                                 std::shared_ptr<const void> backing);

  /// Appends the next corpus trip's slot (`runs` empty = not sealed). A
  /// seal adopted from a mapping is copied into owned vectors first; a
  /// slot that would overflow the 32-bit offsets is left unsealed.
  void Append(std::span<const MatchRun> runs);

  /// Trips covered, sealed or not.
  size_t num_trips() const {
    return offsets().empty() ? 0 : offsets().size() - 1;
  }

  /// Trip `trip`'s runs; empty when it is not sealed or out of range.
  std::span<const MatchRun> runs(size_t trip) const;

  /// The arrays the container writer stores verbatim.
  std::span<const uint32_t> offsets() const {
    return backing_ != nullptr ? std::span<const uint32_t>(mapped_offsets_)
                               : std::span<const uint32_t>(offsets_);
  }
  std::span<const MatchRun> all_runs() const {
    return backing_ != nullptr ? std::span<const MatchRun>(mapped_runs_)
                               : std::span<const MatchRun>(runs_);
  }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<MatchRun> runs_;
  std::span<const uint32_t> mapped_offsets_;
  std::span<const MatchRun> mapped_runs_;
  /// Non-null when the mapped spans are live: owns what they alias.
  std::shared_ptr<const void> backing_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_MATCH_SEAL_H_
