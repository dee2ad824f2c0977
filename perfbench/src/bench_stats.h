#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

/// \file
/// Pure measurement arithmetic of the benchmark: percentiles that count
/// failed requests as misses, the knee search over a fixed rate grid, the
/// growing-backlog test, and deltas of the server's `{"stats":1}`
/// counters and histograms. No I/O; unit-tested in tests/.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Flattened view of one JSON document: every number leaf keyed by its
/// path ("stats/counters/net.accepted", "results/0/trip"); strings apart.
/// Array elements are keyed by their index.
struct FlatJsonDoc {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
  bool Has(const std::string& key) const { return numbers.count(key) != 0; }
  double Number(const std::string& key, double fallback = 0) const;
};

/// Parses a complete JSON document into `out`. Returns false (with `out`
/// unspecified) on malformed input.
bool ParseJson(const std::string& text, FlatJsonDoc* out);

/// Nearest-rank percentile (q in [0,1]) of `latencies` with `misses`
/// additional requests that failed, were shed or never answered. A miss
/// counts as slower than every answered request, so the result is
/// +infinity once misses reach the top (1 - q) share. Empty input: NaN.
double PercentileWithMisses(std::vector<double> latencies, size_t misses,
                            double q);

/// Median of plain values (mean of the middle pair); NaN when empty.
double Median(std::vector<double> values);

/// Counter/histogram totals of one `stats` snapshot.
struct StatsSnapshot {
  struct Hist {
    double count = 0;
    double sum = 0;
  };
  std::map<std::string, double> counters;
  std::map<std::string, Hist> histograms;
};

/// Extracts the counters and histogram count/sum from a `stats` response
/// line ({"id": .., "status": "ok", "stats": {...}}). False when the line
/// is not an ok stats response.
bool ParseStatsResponse(const std::string& line, StatsSnapshot* out);

/// Activity between two snapshots of one server process. Counters and
/// histograms are cumulative from process start, so only differences
/// describe a phase; a name absent from `before` started at zero.
class StatsDelta {
 public:
  StatsDelta(const StatsSnapshot& before, const StatsSnapshot& after);
  /// after - before; 0 for unknown names.
  double Counter(const std::string& name) const;
  /// Mean of the observations recorded in the phase (0 when none).
  double HistMean(const std::string& name) const;
  /// hits / (hits + misses) over the phase (0 when neither moved).
  double Ratio(const std::string& hits, const std::string& misses) const;
  /// False when some counter or histogram count went backwards, which
  /// means the snapshots come from different processes.
  bool consistent() const { return consistent_; }

 private:
  StatsSnapshot before_;
  StatsSnapshot after_;
  bool consistent_ = true;
};

/// Offered rates of the knee search: rate(i) = base * ratio^i for
/// i in [0, steps). The grid is fixed, so every commit is offered the
/// same rates.
struct RateGrid {
  double base = 250;
  double ratio = 1.04;
  int steps = 112;
  double Rate(int i) const;
};

/// Outcome of one knee probe as the generator observed it.
struct ProbeOutcome {
  size_t sent = 0;
  size_t ok = 0;          ///< Answered "ok" (and well-formed).
  size_t shed = 0;        ///< Answered "resource_exhausted".
  size_t failed = 0;      ///< Any other status or a malformed answer.
  size_t unanswered = 0;  ///< No answer within the probe's grace period.
  double p99_ms = 0;      ///< PercentileWithMisses(.., 0.99).
  bool backlog_growing = false;
};

/// The knee criterion: p99 within `slo_ms`, nothing shed, failed or
/// unanswered, and no growing backlog.
bool ProbePasses(const ProbeOutcome& outcome, double slo_ms);

/// Result of FindKnee.
struct KneeResult {
  double rate = 0;   ///< The knee estimate; 0 when no probe passed.
  int probes = 0;    ///< Probes run.
  std::vector<std::pair<double, bool>> trace;  ///< (rate, passed) in order.
};

/// Locates the knee: the highest offered rate whose probe passes
/// (ProbePasses with `slo_ms`), with `probes` probes on `grid`.
///
/// An up-down staircase with shrinking steps: it starts in the middle of
/// the grid with a step of 16 grid rates (about 1.9x), moves up one step
/// after a pass and down after a failure, and halves the step at every
/// reversal until it is one grid rate. From then on it hovers where a probe
/// passes about half the time; the knee is the geometric mean of the rates
/// that passed at the one-step stage (the highest passing rate when none
/// did). Near capacity single probes pass or fail by chance: one unlucky
/// probe costs a reversal, not the answer. With a deterministic pass/fail
/// curve the result is exactly the highest passing grid rate.
/// `probe(rate)` runs one probe at the offered rate.
KneeResult FindKnee(const RateGrid& grid,
                    const std::function<ProbeOutcome(double rate)>& probe,
                    double slo_ms, int probes);

/// True when the number of outstanding requests grows over a probe:
/// the mean backlog seen by the arrivals of the last quarter exceeds twice
/// that of the second quarter plus the arrivals of `slack_s` seconds (a
/// brief hiccup leaves a backlog proportional to the rate). `due_s` are
/// scheduled send times (ascending); `done_s` the matching answer times
/// (+inf for unanswered requests).
bool BacklogGrowing(const std::vector<double>& due_s,
                    const std::vector<double>& done_s, double slack_s);

/// 64-bit FNV-1a, used for input digests and response fingerprints.
uint64_t Fnv1a(const void* data, size_t size, uint64_t seed = 1469598103934665603ULL);
uint64_t Fnv1a(const std::string& text, uint64_t seed = 1469598103934665603ULL);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
