#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace perfbench {

namespace {

/// Recursive-descent reader for the JSON the server emits; flattens every
/// leaf into a FlatJsonDoc keyed by its '/'-joined path.
class JsonFlattener {
 public:
  JsonFlattener(const std::string& text, FlatJsonDoc* out)
      : s_(text), out_(out) {}

  bool Parse() {
    if (!Value("")) return false;
    SkipWs();
    return i_ == s_.size();
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' ||
            s_[i_] == '\t')) {
      ++i_;
    }
  }

  static std::string Join(const std::string& path, const std::string& key) {
    return path.empty() ? key : path + "/" + key;
  }

  bool String(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (i_ >= s_.size()) return false;
      char e = s_[i_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          unsigned code = static_cast<unsigned>(
              std::strtoul(s_.substr(i_, 4).c_str(), nullptr, 16));
          i_ += 4;
          // The server only escapes control characters this way.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else {
            return false;
          }
          break;
        }
        default:
          return false;
      }
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }

  bool Value(const std::string& path) {
    SkipWs();
    if (i_ >= s_.size()) return false;
    char c = s_[i_];
    if (c == '{') {
      ++i_;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        return true;
      }
      for (;;) {
        SkipWs();
        std::string key;
        if (!String(&key)) return false;
        SkipWs();
        if (i_ >= s_.size() || s_[i_] != ':') return false;
        ++i_;
        if (!Value(Join(path, key))) return false;
        SkipWs();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == '}') {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++i_;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ']') {
        ++i_;
        return true;
      }
      for (size_t n = 0;; ++n) {
        if (!Value(Join(path, std::to_string(n)))) return false;
        SkipWs();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == ']') {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      std::string value;
      if (!String(&value)) return false;
      out_->strings[path] = std::move(value);
      return true;
    }
    for (const char* word : {"true", "false", "null"}) {
      size_t n = std::char_traits<char>::length(word);
      if (s_.compare(i_, n, word) == 0) {
        i_ += n;
        if (word[0] != 'n') out_->numbers[path] = word[0] == 't' ? 1 : 0;
        return true;
      }
    }
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    double value = std::strtod(begin, &end);
    if (end == begin) return false;
    i_ += static_cast<size_t>(end - begin);
    out_->numbers[path] = value;
    return true;
  }

  const std::string& s_;
  FlatJsonDoc* out_;
  size_t i_ = 0;
};

}  // namespace

double FlatJsonDoc::Number(const std::string& key, double fallback) const {
  auto it = numbers.find(key);
  return it == numbers.end() ? fallback : it->second;
}

bool ParseJson(const std::string& text, FlatJsonDoc* out) {
  return JsonFlattener(text, out).Parse();
}

double PercentileWithMisses(std::vector<double> latencies, size_t misses,
                            double q) {
  const size_t n = latencies.size() + misses;
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q*n values at or
  // below it (rank 1 for q = 0).
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > latencies.size()) return std::numeric_limits<double>::infinity();
  std::nth_element(latencies.begin(), latencies.begin() + (rank - 1),
                   latencies.end());
  return latencies[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool ParseStatsResponse(const std::string& line, StatsSnapshot* out) {
  FlatJsonDoc doc;
  if (!ParseJson(line, &doc)) return false;
  auto status = doc.strings.find("status");
  if (status == doc.strings.end() || status->second != "ok") return false;
  const std::string counters = "stats/counters/";
  const std::string histograms = "stats/histograms/";
  bool any = false;
  for (const auto& [key, value] : doc.numbers) {
    if (key.compare(0, counters.size(), counters) == 0) {
      out->counters[key.substr(counters.size())] = value;
      any = true;
    } else if (key.compare(0, histograms.size(), histograms) == 0) {
      // "<name>/<field>"; metric names contain dots but never '/'.
      std::string rest = key.substr(histograms.size());
      size_t slash = rest.rfind('/');
      if (slash == std::string::npos) continue;
      std::string name = rest.substr(0, slash);
      std::string field = rest.substr(slash + 1);
      if (field == "count") out->histograms[name].count = value;
      if (field == "sum") out->histograms[name].sum = value;
      any = true;
    }
  }
  return any;
}

StatsDelta::StatsDelta(const StatsSnapshot& before, const StatsSnapshot& after)
    : before_(before), after_(after) {
  for (const auto& [name, value] : before_.counters) {
    auto it = after_.counters.find(name);
    if (it == after_.counters.end() || it->second < value) consistent_ = false;
  }
  for (const auto& [name, hist] : before_.histograms) {
    auto it = after_.histograms.find(name);
    if (it == after_.histograms.end() || it->second.count < hist.count) {
      consistent_ = false;
    }
  }
}

double StatsDelta::Counter(const std::string& name) const {
  auto a = after_.counters.find(name);
  if (a == after_.counters.end()) return 0;
  auto b = before_.counters.find(name);
  return a->second - (b == before_.counters.end() ? 0 : b->second);
}

double StatsDelta::HistMean(const std::string& name) const {
  auto a = after_.histograms.find(name);
  if (a == after_.histograms.end()) return 0;
  auto b = before_.histograms.find(name);
  StatsSnapshot::Hist base =
      b == before_.histograms.end() ? StatsSnapshot::Hist{} : b->second;
  const double count = a->second.count - base.count;
  return count <= 0 ? 0 : (a->second.sum - base.sum) / count;
}

double StatsDelta::Ratio(const std::string& hits,
                         const std::string& misses) const {
  const double h = Counter(hits);
  const double m = Counter(misses);
  return h + m <= 0 ? 0 : h / (h + m);
}

double RateGrid::Rate(int i) const {
  return base * std::pow(ratio, static_cast<double>(i));
}

bool ProbePasses(const ProbeOutcome& outcome, double slo_ms) {
  return outcome.sent > 0 && outcome.shed == 0 && outcome.failed == 0 &&
         outcome.unanswered == 0 && outcome.ok == outcome.sent &&
         outcome.p99_ms <= slo_ms && !outcome.backlog_growing;
}

KneeResult FindKnee(const RateGrid& grid,
                    const std::function<ProbeOutcome(double rate)>& probe,
                    double slo_ms, int probes) {
  KneeResult result;
  int index = grid.steps / 2;
  int step = 16;
  int last = -1;  // previous verdict: -1 none, 0 failed, 1 passed
  int best = -1;  // highest passing index seen
  double log_sum = 0;
  int fine_passes = 0;
  for (int n = 0; n < probes; ++n) {
    const double rate = grid.Rate(index);
    const bool passed = ProbePasses(probe(rate), slo_ms);
    ++result.probes;
    result.trace.emplace_back(rate, passed);
    if (last >= 0 && passed != (last == 1)) step = std::max(1, step / 2);
    last = passed ? 1 : 0;
    if (passed) {
      best = std::max(best, index);
      if (step == 1) {
        log_sum += std::log(rate);
        ++fine_passes;
      }
    }
    index = std::clamp(index + (passed ? step : -step), 0, grid.steps - 1);
  }
  if (fine_passes > 0) {
    result.rate = std::exp(log_sum / fine_passes);
  } else if (best >= 0) {
    result.rate = grid.Rate(best);
  }
  return result;
}

bool BacklogGrowing(const std::vector<double>& due_s,
                    const std::vector<double>& done_s, double slack_s) {
  const size_t n = due_s.size();
  if (n < 8 || done_s.size() != n || due_s.back() <= due_s.front()) return false;
  const double slack =
      slack_s * static_cast<double>(n) / (due_s.back() - due_s.front());
  std::vector<double> done = done_s;
  std::sort(done.begin(), done.end());
  // Backlog seen by arrival i: arrivals so far (i + 1) minus answers
  // completed by its due time.
  auto backlog = [&](size_t i) {
    size_t finished = static_cast<size_t>(
        std::upper_bound(done.begin(), done.end(), due_s[i]) - done.begin());
    return static_cast<double>(i + 1) - static_cast<double>(finished);
  };
  auto mean_over = [&](size_t from, size_t to) {
    double total = 0;
    for (size_t i = from; i < to; ++i) total += backlog(i);
    return total / static_cast<double>(to - from);
  };
  const double second = mean_over(n / 4, n / 2);
  const double last = mean_over(3 * n / 4, n);
  return last > 2 * second + slack;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Fnv1a(const std::string& text, uint64_t seed) {
  return Fnv1a(text.data(), text.size(), seed);
}

}  // namespace perfbench
