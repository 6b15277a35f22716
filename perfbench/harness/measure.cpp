#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q * n from rounding up past an exact rank
  // (0.999 * 10000 is 9990.000000000002 in binary floating point).
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n - 1e-9);
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

LatencySummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary out;
  out.count = samples.size();
  out.p50 = quantile_sorted(samples, 0.50);
  out.p99 = quantile_sorted(samples, 0.99);
  out.beyond_p99 = static_cast<std::size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), out.p99));
  for (const double level : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples beyond the level: those ranked above ceil(level% * n).
    const double n = static_cast<double>(samples.size());
    const double at_or_below = std::ceil(level / 100.0 * n - 1e-9);
    if (n - at_or_below < 10.0) break;
    out.top_level = level;
    out.top_value = quantile_sorted(samples, level / 100.0);
  }
  return out;
}

double due_latency(const OpenLoopTimes& t) { return t.done - t.due; }

double lateness(const OpenLoopTimes& t) {
  return std::max(0.0, t.sent - t.due);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = std::max<std::int64_t>(
        0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return out;
}

void FailureTally::add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kErrorReply:
      ++error_reply;
      break;
    case Outcome::kWrongType:
      ++wrong_type;
      break;
    case Outcome::kMissing:
      ++missing;
      break;
    case Outcome::kLost:
      ++lost;
      break;
  }
}

double FailureTally::failed_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

double charged_latency(Outcome outcome, double latency) {
  return outcome == Outcome::kOk ? latency
                                 : std::numeric_limits<double>::infinity();
}

}  // namespace perfbench
