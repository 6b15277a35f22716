// The benchmark's own arithmetic, kept free of any acorn type so the
// tests in perfbench/tests can pin it down in isolation:
//
//   * latency summaries: nearest-rank percentiles with their sample
//     counts, and the highest percentile that still has at least ten
//     samples beyond it;
//   * open-loop timing: latency measured from when a request was due,
//     and how late the generator sent it;
//   * span self time: a span's duration minus the part of it that its
//     child spans cover;
//   * failure accounting: every attempted request ends ok or in one of
//     the failure outcomes, and a failed request misses every latency
//     limit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of an ascending sample: the
/// smallest value with at least q * n samples at or below it. Empty
/// input gives 0.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (nearest rank, so always a sample).
double median(std::vector<double> values);

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Samples strictly above p99, which says how far p99 can be trusted
  /// (fewer than 10 means a handful of outliers set it).
  std::size_t beyond_p99 = 0;
  /// Highest of the levels 50, 90, 99, 99.9, 99.99 that has at least
  /// ten samples beyond it, with its value; 0 / 0 when there are too
  /// few samples for even the median to qualify.
  double top_level = 0.0;
  double top_value = 0.0;
};

LatencySummary summarize(std::vector<double> samples);

/// One request of an open-loop schedule, times in seconds on one clock.
struct OpenLoopTimes {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

/// Latency as the user of an open-loop system sees it: from when the
/// request was due, so a stall also charges the requests queued behind
/// it.
double due_latency(const OpenLoopTimes& t);
/// How late the generator sent the request (never negative: sending
/// early is clamped to on time).
double lateness(const OpenLoopTimes& t);

/// A span as the harness records it: `parent` is the id of the span
/// that caused it (0 for a root), `request` groups the spans of one
/// request. Times in nanoseconds on one clock.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
};

/// Per-span self time, in the order of `spans`: duration minus the
/// union of its direct children's intervals clipped to its own.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

enum class Outcome {
  kOk,
  /// The daemon answered with ErrorReply.
  kErrorReply,
  /// A reply of another type than the request calls for.
  kWrongType,
  /// No reply before the phase ended (the connection stayed up).
  kMissing,
  /// The connection broke before the reply arrived.
  kLost,
};

struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t error_reply = 0;
  std::uint64_t wrong_type = 0;
  std::uint64_t missing = 0;
  std::uint64_t lost = 0;

  void add(Outcome outcome);
  std::uint64_t failed() const {
    return error_reply + wrong_type + missing + lost;
  }
  double failed_frac() const;
};

/// The latency to record for one request: its measured latency when it
/// succeeded, +infinity when it failed, so a failure misses any limit.
double charged_latency(Outcome outcome, double latency);

}  // namespace perfbench
