// Pieces of the served-path benchmark that carry its correctness claims —
// the percentile estimator, span self-time, reply verification and failure
// accounting — kept apart from the driver so `harness_selftest` can check
// them against known answers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/spatial_index.h"

namespace perfbench {

using vaq::PointId;

/// Percentile `q` in [0, 100] of `values` by linear interpolation between
/// closest ranks (the estimator of numpy's default and of Python's
/// `statistics.quantiles(..., method="inclusive")`). 0 for an empty input.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Order-independent digest of an id set: count plus a sum of mixed ids.
/// Replies and oracle answers compare by digest, so the oracle keeps 16
/// bytes per query instead of the id list.
struct IdDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void Add(PointId id);
  bool operator==(const IdDigest& o) const {
    return count == o.count && sum == o.sum;
  }
};

IdDigest DigestOf(std::span<const PointId> ids);

/// Expected answer of a query whose snapshot is only known to lie between
/// two points of a write stream (a query racing writes on another
/// connection). `stable` digests the polygon's ids that are live in every
/// such snapshot; `unstable` lists, sorted, the polygon's ids that may or
/// may not be live (inserted or erased somewhere in the stream).
struct RacingExpect {
  IdDigest stable;
  std::vector<PointId> unstable;
};

/// A racing reply is correct iff its stable part equals `expect.stable`
/// exactly and every other id it returns is one of `expect.unstable`, each
/// at most once. `is_unstable[id]` flags the stream's unstable ids; an id
/// past its end is unknown to the stream and fails the check.
bool RacingReplyOk(const RacingExpect& expect,
                   const std::vector<std::uint8_t>& is_unstable,
                   std::span<const PointId> ids);

/// One timed call into a layer: its name, its interval on the steady
/// clock, and the request it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of `parent` whose child calls were replayed after it, so
/// they belong to it by request id rather than by lying inside its
/// interval: its duration minus the summed durations of the children.
/// Negative when the replayed calls ran slower than the parent; reported
/// as measured.
std::int64_t ReplayedSelfTimeNs(const Span& parent,
                                std::span<const Span> children);

/// Attempted/failed operation accounting. A failure is a transport error,
/// a typed server error, or a wrong answer.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpTally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;
  }
};

/// A fixed piece of work that runs none of the program's code, timed to
/// track how fast the host runs at the moment: a crossing-number scan of
/// 10^5 points against a fixed 16-vertex star, and 500 pipe round trips
/// between two threads (the kind of context switch the served path makes
/// per request). On a shared VM both slow down and speed up with the host
/// in phases of seconds to minutes; the driver divides that out.
class HostProbe {
 public:
  HostProbe();
  /// Runs the work once on the calling thread (plus one helper thread for
  /// the pipe round trips, started on the caller's CPUs) and returns its
  /// wall time in milliseconds.
  double RunMs() const;

 private:
  std::vector<double> xs_, ys_;
  std::vector<double> ring_x_, ring_y_;
};

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 if the
/// proc file cannot be read.
double PeakRssMb();

/// Appends `"key": value` pairs to a flat JSON object being built.
class JsonObject {
 public:
  void Number(const std::string& key, double value);
  void Raw(const std::string& key, const std::string& json);
  void String(const std::string& key, const std::string& value);
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
