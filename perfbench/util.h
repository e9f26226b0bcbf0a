// Small helpers shared by the benchmark program: clocks, sample
// statistics, the metric list it prints, a private temporary directory
// and a parallel loop for answer checking.
#ifndef NETOUT_PERFBENCH_UTIL_H_
#define NETOUT_PERFBENCH_UTIL_H_

#include <sched.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t NowNs();

inline double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Quantile `q` in [0, 1] of raw samples, by linear interpolation between
/// closest ranks. 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
/// num / den, or 0 when nothing was counted (den is 0).
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// ru_maxrss of this process in MiB.
double PeakRssMb();

/// One printed metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit);
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string ToJson() const;

 private:
  std::vector<Metric> items_;
};

/// 64-bit FNV-1a of `bytes`, continuing from `digest`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t digest = 0xcbf29ce484222325ULL);

/// Shortest decimal text that reads back as exactly `value`.
std::string FormatDouble(double value);
/// `text` as a JSON string literal.
std::string JsonQuote(const std::string& text);

/// A fresh directory made by mkdtemp under `parent` (created if
/// missing), removed with its contents on destruction, so no two runs
/// ever share segment files.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Runs body(i) for i in [0, count) on `threads` threads (each thread
/// takes the next unclaimed index). `body` must be safe to call
/// concurrently for different indices.
void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t thread,
                                          std::size_t index)>& body);

/// While alive, confines every thread of this process to one CPU: the
/// `k`-th (cyclically) of the CPUs the constructing thread may use. The
/// destructor gives every thread those CPUs back.
class OneCpu {
 public:
  explicit OneCpu(std::size_t k);
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// Prints a message to stderr and exits with code 1 (no result line).
[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // NETOUT_PERFBENCH_UTIL_H_
