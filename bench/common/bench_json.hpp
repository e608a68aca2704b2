#pragma once

#include <functional>
#include <string>
#include <vector>

namespace sfopt::bench {

/// One scalar measurement in a bench report.  `name` is the stable key
/// tools/bench_diff.py joins baseline and fresh runs on; `unit` tells the
/// diff which direction is good ("s" / "us" = lower is better, anything
/// else = higher is better).
struct BenchResult {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Interquartile range of the repetitions `value` is the median of;
  /// negative (not written) for a single measurement.  bench_diff.py
  /// ignores it; it tells a reader how much of a diff is rerun noise.
  double spread = -1.0;
};

/// Machine-readable bench output (`BENCH_*.json` at the repo root).  The
/// host block records the CPU model, core count and SIMD ISA situation so
/// a diff across machines is recognizably apples-to-oranges.
struct BenchReport {
  std::string bench;
  int repetitions = 0;
  std::vector<BenchResult> results;

  void add(std::string name, double value, std::string unit);
  /// Record the median of `samples` with their interquartile range.
  void addMedian(std::string name, std::vector<double> samples, std::string unit);

  /// Write the report as a single JSON object.  Returns false (after
  /// printing to stderr) when the file cannot be opened.
  [[nodiscard]] bool writeJson(const std::string& path) const;
};

/// Median and interquartile range (linear interpolation between order
/// statistics) of a non-empty sample.
struct MedianSpread {
  double median = 0.0;
  double iqr = 0.0;
};
[[nodiscard]] MedianSpread medianSpread(std::vector<double> samples);

/// Median wall seconds over `reps` invocations of fn.
[[nodiscard]] double medianSeconds(int reps, const std::function<void()>& fn);

/// `--json PATH` extraction for bench main()s: returns the path following
/// a "--json" argument (empty when absent) and removes both tokens from
/// the remaining positional-argument list.
[[nodiscard]] std::string extractJsonPath(std::vector<std::string>& args);

}  // namespace sfopt::bench
