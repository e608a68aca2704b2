#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace jobbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: flip one bit of the first returned result before the
  /// oracle sees it, which must surface as a failed job and a failing exit.
  bool corruptOne = false;
  /// CPUs the process was allowed before it pinned itself (ascending).
  std::vector<int> cpus;
  /// Where the daemon's state dir and telemetry JSONL go (inside the
  /// checkout; removed at exit).
  std::string workDir;
};

/// What one pass of a workload measured.
struct Outcome {
  std::vector<double> setupSeconds;  ///< one entry per set-up repetition
  std::vector<double> jobSeconds;    ///< every job that returned a result
  std::vector<double> soloSeconds;   ///< in-process reference time per pool spec
  std::int64_t samples = 0;          ///< objective samples in returned results
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< failed, refused, timed out or mismatched
  std::uint64_t mismatched = 0;  ///< returned a result that differs from the reference
  double timedSeconds = 0.0;     ///< wall time of the timed phase
  std::map<std::string, double> layers;  ///< per-layer metrics (traced pass only)
  std::vector<LedgerRow> ledger;
  std::vector<std::string> notes;  ///< extra report lines
};

/// Names accepted by --workload.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Run one pass: build the spec pool and its references, set up (several
/// times, keeping the last), stream jobs for `seconds`, tear down.
/// `traced` installs the bench decorators and fills the per-layer fields.
[[nodiscard]] Outcome runWorkload(const Config& config, bool traced, double seconds);

}  // namespace jobbench
