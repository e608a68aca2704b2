// jobbench: streams seeded optimization jobs through one deployment of
// sfopt and reports what a job costs end to end, plus (with --trace 1) a
// per-layer ledger measured by bench-owned decorators.
//
//   jobbench --workload solo|fleet-tcp|daemon|water-md --seed N --seconds S
//            --trace 0|1 [--corrupt-one]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Exit status: 0 when every returned result matched
// its in-process reference, 1 when one did not (or the workload failed),
// 2 on bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "placement.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace jobbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kLayerMetrics{
    {"core.self_s", "s"},
    {"core.iterations", "count"},
    {"core.samples", "count"},
    {"core.speculation_hit_rate", "ratio"},
    {"core.speculation_rounds", "count"},
    {"noise.sample.calls", "count"},
    {"noise.sample.busy_s", "s"},
    {"md.sample.calls", "count"},
    {"md.sample.busy_s", "s"},
    {"mw.tasks", "count"},
    {"mw.tasks_requeued", "count"},
    {"mw.task_rtt_s_p50", "s"},
    {"mw.task_exec_s_p50", "s"},
    {"mw.task_wire_s_p50", "s"},
    {"mw.worker_idle_frac", "ratio"},
    {"mw.worker_wall_s", "s"},
    {"net.master.send_calls", "count"},
    {"net.master.send_bytes", "bytes"},
    {"net.master.send_s", "s"},
    {"net.master.recv_wait_s", "s"},
    {"net.worker.send_s", "s"},
    {"net.frames_sent", "count"},
    {"net.frames_received", "count"},
    {"net.decode_errors", "count"},
    {"net.join_s", "s"},
    {"net.join_retries", "count"},
    {"service.submit_s_p50", "s"},
    {"service.wait_s_p50", "s"},
    {"service.rejected", "count"},
    {"service.shards_routed", "count"},
    {"service.journal_bytes", "bytes"},
    {"service.checkpoints_written", "count"},
    {"telemetry.events", "count"},
    {"telemetry.bytes", "bytes"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "jobbench: " << why << "\n"
            << "usage: jobbench --workload solo|fleet-tcp|daemon|water-md --seed N "
               "--seconds S --trace 0|1 [--corrupt-one]\n";
  std::exit(2);
}

Config parseArgs(int argc, char** argv) {
  Config c;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-one") {
      c.corruptOne = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        c.workload = value;
        haveWorkload = true;
      } else if (flag == "--seed") {
        c.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        c.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        c.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  bool known = false;
  for (const auto& n : workloadNames()) known = known || n == c.workload;
  if (!known) usage("unknown workload '" + c.workload + "'");
  if (!(c.seconds > 0.0)) usage("--seconds must be > 0");
  c.cpus = allowedCpus();
  c.workDir = ".bench_run/" + c.workload + "-" + std::to_string(::getpid());
  return c;
}

/// Run every thread of the benchmark on one CPU.  The hosts this runs on
/// deliver about one core of parallel throughput across their vCPUs, and a
/// wake-up sent to a halted vCPU costs a variable, often large, share of a
/// fleet task's round trip; on one CPU a hand-off is a plain context switch.
/// The last allowed CPU is taken: the first one usually services the host's
/// device interrupts, which steal time from whatever runs there.  fleet-tcp
/// places its own threads (see workloads.cpp).
void pinToOneCpu(const std::vector<int>& cpus) {
  if (cpus.empty() || !pinThisThread(cpus.back())) return;
  std::printf("affinity: all threads pinned to cpu %d of %zu allowed\n", cpus.back(),
              cpus.size());
}

void merge(Outcome& into, const Outcome& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.mismatched += from.mismatched;
  into.notes.insert(into.notes.end(), from.notes.begin(), from.notes.end());
}

int run(const Config& config) {
  printHost(std::cout);
  pinToOneCpu(config.cpus);
  std::cout << "workload: " << config.workload << ", seed " << config.seed << ", "
            << config.seconds << " s timed" << (config.trace ? " (half untraced, half traced)" : "")
            << "\n";

  // End-to-end numbers always come from an untraced pass.  A traced run
  // splits its time: the untraced half gives the baseline the tracing
  // overhead is measured against, the traced half the per-layer ledger.
  const double passSeconds = config.trace ? config.seconds / 2.0 : config.seconds;
  Outcome e2e = runWorkload(config, false, passSeconds);
  Outcome all = e2e;
  std::optional<Outcome> traced;
  if (config.trace) {
    traced = runWorkload(config, true, passSeconds);
    merge(all, *traced);
  }

  const double p50 = quantile(e2e.jobSeconds, 0.5);
  const double p90 = quantile(e2e.jobSeconds, 0.9);
  std::size_t beyond = 0;
  for (double s : e2e.jobSeconds) beyond += s > p90 ? 1 : 0;
  const double setup = median(e2e.setupSeconds);
  const double samplesRate =
      e2e.timedSeconds > 0.0 ? static_cast<double>(e2e.samples) / e2e.timedSeconds : 0.0;
  const double failedFrac =
      all.attempted > 0 ? static_cast<double>(all.failed) / static_cast<double>(all.attempted)
                        : 0.0;
  const double soloP50 = median(e2e.soloSeconds);

  std::printf("setup:    %.6g s (median of %zu set-ups)\n", setup, e2e.setupSeconds.size());
  std::printf("jobs:     %zu returned in %.3f s; p50 %.6f s, p90 %.6f s (%zu beyond p90%s)\n",
              e2e.jobSeconds.size(), e2e.timedSeconds, p50, p90, beyond,
              beyond >= 10 ? "" : ", FEWER THAN 10");
  std::printf("work:     %lld samples, %.1f samples/s\n", static_cast<long long>(e2e.samples),
              samplesRate);
  std::printf("failed:   %llu of %llu attempted (failed_frac %.6f), %llu mismatched\n",
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.attempted), failedFrac,
              static_cast<unsigned long long>(all.mismatched));
  std::printf("overhead: job_s_p50 %.6f s vs solo %.6f s on the same specs = %.3fx "
              "(framework overhead, informational)\n",
              p50, soloP50, soloP50 > 0.0 ? p50 / soloP50 : 0.0);
  for (const auto& note : all.notes) std::cout << note << "\n";

  std::vector<Metric> metrics;
  if (traced) {
    const double tracedP50 = quantile(traced->jobSeconds, 0.5);
    std::printf("tracing:  traced job_s_p50 %.6f s - untraced %.6f s = %+.6f s overhead\n",
                tracedP50, p50, tracedP50 - p50);
    printLedger(std::cout, config.workload, traced->ledger);
    for (const MetricDef& m : kLayerMetrics) {
      const auto it = traced->layers.find(m.name);
      metrics.push_back({m.name, it == traced->layers.end() ? 0.0 : it->second, m.unit});
    }
  } else {
    metrics = {{"setup_s", setup, "s"},
               {"job_s_p50", p50, "s"},
               {"job_s_p90", p90, "s"},
               {"samples_per_s", samplesRate, "1/s"},
               {"peak_rss_mb", peakRssMb(), "MiB"}};
  }
  std::cout << resultJson(all.mismatched == 0, all.attempted, all.failed, metrics)
            << std::endl;
  return all.mismatched == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = parseArgs(argc, argv);
  int status = 1;
  try {
    status = run(config);
  } catch (const std::exception& e) {
    std::cerr << "jobbench: " << config.workload << " failed: " << e.what() << "\n";
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(config.workDir, ec);
  std::filesystem::remove(".bench_run", ec);  // only succeeds when empty
  return status;
}
