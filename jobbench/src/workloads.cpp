#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/algorithms.hpp"
#include "jobs.hpp"
#include "mw/mw_task.hpp"
#include "mw/parallel_runner.hpp"
#include "mw/sampling_service.hpp"
#include "net/tcp_transport.hpp"
#include "placement.hpp"
#include "probes.hpp"
#include "service/service.hpp"
#include "service/service_client.hpp"
#include "service/service_worker.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "water/md_objective.hpp"

namespace jobbench {
namespace {

namespace fs = std::filesystem;
using sfopt::core::OptimizationResult;
using sfopt::service::JobSpec;

constexpr int kFleetWorkers = 2;
constexpr int kDaemonClients = 3;
// Distinct specs per stream: enough that a seed's pool-average job cost
// is stable, few enough that their references stay cheap.
constexpr std::size_t kRosenbrockPool = 256;
constexpr int kSetupRepetitions = 51;
// `sfopt worker` dials with these: 10 attempts, 0.2 s initial backoff,
// 2 s heartbeats and a 30 s master-silence deadline.
constexpr int kConnectAttempts = 10;
constexpr double kInitialBackoffSeconds = 0.2;
constexpr double kWorkerHeartbeatSeconds = 2.0;
constexpr double kMasterTimeoutSeconds = 30.0;
constexpr double kJobTimeoutSeconds = 60.0;
// Untimed jobs streamed before an untraced pass's timed phase: the first
// second of a fresh deployment ran slower than the rest of the run (on
// fleet-tcp by about a quarter, in every run).  Traced passes skip it so
// their decorator totals cover exactly the timed jobs.
constexpr double kWarmupSeconds = 1.0;

[[nodiscard]] double warmupSeconds(bool traced) { return traced ? 0.0 : kWarmupSeconds; }

// ---------------------------------------------------------------------------
// Closed-loop job stream with the result oracle.

/// Hands out pool indices until the deadline and checks every returned
/// result against the pool's in-process reference.  Shared by the client
/// threads of a workload.
class JobStream {
 public:
  JobStream(const std::vector<OptimizationResult>& references, bool corruptOne,
            Outcome& out)
      : references_(references), corruptOne_(corruptOne), out_(out) {}

  /// Stream for `warmup + seconds`; only jobs begun after the warm-up are
  /// timed, though every job is checked.
  void start(double warmup, double seconds) {
    start_ = nowSeconds() + warmup;
    deadline_ = start_ + seconds;
  }
  void finish() { out_.timedSeconds = nowSeconds() - start_; }

  /// Next pool index, or nullopt once the timed phase is over.
  [[nodiscard]] std::optional<std::size_t> next() {
    if (nowSeconds() >= deadline_) return std::nullopt;
    return next_.fetch_add(1) % references_.size();
  }

  void returned(std::size_t index, double seconds, OptimizationResult result) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++out_.attempted;
    if (corruptOne_ && !corrupted_) {
      result.bestEstimate = std::nextafter(result.bestEstimate, 1e300);
      corrupted_ = true;
    }
    const std::string diff = resultMismatch(result, references_[index]);
    if (!diff.empty()) {
      ++out_.failed;
      if (out_.mismatched++ == 0) {
        out_.notes.push_back("oracle:   job " + std::to_string(out_.attempted) + " (spec " +
                             std::to_string(index) + ") differs from its reference in " +
                             diff);
      }
    }
    if (nowSeconds() - seconds < start_) return;  // begun during the warm-up
    out_.jobSeconds.push_back(seconds);
    out_.samples += result.totalSamples;
  }

  void failed(const std::string& why) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++out_.attempted;
    if (out_.failed++ - out_.mismatched == 0) out_.notes.push_back("failure:  " + why);
  }

 private:
  const std::vector<OptimizationResult>& references_;
  const bool corruptOne_;
  Outcome& out_;
  std::mutex mutex_;
  std::atomic<std::size_t> next_{0};
  double start_ = 0.0;
  double deadline_ = 0.0;
  bool corrupted_ = false;
};

/// Reference results for a Rosenbrock pool, computed in-process before the
/// timed phase.  In-process jobs are checked for determinism against a
/// second serial run.  Fleet jobs are checked against the repo's bitwise
/// ground truth: the same spec run alone over the in-process MW backend
/// (the serial path folds per sample rather than per 64-sample chunk, so
/// its estimate differs in the last bits).  The serial runs are timed
/// either way; they are the solo baseline of the overhead figure.
std::vector<OptimizationResult> references(const std::vector<JobSpec>& pool, bool overMw,
                                           Outcome& out) {
  std::vector<OptimizationResult> refs;
  refs.reserve(pool.size());
  for (const JobSpec& spec : pool) {
    const auto objective = spec.objective.makeObjective();
    const double t0 = nowSeconds();
    OptimizationResult solo = runSolo(spec, objective);
    out.soloSeconds.push_back(nowSeconds() - t0);
    if (!overMw) {
      refs.push_back(std::move(solo));
      continue;
    }
    sfopt::mw::MWRunConfig cfg;
    cfg.workers = kFleetWorkers;
    cfg.clientsPerWorker = static_cast<int>(spec.objective.clients);
    refs.push_back(
        sfopt::mw::runSimplexOverMW(objective, spec.initial, spec.makeOptions(), cfg)
            .optimization);
  }
  return refs;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// solo and water-md: in-process, one closed-loop client.

/// Set-up of an in-process workload is building its objective, which takes
/// well under a microsecond: each entry is the mean of a batch of builds,
/// so the reported median is not clock granularity.
template <class Build>
std::vector<double> repeatedBuildSeconds(Build build) {
  constexpr int kBatches = 11;
  constexpr int kBuildsPerBatch = 1000;
  std::vector<double> perBuild;
  std::size_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = nowSeconds();
    for (int i = 0; i < kBuildsPerBatch; ++i) sink += build();
    perBuild.push_back((nowSeconds() - t0) / kBuildsPerBatch);
  }
  if (sink == 0) throw std::logic_error("objective with no dimensions");
  return perBuild;
}

/// Run a pool through `runJob` for `seconds` (after the warm-up of an
/// untraced pass).  `runJob(spec)` returns the result and may use decorated
/// objectives; the stream does the timing.
template <class RunJob>
void streamInProcess(const std::vector<JobSpec>& pool,
                     const std::vector<OptimizationResult>& refs, const Config& config,
                     bool traced, double seconds, Outcome& out, RunJob runJob) {
  JobStream stream(refs, config.corruptOne, out);
  stream.start(warmupSeconds(traced), seconds);
  while (const auto index = stream.next()) {
    const double t0 = nowSeconds();
    OptimizationResult res = runJob(pool[*index]);
    stream.returned(*index, nowSeconds() - t0, std::move(res));
  }
  stream.finish();
}

void addCoreCounts(Outcome& out, const std::vector<OptimizationResult>& results) {
  double iterations = 0.0;
  double samples = 0.0;
  for (const auto& r : results) {
    iterations += static_cast<double>(r.iterations);
    samples += static_cast<double>(r.totalSamples);
  }
  out.layers["core.iterations"] = iterations;
  out.layers["core.samples"] = samples;
}

Outcome runSoloWorkload(const Config& config, bool traced, double seconds) {
  Outcome out;
  const auto pool = rosenbrockJobs(config.seed, kRosenbrockPool, 50'000);
  const auto refs = references(pool, false, out);

  // Nothing to deploy: set-up is building the first job's objective.
  out.setupSeconds = repeatedBuildSeconds([&] {
    const auto objective = pool.front().objective.makeObjective();
    return objective.dimension();
  });

  std::uint64_t calls = 0;
  double busy = 0.0;
  std::vector<OptimizationResult> results;
  streamInProcess(pool, refs, config, traced, seconds, out, [&](const JobSpec& spec) {
    const auto objective = spec.objective.makeObjective();
    if (!traced) return runSolo(spec, objective);
    const TimedObjective timed(objective);
    OptimizationResult res = runSolo(spec, timed);
    calls += timed.calls();
    busy += timed.busySeconds();
    results.push_back(res);
    return res;
  });
  if (traced) {
    const double wall = sum(out.jobSeconds);
    addCoreCounts(out, results);
    out.layers["core.self_s"] = wall - busy;
    out.layers["noise.sample.calls"] = static_cast<double>(calls);
    out.layers["noise.sample.busy_s"] = busy;
    out.ledger = {{"job (wall)", static_cast<double>(out.jobSeconds.size()), wall, -1, -1},
                  {"core (engine+sampling)", -1, -1, -1, wall - busy},
                  {"noise.sample", static_cast<double>(calls), busy, -1, busy}};
  }
  return out;
}

Outcome runWaterMdWorkload(const Config& config, bool traced, double seconds) {
  Outcome out;
  // e2e_water's md protocol: 16 molecules, 120 + 240 steps per sample.
  sfopt::water::MdWaterObjective::Options objOpts;
  objOpts.simulation.molecules = 16;
  objOpts.simulation.cutoff = 3.0;
  objOpts.simulation.rdfRMax = 3.0;
  objOpts.simulation.rdfBins = 30;
  objOpts.simulation.equilibrationSteps = 120;
  objOpts.simulation.productionSteps = 240;
  objOpts.simulation.sampleEvery = 10;

  // MN from a perturbed copy of e2e_water's start simplex, stopping on a
  // fixed sample budget so every job runs about the same amount of MD; the
  // spec's objective fields are unused (the MD objective is shared).
  const std::vector<sfopt::core::Point> base{
      {0.20, 3.05, 0.50}, {0.12, 3.30, 0.55}, {0.17, 3.15, 0.45}, {0.14, 3.20, 0.58}};
  Rng rng(config.seed ^ 0x3DULL);
  std::vector<JobSpec> pool(64);
  for (JobSpec& spec : pool) {
    spec.algorithm = "mn";
    spec.k = 2.0;
    spec.termination.tolerance = 0.0;
    spec.termination.maxSamples = 16;
    spec.initial = base;
    for (auto& p : spec.initial) {
      p[0] += rng.uniform(-0.02, 0.02);
      p[1] += rng.uniform(-0.05, 0.05);
      p[2] += rng.uniform(-0.03, 0.03);
    }
  }
  auto runMn = [](const JobSpec& spec, const sfopt::noise::StochasticObjective& objective) {
    auto options = std::get<sfopt::core::MaxNoiseOptions>(spec.makeOptions());
    options.common.initialSamplesPerVertex = 2;
    options.common.sampling.maxSamplesPerVertex = 4;
    return sfopt::core::runMaxNoise(objective, spec.initial, options);
  };

  out.setupSeconds = repeatedBuildSeconds([&] {
    const sfopt::water::MdWaterObjective built(objOpts);
    return built.dimension();
  });
  const sfopt::water::MdWaterObjective objective(objOpts);

  std::vector<OptimizationResult> refs;
  for (const JobSpec& spec : pool) {
    const double t0 = nowSeconds();
    refs.push_back(runMn(spec, objective));
    out.soloSeconds.push_back(nowSeconds() - t0);
  }

  std::optional<TimedObjective> timed;
  if (traced) timed.emplace(objective);
  const sfopt::noise::StochasticObjective& used =
      traced ? static_cast<const sfopt::noise::StochasticObjective&>(*timed) : objective;
  std::vector<OptimizationResult> results;
  streamInProcess(pool, refs, config, traced, seconds, out, [&](const JobSpec& spec) {
    OptimizationResult res = runMn(spec, used);
    if (traced) results.push_back(res);
    return res;
  });
  if (traced) {
    const double wall = sum(out.jobSeconds);
    const double busy = timed->busySeconds();
    const auto calls = static_cast<double>(timed->calls());
    addCoreCounts(out, results);
    out.layers["core.self_s"] = wall - busy;
    out.layers["md.sample.calls"] = calls;
    out.layers["md.sample.busy_s"] = busy;
    out.ledger = {{"job (wall)", static_cast<double>(out.jobSeconds.size()), wall, -1, -1},
                  {"core (engine+sampling)", -1, -1, -1, wall - busy},
                  {"md.sample", calls, busy, -1, busy}};
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fleet plumbing shared by fleet-tcp and daemon.

/// What one worker thread saw; written only by that thread, read after it
/// has been joined.
struct WorkerSlot {
  sfopt::net::Rank rank = 0;
  double joinSeconds = 0.0;
  int joinRetries = 0;
  std::uint64_t tasks = 0;
  std::uint64_t framesSent = 0;
  std::uint64_t framesReceived = 0;
  std::uint64_t decodeErrors = 0;
  std::uint64_t sampleCalls = 0;
  double sampleBusy = 0.0;
  double sendSeconds = 0.0;
  double recvWaitSeconds = 0.0;
  std::vector<double> taskExec;
  std::vector<std::uint64_t> taskTrace;
  std::string error;
  std::atomic<bool> done{false};
};

/// Dial the master the way `sfopt worker` does (same options, same
/// jittered backoff, same attempt budget), counting failed attempts.
std::unique_ptr<sfopt::net::TcpWorkerTransport> joinFleet(std::uint16_t port,
                                                          WorkerSlot& slot) {
  sfopt::net::TcpWorkerTransport::Options options;
  options.heartbeatIntervalSeconds = kWorkerHeartbeatSeconds;
  options.masterTimeoutSeconds = kMasterTimeoutSeconds;
  const double t0 = nowSeconds();
  for (int attempt = 1;; ++attempt) {
    try {
      auto transport =
          std::make_unique<sfopt::net::TcpWorkerTransport>("127.0.0.1", port, options);
      slot.joinSeconds = nowSeconds() - t0;
      slot.rank = transport->rank();
      return transport;
    } catch (const std::exception&) {
      ++slot.joinRetries;
      if (attempt >= kConnectAttempts) throw;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        sfopt::net::backoffDelaySeconds(attempt, kInitialBackoffSeconds, 0)));
  }
}

/// Serve tasks with `worker` until the master shuts its loop down, exposing
/// its counters to the heartbeat thread as `sfopt worker` does (so beats
/// carry fleet snapshots); the provider is cleared before `worker` dies.
void serveTasks(sfopt::mw::MWWorker& worker, sfopt::net::TcpWorkerTransport& transport) {
  transport.setStatsProvider([&worker] {
    return sfopt::net::WorkerStats{worker.tasksExecuted(), worker.tasksFailed(),
                                   worker.executeEwmaSeconds()};
  });
  try {
    worker.run();
  } catch (...) {
    transport.setStatsProvider({});
    throw;
  }
  transport.setStatsProvider({});
}

/// Run `body(comm, transport, slot)` on a worker thread, `comm` being the
/// transport or its decorator, then record the transport-level counters.
template <class Body>
void workerMain(std::uint16_t port, bool traced, WorkerSlot& slot, Body body) noexcept {
  try {
    auto transport = joinFleet(port, slot);
    std::optional<TimedTransport> timed;
    sfopt::net::Transport& comm =
        traced ? static_cast<sfopt::net::Transport&>(timed.emplace(*transport)) : *transport;
    body(comm, *transport, slot);
    if (timed) {
      slot.sendSeconds = timed->sendSeconds;
      slot.recvWaitSeconds = timed->recvWaitSeconds;
      slot.taskExec = std::move(timed->taskExec);
      slot.taskTrace = std::move(timed->taskTrace);
    }
    slot.framesSent = transport->framesSent();
    slot.framesReceived = transport->framesReceived();
    slot.decodeErrors = transport->decodeErrors();
  } catch (const std::exception& e) {
    slot.error = e.what();
  }
  slot.done.store(true);
}

/// Keep the master's event loop turning (so queued shutdown frames reach
/// the workers) until every worker thread has finished, then join them.
void joinWorkers(sfopt::net::TcpCommWorld& world, std::vector<std::thread>& threads,
                 std::vector<std::unique_ptr<WorkerSlot>>& slots) {
  for (;;) {
    bool all = true;
    for (const auto& s : slots) all = all && s->done.load();
    if (all) break;
    world.pump(0.01);
  }
  for (auto& t : threads) t.join();
  threads.clear();
}

void addWorkerLayers(Outcome& out, const std::vector<std::unique_ptr<WorkerSlot>>& slots,
                     double timedSeconds) {
  double joinMax = 0.0;
  double retries = 0.0;
  double tasks = 0.0;
  double frames = 0.0;
  double framesIn = 0.0;
  double decodeErrors = 0.0;
  double sendSeconds = 0.0;
  double recvWait = 0.0;
  std::vector<double> exec;
  for (const auto& s : slots) {
    joinMax = std::max(joinMax, s->joinSeconds);
    retries += s->joinRetries;
    tasks += static_cast<double>(s->tasks);
    frames += static_cast<double>(s->framesSent);
    framesIn += static_cast<double>(s->framesReceived);
    decodeErrors += static_cast<double>(s->decodeErrors);
    sendSeconds += s->sendSeconds;
    recvWait += s->recvWaitSeconds;
    exec.insert(exec.end(), s->taskExec.begin(), s->taskExec.end());
  }
  const double workerWall = timedSeconds * static_cast<double>(slots.size());
  out.layers["mw.tasks"] = tasks;
  out.layers["mw.task_exec_s_p50"] = median(exec);
  out.layers["mw.worker_wall_s"] = workerWall;
  out.layers["mw.worker_idle_frac"] = workerWall > 0.0 ? 1.0 - sum(exec) / workerWall : 0.0;
  out.layers["net.worker.send_s"] = sendSeconds;
  out.layers["net.frames_sent"] += frames;
  out.layers["net.frames_received"] += framesIn;
  out.layers["net.decode_errors"] += decodeErrors;
  out.layers["net.join_s"] = joinMax;
  out.layers["net.join_retries"] = retries;
  out.ledger.push_back({"worker.execute", static_cast<double>(exec.size()), sum(exec), -1,
                        -1});
  out.ledger.push_back({"net.worker.send", -1, sendSeconds, -1, -1});
  out.ledger.push_back({"net.worker.recv (idle)", -1, -1, recvWait, -1});
}

// ---------------------------------------------------------------------------
// fleet-tcp: runSimplexOverTransport over loopback TCP, 2 SamplingWorkers.

/// One deployed fleet.  Each job is announced to the workers with a
/// kTagConfig message carrying its objective (what `sfopt serve`'s greeting
/// carries), after which the master runs the job and shuts the workers'
/// task loop down; a "stop" config ends the worker threads and a "move"
/// config pins them to another CPU.
struct Fleet {
  std::unique_ptr<sfopt::net::TcpCommWorld> world;
  std::vector<std::unique_ptr<WorkerSlot>> slots;
  std::vector<std::thread> threads;

  void start(bool traced) {
    world = std::make_unique<sfopt::net::TcpCommWorld>(0);
    for (int w = 0; w < kFleetWorkers; ++w) {
      slots.push_back(std::make_unique<WorkerSlot>());
      threads.emplace_back([port = world->port(), traced, slot = slots.back().get()] {
        workerMain(port, traced, *slot, [traced](sfopt::net::Transport& comm,
                                                 sfopt::net::TcpWorkerTransport& transport,
                                                 WorkerSlot& s) {
          for (;;) {
            sfopt::net::Message cfg = comm.recv(s.rank, 0, sfopt::mw::kTagConfig);
            const std::string kind = cfg.payload.unpackString();
            if (kind == "move") {
              pinThisThread(static_cast<int>(cfg.payload.unpackInt64()));
              continue;
            }
            if (kind != "job") return;
            const auto spec = sfopt::service::ObjectiveSpec::unpack(cfg.payload);
            const auto objective = spec.makeObjective();
            std::optional<TimedObjective> timedObj;
            if (traced) timedObj.emplace(objective);
            const sfopt::noise::StochasticObjective& used =
                traced ? static_cast<const sfopt::noise::StochasticObjective&>(*timedObj)
                       : objective;
            sfopt::mw::SamplingWorker worker(comm, s.rank, used, 1);
            serveTasks(worker, transport);
            s.tasks += worker.tasksExecuted();
            if (timedObj) {
              s.sampleCalls += timedObj->calls();
              s.sampleBusy += timedObj->busySeconds();
            }
          }
        });
      });
    }
    world->waitForWorkers(kFleetWorkers, 60.0);
  }

  /// Pin every worker thread, and the threads it starts from then on, to
  /// `cpu`.
  void moveWorkers(int cpu) {
    for (sfopt::net::Rank r = 1; r < world->size(); ++r) {
      sfopt::mw::MessageBuffer cfg;
      cfg.pack(std::string("move"));
      cfg.pack(static_cast<std::int64_t>(cpu));
      world->send(0, r, sfopt::mw::kTagConfig, std::move(cfg));
    }
  }

  void announce(sfopt::net::Transport& comm, const std::string& kind,
                const sfopt::service::ObjectiveSpec* spec) {
    for (sfopt::net::Rank r = 1; r < comm.size(); ++r) {
      sfopt::mw::MessageBuffer cfg;
      cfg.pack(kind);
      if (spec != nullptr) spec->pack(cfg);
      comm.send(0, r, sfopt::mw::kTagConfig, std::move(cfg));
    }
  }

  /// A worker may still be inside a job's task loop if that job failed
  /// before its MWDriver shut the loop down, so end the loop first; a worker
  /// already waiting for a config leaves the shutdown queued and unread.
  void stop() {
    if (!world) return;
    for (sfopt::net::Rank r = 1; r < world->size(); ++r) {
      world->send(0, r, sfopt::mw::kTagShutdown, sfopt::mw::MessageBuffer{});
    }
    announce(*world, "stop", nullptr);
    joinWorkers(*world, threads, slots);
  }

  ~Fleet() {
    if (!threads.empty()) stop();
  }
};

void checkWorkers(const std::vector<std::unique_ptr<WorkerSlot>>& slots, Outcome& out) {
  for (const auto& s : slots) {
    if (!s->error.empty()) out.notes.push_back("worker:   rank " + std::to_string(s->rank) +
                                               " ended with: " + s->error);
  }
}

Outcome runFleetTcpWorkload(const Config& config, bool traced, double seconds) {
  Outcome out;
  const auto pool = rosenbrockJobs(config.seed, kRosenbrockPool, 50'000);
  const auto refs = references(pool, true, out);

  auto fleetPtr = std::make_unique<Fleet>();
  for (int i = 0; i < kSetupRepetitions; ++i) {
    if (i > 0) {
      fleetPtr->stop();
      fleetPtr = std::make_unique<Fleet>();
    }
    const double t0 = nowSeconds();
    fleetPtr->start(traced);
    out.setupSeconds.push_back(nowSeconds() - t0);
  }
  Fleet& fleet = *fleetPtr;

  // Set-up runs with every thread on the process's one CPU, where its median
  // held within 7% across runs two hours apart on a shared VM.  For the jobs
  // the workers then move to the CPU before the master's, as a deployed
  // fleet runs its master and workers on different cores, and both CPUs
  // are kept from halting, since every task now wakes a thread on the other
  // one.  With every thread on one CPU a task is a string of context
  // switches whose price swung with the host's load: job_s_p50 moved by up
  // to 40% between runs minutes apart, against under 10% split this way.
  std::optional<IdleSpinners> spinners;
  if (config.cpus.size() >= 2) {
    const int workerCpu = config.cpus[config.cpus.size() - 2];
    fleet.moveWorkers(workerCpu);
    spinners.emplace(std::vector<int>{workerCpu, config.cpus.back()});
    if (!traced) {
      out.notes.push_back("affinity: fleet workers moved to cpu " + std::to_string(workerCpu) +
                          " after set-up, master on cpu " + std::to_string(config.cpus.back()) +
                          ", idle-priority spinners on both");
    }
  }

  std::optional<TimedTransport> timedMaster;
  sfopt::net::Transport& comm =
      traced ? static_cast<sfopt::net::Transport&>(timedMaster.emplace(*fleet.world))
             : *fleet.world;
  sfopt::mw::MWRunConfig runCfg;
  runCfg.clientsPerWorker = 1;
  runCfg.recvTimeoutSeconds = kJobTimeoutSeconds;

  std::vector<OptimizationResult> results;
  double engineWall = 0.0;
  double masterSampleBusy = 0.0;
  std::uint64_t masterSampleCalls = 0;
  std::uint64_t requeued = 0;
  JobStream stream(refs, config.corruptOne, out);
  stream.start(warmupSeconds(traced), seconds);
  while (const auto index = stream.next()) {
    const JobSpec& spec = pool[*index];
    const double t0 = nowSeconds();
    try {
      fleet.announce(comm, "job", &spec.objective);
      const auto objective = spec.objective.makeObjective();
      std::optional<TimedObjective> timedObj;
      if (traced) timedObj.emplace(objective);
      const sfopt::noise::StochasticObjective& used =
          traced ? static_cast<const sfopt::noise::StochasticObjective&>(*timedObj)
                 : objective;
      auto run =
          sfopt::mw::runSimplexOverTransport(used, spec.initial, spec.makeOptions(), comm,
                                             runCfg);
      const double t1 = nowSeconds();
      engineWall += run.masterWallSeconds;
      requeued += run.tasksRequeued;
      if (timedObj) {
        masterSampleCalls += timedObj->calls();
        masterSampleBusy += timedObj->busySeconds();
      }
      if (traced) results.push_back(run.optimization);
      stream.returned(*index, t1 - t0, std::move(run.optimization));
    } catch (const std::exception& e) {
      stream.failed(std::string("fleet job: ") + e.what());
      break;  // the fleet's state is unknown; stop streaming
    }
  }
  stream.finish();
  fleet.stop();
  checkWorkers(fleet.slots, out);

  if (traced) {
    const TimedTransport& m = *timedMaster;
    const double wall = sum(out.jobSeconds);
    addCoreCounts(out, results);
    double workerCalls = 0.0;
    double workerBusy = 0.0;
    std::vector<double> rtt;
    std::vector<double> exec;
    std::vector<double> wire;
    for (const auto& s : fleet.slots) {
      workerCalls += static_cast<double>(s->sampleCalls);
      workerBusy += s->sampleBusy;
      const auto it = m.taskRtt.find(s->rank);
      if (it == m.taskRtt.end()) continue;
      const std::size_t n = std::min(it->second.size(), s->taskExec.size());
      for (std::size_t i = 0; i < n; ++i) wire.push_back(it->second[i] - s->taskExec[i]);
    }
    for (const auto& [rank, v] : m.taskRtt) rtt.insert(rtt.end(), v.begin(), v.end());
    // Master-thread rows: the engine run (the program's own timer) splits
    // into decorated transport/objective time and the remainder, which is
    // engine decide + SamplingContext + EvalScheduler + MWDriver dispatch
    // and fold.  Whatever the job wall holds outside the engine run
    // (MWDriver construction/shutdown, job announcement) is the residual.
    const double coreSelf =
        engineWall - m.sendSeconds - m.recvWaitSeconds - masterSampleBusy;
    out.layers["core.self_s"] = coreSelf;
    out.layers["noise.sample.calls"] = static_cast<double>(masterSampleCalls) + workerCalls;
    out.layers["noise.sample.busy_s"] = masterSampleBusy + workerBusy;
    out.layers["mw.tasks_requeued"] = static_cast<double>(requeued);
    out.layers["mw.task_rtt_s_p50"] = median(rtt);
    out.layers["mw.task_wire_s_p50"] = median(wire);
    out.layers["net.master.send_calls"] = static_cast<double>(m.sendCalls);
    out.layers["net.master.send_bytes"] = static_cast<double>(m.sendBytes);
    out.layers["net.master.send_s"] = m.sendSeconds;
    out.layers["net.master.recv_wait_s"] = m.recvWaitSeconds;
    out.layers["net.frames_sent"] = static_cast<double>(fleet.world->framesSent());
    out.layers["net.frames_received"] = static_cast<double>(fleet.world->framesReceived());
    out.layers["net.decode_errors"] = static_cast<double>(fleet.world->decodeErrors());
    out.ledger = {
        {"job (wall, master thread)", static_cast<double>(out.jobSeconds.size()), wall, -1,
         -1},
        {"core (engine..MWDriver)", -1, -1, -1, coreSelf},
        {"net.master.send", static_cast<double>(m.sendCalls), m.sendSeconds, -1, -1},
        {"net.master.recv", static_cast<double>(m.recvCalls), -1, m.recvWaitSeconds, -1},
        {"noise.sample (master)", static_cast<double>(masterSampleCalls), masterSampleBusy,
         -1, -1},
        {"residual (outside engine)", -1, -1, -1, wall - engineWall},
        {"mw.task (rtt = exec + wire)", static_cast<double>(rtt.size()), sum(rtt), -1, -1},
        {"noise.sample (workers)", workerCalls, workerBusy, -1, -1},
    };
    const double residual = wall > 0.0 ? (wall - engineWall) / wall : 0.0;
    char line[200];
    std::snprintf(line, sizeof line,
                  "ledger:   master-thread rows sum to %.6f s of %.6f s job wall; residual "
                  "%.2f%% (stated bound 5%%: %s)",
                  engineWall, wall, 100.0 * residual, residual <= 0.05 ? "within" : "EXCEEDED");
    out.notes.emplace_back(line);
    addWorkerLayers(out, fleet.slots, out.timedSeconds);
  }
  return out;
}

// ---------------------------------------------------------------------------
// daemon: OptimizationService with a state dir and JSONL telemetry, 2
// ServiceWorkers, 3 closed-loop ServiceClients.

struct Daemon {
  std::unique_ptr<sfopt::telemetry::JsonlSink> sink;
  std::unique_ptr<sfopt::telemetry::Telemetry> telemetry;
  std::unique_ptr<sfopt::net::TcpCommWorld> world;
  std::unique_ptr<sfopt::service::OptimizationService> service;
  std::atomic<bool> stopFlag{false};
  std::thread loop;
  std::vector<std::unique_ptr<WorkerSlot>> slots;
  std::vector<std::thread> workers;
  std::vector<std::unique_ptr<sfopt::service::ServiceClient>> clients;
  fs::path telemetryPath;

  /// Deploy as `sfopt serve --daemon --state-dir D --telemetry-out T
  /// --telemetry-flush 0` plus two `sfopt worker`s, then connect the
  /// clients; returns once the first job can be submitted.
  void start(const fs::path& dir, bool traced) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    telemetryPath = dir / "telemetry.jsonl";
    sink = std::make_unique<sfopt::telemetry::JsonlSink>(telemetryPath);
    sink->setFlushIntervalSeconds(0.0);
    telemetry = std::make_unique<sfopt::telemetry::Telemetry>(*sink);
    sfopt::net::TcpCommWorld::Options netOpts;
    netOpts.telemetry = telemetry.get();
    world = std::make_unique<sfopt::net::TcpCommWorld>(0, netOpts);
    sfopt::mw::MessageBuffer greeting;
    greeting.pack(std::string("service-v1"));
    world->setGreeting(sfopt::mw::kTagConfig, std::move(greeting));
    for (int w = 0; w < kFleetWorkers; ++w) {
      slots.push_back(std::make_unique<WorkerSlot>());
      workers.emplace_back([port = world->port(), traced, slot = slots.back().get()] {
        workerMain(port, traced, *slot, [](sfopt::net::Transport& comm,
                                           sfopt::net::TcpWorkerTransport& transport,
                                           WorkerSlot& s) {
          auto cfg = comm.recvFor(s.rank, 30.0, 0, sfopt::mw::kTagConfig);
          if (!cfg || cfg->payload.unpackString() != "service-v1") {
            throw std::runtime_error("no service-v1 greeting from the daemon");
          }
          sfopt::service::ServiceWorker worker(comm, s.rank, 4);
          serveTasks(worker, transport);
          s.tasks = worker.tasksExecuted();
        });
      });
    }
    world->waitForWorkers(kFleetWorkers, 60.0);
    sfopt::service::ServiceOptions svcOpts;
    svcOpts.stateDir = (dir / "state").string();
    svcOpts.telemetry = telemetry.get();
    service = std::make_unique<sfopt::service::OptimizationService>(*world, svcOpts);
    loop = std::thread([this] { (void)service->run(stopFlag); });
    for (int c = 0; c < kDaemonClients; ++c) {
      clients.push_back(
          std::make_unique<sfopt::service::ServiceClient>("127.0.0.1", world->port()));
    }
  }

  void stop() {
    if (!loop.joinable()) return;
    stopFlag.store(true);
    loop.join();
    joinWorkers(*world, workers, slots);
    clients.clear();
    sink->flush();
  }

  ~Daemon() {
    if (loop.joinable()) {
      stopFlag.store(true);
      loop.join();
    }
    for (auto& t : workers) t.join();
  }
};

double counterValue(const sfopt::telemetry::Telemetry& tel, const std::string& name) {
  for (const auto& m : tel.metrics().snapshot()) {
    if (m.name != name) continue;
    return m.kind == sfopt::telemetry::MetricSnapshot::Kind::Counter
               ? static_cast<double>(m.intValue)
               : m.numValue;
  }
  return 0.0;
}

Outcome runDaemonWorkload(const Config& config, bool traced, double seconds) {
  Outcome out;
  const auto pool = daemonJobs(config.seed, kRosenbrockPool);
  const auto refs = references(pool, true, out);

  const fs::path base = fs::path(config.workDir) / "daemon";
  auto daemon = std::make_unique<Daemon>();
  for (int i = 0; i < kSetupRepetitions; ++i) {
    if (i > 0) {
      daemon->stop();
      daemon = std::make_unique<Daemon>();
    }
    const double t0 = nowSeconds();
    daemon->start(base / std::to_string(i), traced);
    out.setupSeconds.push_back(nowSeconds() - t0);
  }

  std::vector<double> submitSeconds;
  std::vector<double> waitSeconds;
  std::mutex layerMutex;
  JobStream stream(refs, config.corruptOne, out);
  stream.start(warmupSeconds(traced), seconds);
  std::vector<std::thread> clientThreads;
  for (auto& clientPtr : daemon->clients) {
    clientThreads.emplace_back([&, client = clientPtr.get()] {
      while (const auto index = stream.next()) {
        try {
          const double t0 = nowSeconds();
          const auto ack = client->submit(pool[*index]);
          const double t1 = nowSeconds();
          if (ack.state == sfopt::service::JobState::Rejected) {
            stream.failed("submission refused: " + ack.detail);
            continue;
          }
          const auto reply = client->waitResult(kJobTimeoutSeconds);
          const double t2 = nowSeconds();
          {
            const std::lock_guard<std::mutex> lock(layerMutex);
            submitSeconds.push_back(t1 - t0);
            waitSeconds.push_back(t2 - t1);
          }
          if (reply.state != sfopt::service::JobState::Done || !reply.outcome) {
            stream.failed("job ended " + std::string(sfopt::service::toString(reply.state)) +
                          ": " + reply.detail);
            continue;
          }
          stream.returned(*index, t2 - t0, reply.outcome->toResult());
        } catch (const std::exception& e) {
          stream.failed(std::string("client: ") + e.what());
          return;  // the connection's state is unknown
        }
      }
    });
  }
  for (auto& t : clientThreads) t.join();
  stream.finish();
  daemon->stop();
  checkWorkers(daemon->slots, out);

  std::error_code ec;
  if (traced) {
    const sfopt::telemetry::Telemetry& tel = *daemon->telemetry;
    const double events = static_cast<double>(daemon->sink->eventsWritten());
    const auto bytes = fs::file_size(daemon->telemetryPath, ec);
    const double hits = counterValue(tel, "eval.speculation_hits");
    const double misses = counterValue(tel, "eval.speculation_misses");
    out.layers["service.submit_s_p50"] = median(submitSeconds);
    out.layers["service.wait_s_p50"] = median(waitSeconds);
    out.layers["service.rejected"] = counterValue(tel, "service.jobs.rejected");
    out.layers["service.shards_routed"] = counterValue(tel, "service.shards.routed");
    out.layers["service.journal_bytes"] = counterValue(tel, "service.journal_bytes");
    out.layers["service.checkpoints_written"] =
        counterValue(tel, "service.checkpoints_written");
    out.layers["mw.tasks_requeued"] = counterValue(tel, "mw.tasks_requeued");
    out.layers["core.speculation_rounds"] = hits + misses;
    out.layers["core.speculation_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out.layers["net.frames_sent"] = static_cast<double>(daemon->world->framesSent());
    out.layers["net.frames_received"] = static_cast<double>(daemon->world->framesReceived());
    out.layers["net.decode_errors"] = static_cast<double>(daemon->world->decodeErrors());
    // The daemon's master transport is concrete, so task round trips come
    // from the `shard.remote` spans MWDriver already writes to the JSONL
    // capture, paired with the workers' execute times by trace id.
    std::unordered_map<std::uint64_t, double> execByTrace;
    for (const auto& s : daemon->slots) {
      for (std::size_t i = 0; i < s->taskExec.size(); ++i) {
        execByTrace[s->taskTrace[i]] = s->taskExec[i];
      }
    }
    std::vector<double> rtt;
    std::vector<double> wire;
    for (const auto& e : sfopt::telemetry::readJsonlEvents(daemon->telemetryPath)) {
      if (e.name != "shard.remote" || e.duration < 0.0 || e.str("outcome") != "ok") continue;
      rtt.push_back(e.duration);
      const auto it = execByTrace.find(e.trace);
      if (it != execByTrace.end()) wire.push_back(e.duration - it->second);
    }
    out.layers["mw.task_rtt_s_p50"] = median(rtt);
    out.layers["mw.task_wire_s_p50"] = median(wire);
    out.layers["telemetry.events"] = events;
    out.layers["telemetry.bytes"] = ec ? 0.0 : static_cast<double>(bytes);
    out.ledger = {
        {"job (wall, per client)", static_cast<double>(out.jobSeconds.size()),
         sum(out.jobSeconds), -1, -1},
        {"service.submit (client)", static_cast<double>(submitSeconds.size()),
         sum(submitSeconds), -1, -1},
        {"service.wait (client)", static_cast<double>(waitSeconds.size()), -1,
         sum(waitSeconds), -1},
        {"mw.task (rtt, from spans)", static_cast<double>(rtt.size()), sum(rtt), -1, -1},
        {"telemetry.sink (events)", events, -1, -1, -1},
    };
    char line[240];
    std::snprintf(line, sizeof line,
                  "counters: speculation hit rate %.4f of %.0f rounds; %.0f requeues; %.0f "
                  "checkpoints; journal %.0f bytes; %.0f telemetry events (%.0f bytes)",
                  out.layers["core.speculation_hit_rate"], hits + misses,
                  out.layers["mw.tasks_requeued"], out.layers["service.checkpoints_written"],
                  out.layers["service.journal_bytes"], events,
                  out.layers["telemetry.bytes"]);
    out.notes.emplace_back(line);
    out.notes.emplace_back(
        "ledger:   no core or net.master rows here: the engines run on daemon threads and "
        "the daemon's master transport is a concrete TcpCommWorld, so neither can be "
        "decorated from outside");
    addWorkerLayers(out, daemon->slots, out.timedSeconds);
  }
  daemon.reset();
  fs::remove_all(base, ec);
  return out;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"solo", "fleet-tcp", "daemon", "water-md"};
  return names;
}

Outcome runWorkload(const Config& config, bool traced, double seconds) {
  if (config.workload == "solo") return runSoloWorkload(config, traced, seconds);
  if (config.workload == "fleet-tcp") return runFleetTcpWorkload(config, traced, seconds);
  if (config.workload == "daemon") return runDaemonWorkload(config, traced, seconds);
  if (config.workload == "water-md") return runWaterMdWorkload(config, traced, seconds);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace jobbench
