// JobTable's three tiers: active (queued + running) JobRecords, compact
// finished records, and one-byte evicted states.  The daemon loop counts
// and scans only the active tier, so none of this may cost more as the
// daemon ages.

#include "service/job_table.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace sfopt;
using service::FinishedRecord;
using service::JobState;

service::JobSpec tinySpec() {
  service::JobSpec spec;
  spec.objective.function = "sphere";
  spec.objective.dim = 1;
  spec.algorithm = "det";
  spec.initial = {core::Point(1, 1.0), core::Point(1, 2.0)};
  return spec;
}

FinishedRecord done(double estimate) {
  service::JobOutcome outcome;
  outcome.bestEstimate = estimate;
  return FinishedRecord{JobState::Done, "", outcome};
}

/// Admit and finish `n` jobs one at a time; returns the last id.
std::uint64_t runJobs(service::JobTable& table, int n) {
  std::uint64_t id = 0;
  for (int i = 0; i < n; ++i) {
    const service::Admission a = table.admit(tinySpec(), 1, 0.0);
    EXPECT_TRUE(a.accepted);
    id = a.jobId;
    table.find(id)->state = JobState::Running;
    table.finish(id, done(static_cast<double>(id)));
  }
  return id;
}

TEST(JobTable, FinishingMovesAJobOutOfTheActiveTier) {
  service::JobTable table(2, 2);
  const std::uint64_t a = table.admit(tinySpec(), 1, 0.0).jobId;
  const std::uint64_t b = table.admit(tinySpec(), 2, 0.0).jobId;
  EXPECT_EQ(table.queuedCount(), 2);
  ASSERT_NE(table.nextQueued(), nullptr);
  EXPECT_EQ(table.nextQueued()->id, a);

  table.find(a)->state = JobState::Running;
  EXPECT_EQ(table.runningCount(), 1);
  ASSERT_NE(table.nextQueued(), nullptr);
  EXPECT_EQ(table.nextQueued()->id, b);

  table.finish(a, FinishedRecord{JobState::Failed, "boom", {}});
  EXPECT_EQ(table.find(a), nullptr);
  ASSERT_NE(table.findFinished(a), nullptr);
  EXPECT_EQ(table.findFinished(a)->state, JobState::Failed);
  EXPECT_EQ(table.findFinished(a)->error, "boom");
  EXPECT_EQ(table.runningCount(), 0);
  EXPECT_EQ(table.active().size(), 1u);
  EXPECT_EQ(table.completedCount(), 1);
  EXPECT_TRUE(table.anyActive());

  table.finish(b, FinishedRecord{JobState::Cancelled, "cancelled before start", {}});
  EXPECT_FALSE(table.anyActive());
  EXPECT_EQ(table.nextQueued(), nullptr);
  EXPECT_EQ(table.completedCount(), 2);
}

TEST(JobTable, RetentionKeepsTheNewestAndRemembersEvictedStates) {
  service::JobTable table(1, 0);
  const std::uint64_t last = runJobs(table, 10);
  ASSERT_EQ(last, 10u);
  EXPECT_EQ(table.evictFinishedOver(10).size(), 0u);

  const auto evicted = table.evictFinishedOver(3);
  ASSERT_EQ(evicted.size(), 7u);
  for (std::size_t i = 0; i < evicted.size(); ++i) EXPECT_EQ(evicted[i], i + 1);

  for (std::uint64_t id = 1; id <= 7; ++id) {
    EXPECT_EQ(table.findFinished(id), nullptr);
    ASSERT_TRUE(table.evictedState(id).has_value()) << id;
    EXPECT_EQ(*table.evictedState(id), JobState::Done);
  }
  for (std::uint64_t id = 8; id <= 10; ++id) {
    ASSERT_NE(table.findFinished(id), nullptr);
    EXPECT_EQ(table.findFinished(id)->outcome->bestEstimate, static_cast<double>(id));
    EXPECT_FALSE(table.evictedState(id).has_value());
  }
  EXPECT_FALSE(table.evictedState(11).has_value());
  EXPECT_FALSE(table.evictedState(0).has_value());
  // Evicted jobs still count towards the --max-jobs budget.
  EXPECT_EQ(table.completedCount(), 10);
}

TEST(JobTable, RecoveryRestoresEveryTierAndContinuesTheIdSequence) {
  service::JobTable table(2, 8);
  table.markEvicted(1, JobState::Cancelled);
  table.finish(2, done(2.0));
  service::JobRecord queued;
  queued.id = 3;
  queued.spec = tinySpec();
  table.restore(std::move(queued));

  EXPECT_EQ(table.evictedState(1).value_or(JobState::Unknown), JobState::Cancelled);
  ASSERT_NE(table.findFinished(2), nullptr);
  EXPECT_EQ(table.findFinished(2)->state, JobState::Done);
  ASSERT_NE(table.nextQueued(), nullptr);
  EXPECT_EQ(table.nextQueued()->id, 3u);
  EXPECT_EQ(table.completedCount(), 2);
  EXPECT_EQ(table.admit(tinySpec(), 1, 0.0).jobId, 4u);

  // A damaged journal's out-of-namespace id is counted but never sizes
  // the evicted index.
  table.markEvicted(std::uint64_t{1} << 40, JobState::Done);
  EXPECT_EQ(table.completedCount(), 3);
  EXPECT_FALSE(table.evictedState(std::uint64_t{1} << 40).has_value());
}

TEST(JobTable, AdmissionCountsOnlyActiveJobs) {
  service::JobTable table(1, 1);
  (void)runJobs(table, 50);
  // Fifty finished jobs take no slot: one runs, one queues, one is refused.
  const std::uint64_t running = table.admit(tinySpec(), 1, 0.0).jobId;
  table.find(running)->state = JobState::Running;
  EXPECT_TRUE(table.admit(tinySpec(), 1, 0.0).accepted);
  const service::Admission refused = table.admit(tinySpec(), 1, 0.0);
  EXPECT_FALSE(refused.accepted);
  EXPECT_TRUE(refused.retryable);
  EXPECT_NE(refused.message.find("1 running, 1 queued"), std::string::npos) << refused.message;
}

}  // namespace
