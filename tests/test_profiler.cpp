// Tests for the embedded profiler (core/profiler.h): counter exactness
// against the simulator's own executed() count, zone-tree shape across
// the nested engines, thread-local correctness under the sweep pool,
// snapshot/reset semantics and the report renderers.
//
// Every accumulation assertion is guarded on prof::enabled() so the
// same binary passes in an -DLGS_PROFILING=OFF build, where the macros
// compile to nothing and snapshot() returns an empty disabled Snapshot.
// Counter/zone checks always use before/after *deltas*: the registry is
// process-wide and other tests in this binary accumulate into it too.
#include <gtest/gtest.h>

#include <string>

#include "core/profiler.h"
#include "core/report.h"
#include "core/rng.h"
#include "exp/grid_sweep.h"
#include "sim/grid_sim.h"
#include "sim/shard_sim.h"
#include "sim/simulator.h"
#include "workload/generators.h"

namespace lgs {
namespace {

std::uint64_t counter_delta(const prof::Snapshot& before,
                            const prof::Snapshot& after,
                            const std::string& name) {
  return after.counter(name) - before.counter(name);
}

/// Total calls of the zone `name` wherever it appears in the tree
/// (root or nested — the call tree keys zones by path, so the same
/// site can show up under several parents).
std::uint64_t zone_calls(const std::vector<prof::ZoneReport>& zones,
                         const std::string& name) {
  std::uint64_t calls = 0;
  for (const prof::ZoneReport& z : zones) {
    if (z.name == name) calls += z.calls;
    calls += zone_calls(z.children, name);
  }
  return calls;
}

TEST(Profiler, EnabledMatchesBuildConfiguration) {
#if LGS_PROFILING
  EXPECT_TRUE(prof::enabled());
  EXPECT_TRUE(prof::snapshot().enabled);
#else
  EXPECT_FALSE(prof::enabled());
  EXPECT_FALSE(prof::snapshot().enabled);
#endif
}

TEST(Profiler, SimEventsCounterMatchesSimulatorExecuted) {
  const prof::Snapshot before = prof::snapshot();
  Simulator sim;
  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i)
    sim.at(static_cast<Time>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), static_cast<std::uint64_t>(kEvents));
  if (!prof::enabled()) return;
  const prof::Snapshot after = prof::snapshot();
  // Exactness, not approximation: the counter increments once per
  // executed event, nowhere else.
  EXPECT_EQ(counter_delta(before, after, "sim.events"), sim.executed());
}

TEST(Profiler, CancelledSkipsCountedSeparatelyFromExecutions) {
  const prof::Snapshot before = prof::snapshot();
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(sim.at(static_cast<Time>(i), [] {}));
  for (int i = 0; i < 10; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
  sim.run();
  EXPECT_EQ(sim.executed(), 5u);
  if (!prof::enabled()) return;
  const prof::Snapshot after = prof::snapshot();
  EXPECT_EQ(counter_delta(before, after, "sim.events"), 5u);
  EXPECT_EQ(counter_delta(before, after, "sim.cancelled_skips"), 5u);
}

TEST(Profiler, GridRunNestsSimRunInTheZoneTree) {
  if (!prof::enabled()) GTEST_SKIP() << "profiler compiled out";
  const prof::Snapshot before = prof::snapshot();
  GridSimOptions opts;
  GridSim grid(make_skewed_grid(2, 8, 1.0), opts);
  Rng rng(7);
  JobSet jobs = make_community_workload(Community::kComputerScience, 40, rng,
                                        0, 1.0, 10.0);
  grid.submit_workloads(split_by_community(std::move(jobs), 2));
  (void)grid.run();
  const prof::Snapshot after = prof::snapshot();

  const prof::ZoneReport* grid_zone = after.find_zone("grid.run");
  ASSERT_NE(grid_zone, nullptr);
  // Nesting: GridSim::run drives the kernel, so sim.run must appear as
  // a child of grid.run, not as a sibling root.
  const prof::ZoneReport* sim_zone = after.find_zone("grid.run/sim.run");
  ASSERT_NE(sim_zone, nullptr);
  EXPECT_GE(counter_delta(before, after, "grid.routes"), 40u);
  EXPECT_GE(counter_delta(before, after, "grid.arrival_batches"), 1u);
  EXPECT_GE(counter_delta(before, after, "cluster.dispatch_cycles"), 1u);
}

TEST(Profiler, ZoneInvariantsHoldAcrossTheTree) {
  if (!prof::enabled()) GTEST_SKIP() << "profiler compiled out";
  GridSimOptions opts;
  GridSim grid(make_skewed_grid(2, 8, 1.0), opts);
  Rng rng(11);
  JobSet jobs = make_community_workload(Community::kComputerScience, 30, rng,
                                        0, 1.0, 10.0);
  grid.submit_workloads(split_by_community(std::move(jobs), 2));
  (void)grid.run();
  const prof::Snapshot snap = prof::snapshot();

  // Every zone: non-negative self time, inclusive wall >= sum of the
  // children's walls (within the clamp), calls consistent.
  struct Check {
    static void walk(const std::vector<prof::ZoneReport>& zones) {
      for (const prof::ZoneReport& z : zones) {
        EXPECT_GE(z.self_s, 0.0) << z.name;
        EXPECT_GE(z.wall_s, 0.0) << z.name;
        EXPECT_GT(z.calls, 0u) << z.name;
        double child_wall = 0.0;
        for (const prof::ZoneReport& c : z.children) child_wall += c.wall_s;
        EXPECT_LE(z.self_s, z.wall_s + 1e-12) << z.name;
        EXPECT_NEAR(z.self_s + child_wall, z.wall_s, 1e-9) << z.name;
        walk(z.children);
      }
    }
  };
  Check::walk(snap.roots);
}

TEST(Profiler, SweepPoolThreadsMergeWithoutLosingCells) {
  if (!prof::enabled()) GTEST_SKIP() << "profiler compiled out";
  GridSweepSpec spec;
  spec.cluster_counts = {2};
  spec.skews = {1.0, 2.0};
  spec.seeds = {5};
  spec.jobs_per_cluster = 8;
  spec.besteffort_runs = 50;
  const prof::Snapshot before = prof::snapshot();
  spec.threads = 2;  // fresh pool threads: retirement-merge path
  const GridSweepResult two = run_grid_sweep(spec);
  spec.threads = 1;
  const GridSweepResult one = run_grid_sweep(spec);
  const prof::Snapshot after = prof::snapshot();
  // Both runs' cells land in the merged tree — the pool's exited worker
  // threads retire into the aggregate rather than dropping their trees.
  const std::uint64_t cells =
      zone_calls(after.roots, "grid_sweep.cell") -
      zone_calls(before.roots, "grid_sweep.cell");
  EXPECT_EQ(cells, static_cast<std::uint64_t>(one.cells.size() +
                                              two.cells.size()));
  // Main (the threads=1 run executes cells inline) plus at least one
  // retired pool worker.  Not >= 3: a worker that loses every steal
  // race runs zero cells and never registers a thread state.
  EXPECT_GE(after.threads_merged, 2);
}

TEST(Profiler, HighWaterMergesByMaxAndCountBySum) {
  if (!prof::enabled()) GTEST_SKIP() << "profiler compiled out";
  const prof::Snapshot before = prof::snapshot();
  LGS_PROF_COUNT("test.unique_sum_counter", 3);
  LGS_PROF_COUNT("test.unique_sum_counter", 4);
  LGS_PROF_HIGHWATER("test.unique_hw_counter", 9);
  LGS_PROF_HIGHWATER("test.unique_hw_counter", 2);
  const prof::Snapshot after = prof::snapshot();
  EXPECT_EQ(counter_delta(before, after, "test.unique_sum_counter"), 7u);
  EXPECT_EQ(after.counter("test.unique_hw_counter"), 9u);
  bool found_hw = false;
  for (const prof::CounterReport& c : after.counters)
    if (c.name == "test.unique_hw_counter") found_hw = c.high_water;
  EXPECT_TRUE(found_hw);
}

TEST(Profiler, ResetClearsAccumulationButKeepsLiveThreadsUsable) {
  if (!prof::enabled()) GTEST_SKIP() << "profiler compiled out";
  {
    LGS_PROF_ZONE("test.reset_probe_zone");
    LGS_PROF_COUNT("test.reset_probe_counter", 5);
  }
  EXPECT_GE(prof::snapshot().counter("test.reset_probe_counter"), 5u);
  prof::reset();
  const prof::Snapshot cleared = prof::snapshot();
  EXPECT_EQ(cleared.counter("test.reset_probe_counter"), 0u);
  // Zero-call zones left behind in live threads must not resurface.
  EXPECT_EQ(zone_calls(cleared.roots, "test.reset_probe_zone"), 0u);
  // And the thread keeps accumulating normally afterwards.
  {
    LGS_PROF_ZONE("test.reset_probe_zone");
    LGS_PROF_COUNT("test.reset_probe_counter", 2);
  }
  const prof::Snapshot again = prof::snapshot();
  EXPECT_EQ(again.counter("test.reset_probe_counter"), 2u);
  EXPECT_EQ(zone_calls(again.roots, "test.reset_probe_zone"), 1u);
}

TEST(Profiler, FindZoneWalksPathsAndMissesCleanly) {
  if (!prof::enabled()) GTEST_SKIP() << "profiler compiled out";
  {
    LGS_PROF_ZONE("test.outer_zone");
    LGS_PROF_ZONE("test.inner_zone");
  }
  const prof::Snapshot snap = prof::snapshot();
  ASSERT_NE(snap.find_zone("test.outer_zone"), nullptr);
  ASSERT_NE(snap.find_zone("test.outer_zone/test.inner_zone"), nullptr);
  EXPECT_EQ(snap.find_zone("test.outer_zone/no_such_zone"), nullptr);
  EXPECT_EQ(snap.find_zone("no_such_zone"), nullptr);
  EXPECT_EQ(snap.counter("no.such.counter"), 0u);
}

TEST(Profiler, RenderersProduceWellFormedOutput) {
  const prof::Snapshot snap = prof::snapshot();
  JsonWriter w;
  prof::write_json(w, snap);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"zones\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  const std::string text = prof::summary(snap);
  EXPECT_FALSE(text.empty());
  if (!prof::enabled()) {
    EXPECT_NE(text.find("compiled out"), std::string::npos);
  }
}

JobSet sharding_probe_workload() {
  JobSet jobs;
  for (int c = 0; c < 4; ++c) {
    Rng rng(mix_seed(21, static_cast<std::uint64_t>(c)));
    append_workload(jobs,
                    make_community_workload(static_cast<Community>(c), 25, rng,
                                            static_cast<JobId>(c) * 100, 1.0,
                                            10.0));
  }
  return jobs;
}

// Multi-producer retirement merge: four shard workers accumulate
// "sim.events" into four private thread states that retire at join; the
// merged counter must equal the engine's own executed() sum EXACTLY —
// no lost updates, no double counts.
TEST(Profiler, ShardWorkerCountersSurviveRetiredThreadMerge) {
  if (!prof::enabled()) GTEST_SKIP() << "profiler compiled out";
  const prof::Snapshot before = prof::snapshot();
  GridSimOptions opts;  // isolated, no bags: static strategy, live workers
  ShardGridSim grid(make_skewed_grid(4, 8, 1.5), opts, /*threads=*/4);
  ASSERT_EQ(grid.shard_count(), 4);
  grid.submit_workloads(split_by_community(sharding_probe_workload(), 4));
  (void)grid.run();
  const prof::Snapshot after = prof::snapshot();
  EXPECT_EQ(counter_delta(before, after, "sim.events"),
            grid.events_executed());
  // One grid.shard_run zone entry per worker thread, all surviving the
  // retired-thread merge.
  EXPECT_EQ(zone_calls(after.roots, "grid.shard_run") -
                zone_calls(before.roots, "grid.shard_run"),
            4u);
  EXPECT_GE(after.threads_merged, 2);
}

// Reconciliation against the serial engine: both replays execute the
// same completion and churn events; only the arrival-pump firings
// differ (one per release instant in the serial queue, one per release
// instant with an arrival for the shard in each shard queue), so
//   serial sim.events - serial grid.arrival_batches
//     == sharded sim.events - sharded grid.arrival_batches
TEST(Profiler, ShardedEventTotalsReconcileWithSerialCounter) {
  if (!prof::enabled()) GTEST_SKIP() << "profiler compiled out";
  GridSimOptions opts;  // isolated: static streaming on four shards
  opts.volatility.events = 3;
  opts.volatility.window = 10.0;
  opts.volatility_seed = 5;

  const prof::Snapshot s0 = prof::snapshot();
  GridSim serial(make_skewed_grid(4, 8, 1.5), opts);
  serial.submit_workloads(split_by_community(sharding_probe_workload(), 4));
  (void)serial.run();
  const prof::Snapshot s1 = prof::snapshot();
  ShardGridSim sharded(make_skewed_grid(4, 8, 1.5), opts, /*threads=*/4);
  ASSERT_EQ(sharded.shard_count(), 4);
  sharded.submit_workloads(split_by_community(sharding_probe_workload(), 4));
  (void)sharded.run();
  const prof::Snapshot s2 = prof::snapshot();

  const std::uint64_t serial_events = counter_delta(s0, s1, "sim.events");
  const std::uint64_t serial_batches =
      counter_delta(s0, s1, "grid.arrival_batches");
  const std::uint64_t sharded_events = counter_delta(s1, s2, "sim.events");
  const std::uint64_t sharded_batches =
      counter_delta(s1, s2, "grid.arrival_batches");
  EXPECT_EQ(sharded_events, sharded.events_executed());
  EXPECT_GE(sharded_batches, serial_batches);
  EXPECT_EQ(sharded_events - sharded_batches, serial_events - serial_batches);
}

TEST(Profiler, DisabledMacrosDoNotEvaluateArguments) {
#if !LGS_PROFILING
  int evaluations = 0;
  auto bump = [&evaluations] { return ++evaluations; };
  LGS_PROF_COUNT("test.off_counter", bump());
  LGS_PROF_HIGHWATER("test.off_hw", bump());
  EXPECT_EQ(evaluations, 0) << "disabled macros must not evaluate args";
  static_assert(std::is_empty_v<prof::detail::ZoneScope>,
                "disabled ZoneScope must be an empty type");
#else
  GTEST_SKIP() << "argument-elision contract only applies when OFF";
#endif
}

}  // namespace
}  // namespace lgs
