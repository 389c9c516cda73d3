// Differential harness for the sharded grid engine (sim/shard_sim.h):
// the parallel replay must be BIT-identical to the serial GridSim.
//
// Three layers of evidence, from pinned to randomized:
//  * the four golden scenarios reproduce the pinned serial FNV-1a
//    digests at 1, 2, 4 and hardware-concurrency worker threads;
//  * sharded-vs-serial digest equality holds on ANY standard library
//    (no reference-Rng skip — both engines draw the same streams);
//  * a 200-round randomized small-grid fuzz (random routing, policies,
//    kill policies, volatility, bags, seeds, thread counts — and with
//    them the LPT partition) compares the drained engines field by
//    field — every record, every stats block, bitwise on doubles;
//  * the placement tests pin that the LPT partition is deterministic,
//    balanced, and outcome-neutral;
//  * dynamic routing (threshold / economic) and best-effort bags always
//    replay on one shard, which is GridSim's replay event for event
//    (an explicit central-server kill-policy matrix pins the digests);
//  * a job wider than every cluster throws std::invalid_argument at
//    every thread count, unless it is released after the horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "grid_golden_scenarios.h"

namespace lgs {
namespace {

// ---------------------------------------------------------------------------
// Golden scenarios, sharded
// ---------------------------------------------------------------------------

std::vector<int> golden_thread_counts() {
  std::vector<int> counts = {1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0) counts.push_back(hw);
  return counts;
}

TEST(ShardSim, GoldenDigestsMatchPinnedSerialValues) {
  if (!rng_matches_reference_library())
    GTEST_SKIP() << "non-reference standard library: golden digests do not "
                    "apply (they pin libstdc++ distribution draws)";
  const std::vector<GoldenScenario> scenarios = golden_scenarios();
  const std::vector<GoldenDigest> expected = golden_digests();
  ASSERT_EQ(scenarios.size(), expected.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (const int threads : golden_thread_counts()) {
      SCOPED_TRACE(scenarios[i].name + " @ " + std::to_string(threads) +
                   " threads");
      EXPECT_EQ(run_golden_scenario_sharded(scenarios[i], threads),
                expected[i].digest)
          << "sharded replay diverged from the pinned serial digest";
    }
  }
}

// The library-agnostic half of the differential: even where the pinned
// values do not apply (foreign stdlib draws different workloads), the
// sharded engine must still agree with the serial one bit for bit.
TEST(ShardSim, ShardedEqualsSerialOnAnyLibrary) {
  for (const GoldenScenario& sc : golden_scenarios()) {
    const std::uint64_t serial = run_golden_scenario(sc);
    for (const int threads : golden_thread_counts()) {
      SCOPED_TRACE(sc.name + " @ " + std::to_string(threads) + " threads");
      EXPECT_EQ(run_golden_scenario_sharded(sc, threads), serial);
    }
  }
}

// The central server's grant FIFO follows the serial interleaving of
// dispatches across clusters, so bags replay on the one-shard path at
// any requested thread count — and still reproduce the pinned digests.
TEST(ShardSim, CentralServerRunsSerially) {
  const std::vector<GoldenScenario> scenarios = golden_scenarios();
  const std::vector<GoldenDigest> expected = golden_digests();
  const bool pinned = rng_matches_reference_library();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const GoldenScenario& sc = scenarios[i];
    if (golden_options(sc).bags.empty()) continue;
    const std::uint64_t want =
        pinned ? expected[i].digest : run_golden_scenario(sc);
    for (const int threads : golden_thread_counts()) {
      if (threads < 2) continue;
      SCOPED_TRACE(sc.name + " @ " + std::to_string(threads) + " threads");
      ShardGridSim sim(make_skewed_grid(4, 24, 2.0), golden_options(sc),
                       threads);
      EXPECT_EQ(sim.shard_count(), 1);
      sim.submit_workloads(split_by_community(golden_workload(), 4));
      const GridSimResult res = sim.run();
      EXPECT_EQ(digest_grid_result(sim, res), want);
    }
  }
}

// One shard is GridSim's replay event for event: the same arrival-pump
// firings, so the same executed-event count, with bags and with
// threads=1 alike — and the same allocations on the same arena.
TEST(ShardSim, OneShardExecutesGridSimEvents) {
  for (const GoldenScenario& sc : golden_scenarios()) {
    Arena serial_arena;
    GridSim serial(make_skewed_grid(4, 24, 2.0), golden_options(sc),
                   &serial_arena);
    serial.submit_workloads(split_by_community(golden_workload(), 4));
    (void)serial.run();
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(sc.name + " @ " + std::to_string(threads) + " threads");
      Arena arena;
      ShardGridSim sharded(make_skewed_grid(4, 24, 2.0), golden_options(sc),
                           threads, &arena);
      if (threads > 1 && sharded.shard_count() > 1) continue;
      sharded.submit_workloads(split_by_community(golden_workload(), 4));
      (void)sharded.run();
      EXPECT_EQ(sharded.events_executed(), serial.simulator().executed());
      EXPECT_EQ(sharded.arena_peak_bytes(), serial_arena.stats().bytes_peak);
    }
  }
}

// Explicit central-server matrix: every kill policy must reproduce the
// serial digest on both bag scenarios, which clamp to one shard.
TEST(ShardSim, CentralServerKillPolicyMatrixMatchesSerial) {
  static const OnlineCluster::KillPolicy kKills[] = {
      OnlineCluster::KillPolicy::kYoungestFirst,
      OnlineCluster::KillPolicy::kOldestFirst,
      OnlineCluster::KillPolicy::kLongestRemaining};
  for (const GoldenScenario& sc : golden_scenarios()) {
    GridSimOptions base = golden_options(sc);
    if (base.bags.empty()) continue;
    for (const OnlineCluster::KillPolicy kill : kKills) {
      GridSimOptions opts = base;
      opts.cluster.kill_policy = kill;
      GridSim serial(make_skewed_grid(4, 24, 2.0), opts);
      serial.submit_workloads(split_by_community(golden_workload(), 4));
      const GridSimResult serial_res = serial.run();
      const std::uint64_t want = digest_grid_result(serial, serial_res);
      for (const int threads : golden_thread_counts()) {
        if (threads < 2) continue;
        SCOPED_TRACE(sc.name + " kill=" + std::to_string(static_cast<int>(kill)) +
                     " @ " + std::to_string(threads) + " threads");
        ShardGridSim sharded(make_skewed_grid(4, 24, 2.0), opts, threads);
        sharded.submit_workloads(split_by_community(golden_workload(), 4));
        const GridSimResult res = sharded.run();
        EXPECT_EQ(sharded.shard_count(), 1);
        EXPECT_EQ(digest_grid_result(sharded, res), want);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Placement: LPT partition, deterministic and outcome-neutral
// ---------------------------------------------------------------------------

TEST(ShardPlacementTest, LptTieBreaksByClusterThenShardIndex) {
  // skew 1.0: every cluster costs the same, so the LPT order is the
  // cluster index order and ties on shard load resolve to the lowest
  // shard index — the assignment alternates deterministically.
  GridSimOptions opts;
  ShardGridSim sim(make_skewed_grid(5, 8, 1.0), opts, /*threads=*/2);
  EXPECT_EQ(sim.shard_of(0), 0);
  EXPECT_EQ(sim.shard_of(1), 1);
  EXPECT_EQ(sim.shard_of(2), 0);
  EXPECT_EQ(sim.shard_of(3), 1);
  EXPECT_EQ(sim.shard_of(4), 0);
}

TEST(ShardPlacementTest, LptBalancesSkewedLadderBetterThanRoundRobin) {
  const LightGrid grid = make_skewed_grid(8, 64, 4.0);
  GridSimOptions opts;
  const std::size_t kShards = 2;
  // With no submissions the cost model is the cluster width alone.
  ShardGridSim sim(grid, opts, static_cast<int>(kShards));
  std::vector<double> lpt_load(kShards, 0.0), rr_load(kShards, 0.0);
  for (std::size_t i = 0; i < grid.clusters.size(); ++i) {
    lpt_load[static_cast<std::size_t>(sim.shard_of(i))] +=
        grid.clusters[i].processors();
    rr_load[i % kShards] += grid.clusters[i].processors();
  }
  double total = 0.0, largest = 0.0;
  for (const Cluster& c : grid.clusters) {
    total += c.processors();
    largest = std::max(largest, static_cast<double>(c.processors()));
  }
  const double lpt = *std::max_element(lpt_load.begin(), lpt_load.end());
  const double rr = *std::max_element(rr_load.begin(), rr_load.end());
  // The geometric ladder is exactly the shape a round-robin `i % shards`
  // layout mishandles.
  EXPECT_LT(lpt, rr);
  // Graham's LPT bound: max load <= (4/3 - 1/3m) * OPT, with
  // OPT >= max(average, largest item).
  const double opt_lb = std::max(total / kShards, largest);
  EXPECT_LE(lpt, (4.0 / 3.0 - 1.0 / (3.0 * kShards)) * opt_lb + 1e-9);
}

// The determinism contract keys every per-cluster stream by cluster
// index, so WHERE a cluster runs can never change WHAT it computes.
// Each thread count yields a different LPT partition of the four
// clusters; every partition must produce the serial digest.
TEST(ShardPlacementTest, PlacementChoiceNeverChangesReplayDigests) {
  for (const GoldenScenario& sc : golden_scenarios()) {
    const std::uint64_t serial = run_golden_scenario(sc);
    std::vector<std::vector<int>> partitions;
    for (const int threads : {2, 3, 4}) {
      SCOPED_TRACE(sc.name + " @ " + std::to_string(threads) + " threads");
      ShardGridSim sim(make_skewed_grid(4, 24, 2.0), golden_options(sc),
                       threads);
      sim.submit_workloads(split_by_community(golden_workload(), 4));
      const GridSimResult res = sim.run();
      EXPECT_EQ(digest_grid_result(sim, res), serial);
      std::vector<int> owner;
      for (std::size_t c = 0; c < sim.cluster_count(); ++c)
        owner.push_back(sim.shard_of(c));
      partitions.push_back(owner);
    }
    // Static routings without bags really ran three distinct partitions
    // (the others run on one shard, where every cluster sits on shard 0).
    if ((sc.routing == GridRouting::kIsolated ||
         sc.routing == GridRouting::kGlobalPlan) &&
        golden_options(sc).bags.empty()) {
      EXPECT_NE(partitions[0], partitions[1]);
      EXPECT_NE(partitions[1], partitions[2]);
      EXPECT_NE(partitions[0], partitions[2]);
    }
  }
}

TEST(ShardSim, ThreadCountClampsToClusterCount) {
  GridSimOptions opts;
  ShardGridSim sim(make_skewed_grid(3, 8, 1.0), opts, /*threads=*/16);
  EXPECT_EQ(sim.shard_count(), 3);
}

// Exchange bids read every cluster at every arrival, so threshold and
// economic routing replay on the serial one-shard path at any requested
// thread count — and still reproduce the pinned digests.
TEST(ShardSim, DynamicRoutingRunsSerially) {
  const std::vector<GoldenScenario> scenarios = golden_scenarios();
  const std::vector<GoldenDigest> expected = golden_digests();
  const bool pinned = rng_matches_reference_library();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const GoldenScenario& sc = scenarios[i];
    if (sc.routing != GridRouting::kThreshold &&
        sc.routing != GridRouting::kEconomic)
      continue;
    const std::uint64_t want =
        pinned ? expected[i].digest : run_golden_scenario(sc);
    for (const int threads : golden_thread_counts()) {
      if (threads < 2) continue;
      SCOPED_TRACE(sc.name + " @ " + std::to_string(threads) + " threads");
      ShardGridSim sim(make_skewed_grid(4, 24, 2.0), golden_options(sc),
                       threads);
      EXPECT_EQ(sim.shard_count(), 1);
      sim.submit_workloads(split_by_community(golden_workload(), 4));
      const GridSimResult res = sim.run();
      EXPECT_EQ(digest_grid_result(sim, res), want);
    }
  }
}

// A job wider than every cluster makes the routing rule throw: up front
// on ≥2 shards, inside the pump on one shard (bags clamp to one).  Both
// must surface the same std::invalid_argument as the serial engine —
// never std::terminate.
TEST(ShardSim, TooWideJobThrowsInvalidArgumentAtEveryThreadCount) {
  const LightGrid grid = make_skewed_grid(4, 8, 1.0);  // 8 procs each
  JobSet jobs;
  for (int c = 0; c < 4; ++c) {
    Rng rng(mix_seed(31, static_cast<std::uint64_t>(c)));
    append_workload(jobs, make_community_workload(
                              static_cast<Community>(c), 10, rng,
                              static_cast<JobId>(c) * 100, 0.05, 5.0));
  }
  // Released long after the campaign below has completed.
  Job wide = Job::rigid(9999, /*procs=*/64, /*duration=*/1.0,
                        /*release=*/1000.0);
  jobs.push_back(wide);

  GridSimOptions bag_free;
  GridSimOptions with_bag;
  with_bag.bags = {{"tiny-bag", 4, 0.2, 1, 1.0}};
  for (const GridSimOptions& opts : {bag_free, with_bag}) {
    SCOPED_TRACE(opts.bags.empty() ? "static" : "bags");
    GridSim serial(grid, opts);
    serial.submit_workloads(split_by_community(jobs, 4));
    EXPECT_THROW(serial.run(), std::invalid_argument);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ShardGridSim sharded(grid, opts, threads);
      sharded.submit_workloads(split_by_community(jobs, 4));
      EXPECT_EQ(sharded.shard_count(), opts.bags.empty() ? threads : 1);
      EXPECT_THROW(sharded.run(), std::invalid_argument);
    }
  }
}

// Up-front routing covers only the arrivals the horizon admits: a job
// wider than every cluster released after a finite horizon never
// routes, so it throws at no thread count — as in the serial engine.
TEST(ShardSim, TooWideJobPastTheHorizonNeverRoutes) {
  const LightGrid grid = make_skewed_grid(4, 8, 1.0);  // 8 procs each
  JobSet jobs;
  for (int c = 0; c < 4; ++c) {
    Rng rng(mix_seed(31, static_cast<std::uint64_t>(c)));
    append_workload(jobs, make_community_workload(
                              static_cast<Community>(c), 10, rng,
                              static_cast<JobId>(c) * 100, 0.05, 5.0));
  }
  jobs.push_back(Job::rigid(9999, /*procs=*/64, /*duration=*/1.0,
                            /*release=*/1000.0));
  const Time horizon = 500.0;
  GridSim serial(grid, GridSimOptions{});
  serial.submit_workloads(split_by_community(jobs, 4));
  const GridSimResult want = serial.run(horizon);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ShardGridSim sharded(grid, GridSimOptions{}, threads);
    sharded.submit_workloads(split_by_community(jobs, 4));
    EXPECT_EQ(sharded.shard_count(), threads);
    GridSimResult res;
    EXPECT_NO_THROW(res = sharded.run(horizon));
    EXPECT_EQ(res.horizon, horizon);
    EXPECT_EQ(digest_grid_result(sharded, res),
              digest_grid_result(serial, want));
  }
}

// ---------------------------------------------------------------------------
// Randomized small-grid fuzz: field-by-field drain-state comparison
// ---------------------------------------------------------------------------

void expect_identical_outcome(const GridSim& serial_sim,
                              const GridSimResult& serial,
                              const ShardGridSim& sharded_sim,
                              const GridSimResult& sharded) {
  ASSERT_EQ(serial_sim.cluster_count(), sharded_sim.cluster_count());
  for (std::size_t c = 0; c < serial_sim.cluster_count(); ++c) {
    SCOPED_TRACE("cluster " + std::to_string(c));
    const OnlineCluster& a = serial_sim.cluster(c);
    const OnlineCluster& b = sharded_sim.cluster(c);
    ASSERT_EQ(a.local_records().size(), b.local_records().size());
    for (std::size_t r = 0; r < a.local_records().size(); ++r) {
      const LocalJobRecord& ra = a.local_records()[r];
      const LocalJobRecord& rb = b.local_records()[r];
      SCOPED_TRACE("record " + std::to_string(r));
      EXPECT_EQ(ra.id, rb.id);
      EXPECT_EQ(ra.community, rb.community);
      EXPECT_EQ(ra.submit, rb.submit);  // bitwise: no tolerance anywhere
      EXPECT_EQ(ra.start, rb.start);
      EXPECT_EQ(ra.finish, rb.finish);
      EXPECT_EQ(ra.procs, rb.procs);
      EXPECT_EQ(ra.best_duration, rb.best_duration);
    }
    const BestEffortStats& ba = a.besteffort_stats();
    const BestEffortStats& bb = b.besteffort_stats();
    EXPECT_EQ(ba.started, bb.started);
    EXPECT_EQ(ba.completed, bb.completed);
    EXPECT_EQ(ba.killed, bb.killed);
    EXPECT_EQ(ba.wasted_time, bb.wasted_time);
    EXPECT_EQ(ba.completed_time, bb.completed_time);
    const VolatilityStats& va = a.volatility_stats();
    const VolatilityStats& vb = b.volatility_stats();
    EXPECT_EQ(va.capacity_changes, vb.capacity_changes);
    EXPECT_EQ(va.local_preemptions, vb.local_preemptions);
    EXPECT_EQ(va.local_wasted, vb.local_wasted);
  }
  EXPECT_EQ(serial.horizon, sharded.horizon);
  EXPECT_EQ(serial.jobs_completed, sharded.jobs_completed);
  EXPECT_EQ(serial.migrations, sharded.migrations);
  EXPECT_EQ(serial.mean_flow, sharded.mean_flow);
  EXPECT_EQ(serial.mean_wait, sharded.mean_wait);
  EXPECT_EQ(serial.mean_slowdown, sharded.mean_slowdown);
  EXPECT_EQ(serial.grid_runs_total, sharded.grid_runs_total);
  EXPECT_EQ(serial.grid_runs_completed, sharded.grid_runs_completed);
  EXPECT_EQ(serial.grid_resubmissions, sharded.grid_resubmissions);
  ASSERT_EQ(serial.communities.size(), sharded.communities.size());
  for (std::size_t i = 0; i < serial.communities.size(); ++i) {
    EXPECT_EQ(serial.communities[i].community,
              sharded.communities[i].community);
    EXPECT_EQ(serial.communities[i].jobs, sharded.communities[i].jobs);
    EXPECT_EQ(serial.communities[i].mean_wait,
              sharded.communities[i].mean_wait);
  }
}

struct FuzzCase {
  LightGrid grid;
  GridSimOptions opts;
  JobSet workload;
  std::size_t clusters;
  int threads;
};

FuzzCase make_fuzz_case(std::uint64_t round) {
  Rng rng(mix_seed(0x5ca1ab1eull, round));
  FuzzCase fc;
  fc.clusters = 2 + rng.uniform_int(0, 3);  // 2..5
  fc.grid = make_skewed_grid(static_cast<int>(fc.clusters),
                             4 + static_cast<int>(rng.uniform_int(0, 8)),
                             1.0 + rng.uniform(0.0, 1.5));
  static const GridRouting kRoutings[] = {
      GridRouting::kIsolated, GridRouting::kThreshold, GridRouting::kEconomic,
      GridRouting::kGlobalPlan};
  fc.opts.routing = kRoutings[rng.uniform_int(0, 3)];
  fc.opts.cluster.policy =
      rng.uniform_int(0, 1) == 0 ? "fcfs-list" : "easy-backfill";
  static const OnlineCluster::KillPolicy kKills[] = {
      OnlineCluster::KillPolicy::kYoungestFirst,
      OnlineCluster::KillPolicy::kOldestFirst,
      OnlineCluster::KillPolicy::kLongestRemaining};
  fc.opts.cluster.kill_policy = kKills[rng.uniform_int(0, 2)];
  fc.opts.wait_threshold = rng.uniform(1.0, 8.0);
  fc.opts.migration_penalty = rng.uniform(0.0, 2.0);
  if (rng.uniform_int(0, 3) == 0)  // every 4th round: best-effort layer
    fc.opts.bags = {{"fuzz-bag", 10 + static_cast<int>(rng.uniform_int(0, 30)),
                     rng.uniform(0.2, 1.0), 1, rng.uniform(0.3, 1.5)}};
  if (rng.uniform_int(0, 2) != 0) {  // 2 of 3 rounds: volatility churn
    fc.opts.volatility.events = 1 + static_cast<int>(rng.uniform_int(0, 4));
    fc.opts.volatility.window = rng.uniform(5.0, 25.0);
    fc.opts.volatility.floor_fraction = rng.uniform(0.3, 0.8);
    fc.opts.volatility_seed = mix_seed(round, 17);
  }
  const int per_community = 6 + static_cast<int>(rng.uniform_int(0, 10));
  for (std::size_t c = 0; c < fc.clusters; ++c) {
    Rng wrng(mix_seed(round * 1000 + 1, c));
    append_workload(fc.workload,
                    make_community_workload(
                        static_cast<Community>(c % 4), per_community, wrng,
                        /*first_id=*/static_cast<JobId>(c * 1000),
                        /*time_scale=*/0.05,
                        /*arrival_window=*/rng.uniform(5.0, 20.0)));
  }
  // 2..4 workers: each count partitions the clusters differently, so
  // the fuzz also covers "placement is outcome-neutral".
  fc.threads = 2 + static_cast<int>(round % 3);
  return fc;
}

TEST(ShardSim, RandomizedSmallGridFuzzMatchesSerialFieldByField) {
  constexpr std::uint64_t kRounds = 200;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FuzzCase fc = make_fuzz_case(round);

    GridSim serial(fc.grid, fc.opts);
    serial.submit_workloads(split_by_community(fc.workload, fc.clusters));
    const GridSimResult serial_res = serial.run();

    ShardGridSim sharded(fc.grid, fc.opts, fc.threads);
    sharded.submit_workloads(split_by_community(fc.workload, fc.clusters));
    const GridSimResult sharded_res = sharded.run();

    expect_identical_outcome(serial, serial_res, sharded, sharded_res);
    EXPECT_TRUE(validate_grid_result(sharded, sharded_res).empty());
    if (::testing::Test::HasFailure()) break;  // one full dump is enough
  }
}

// Finite horizons cut both engines at the same instant: arrivals beyond
// the horizon never route, shard clocks all end exactly at the horizon,
// and the partially-run record state still agrees bitwise.
TEST(ShardSim, FiniteHorizonCutMatchesSerial) {
  for (const GoldenScenario& sc : golden_scenarios()) {
    SCOPED_TRACE(sc.name);
    const Time horizon = 15.0;  // mid-run: inside the arrival window

    GridSim serial(make_skewed_grid(4, 24, 2.0), golden_options(sc));
    serial.submit_workloads(split_by_community(golden_workload(), 4));
    const GridSimResult serial_res = serial.run(horizon);

    ShardGridSim sharded(make_skewed_grid(4, 24, 2.0), golden_options(sc),
                         /*threads=*/3);
    sharded.submit_workloads(split_by_community(golden_workload(), 4));
    const GridSimResult sharded_res = sharded.run(horizon);

    EXPECT_EQ(serial_res.horizon, sharded_res.horizon);
    EXPECT_EQ(digest_grid_result(serial, serial_res),
              digest_grid_result(sharded, sharded_res));
  }
}

// The submit_store path of the sharded engine must agree with its
// submit_workloads path (and hence with serial) — same grouping, same
// release-date tie-breaks.
TEST(ShardSim, StorePathMatchesWorkloadPath) {
  const GoldenScenario sc = golden_scenarios()[2];  // economic + volatility
  const std::uint64_t via_workloads = run_golden_scenario_sharded(sc, 3);
  Arena arena;
  const JobStore store = to_job_store(golden_workload(), ArenaRef(arena));
  ShardGridSim sim(make_skewed_grid(4, 24, 2.0), golden_options(sc),
                   /*threads=*/3, &arena);
  sim.submit_store(store);
  const GridSimResult res = sim.run();
  EXPECT_EQ(digest_grid_result(sim, res), via_workloads);
}

}  // namespace
}  // namespace lgs
