// Tests for the multi-cluster grid engine (sim/grid_sim.h): routing,
// best-effort non-disturbance, kill/resubmission bookkeeping, volatility
// determinism, and the grid-level validator.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/rng.h"
#include "sim/grid_sim.h"
#include "sim/shard_sim.h"
#include "workload/generators.h"

namespace lgs {
namespace {

LightGrid two_cluster_grid(int a = 4, int b = 4) {
  LightGrid g;
  g.name = "mini";
  g.clusters = {
      {0, "alpha", a, 1, 1.0, Interconnect::kGigabitEthernet, "Linux", 0},
      {1, "beta", b, 1, 1.0, Interconnect::kFastEthernet, "Linux", 1},
  };
  return g;
}

std::vector<JobSet> lopsided_workload() {
  // Cluster 0 drowning, cluster 1 idle.
  std::vector<JobSet> w(2);
  for (int i = 0; i < 24; ++i) {
    Job j = Job::sequential(static_cast<JobId>(i), 10.0, 0.1 * i);
    j.community = 0;
    w[0].push_back(std::move(j));
  }
  return w;
}

TEST(GridSim, IsolatedMatchesStandaloneClusters) {
  // With isolated routing and no grid extras, each cluster must behave
  // exactly like a standalone OnlineCluster fed the same jobs.
  const LightGrid grid = two_cluster_grid();
  std::vector<JobSet> w(2);
  Rng rng(11);
  w[0] = make_community_workload(Community::kComputerScience, 12, rng, 0,
                                 1.0, 10.0);
  w[1] = make_community_workload(Community::kAstrophysics, 8, rng, 100, 0.2,
                                 10.0);

  GridSim gs(grid, GridSimOptions{});
  gs.submit_workloads(w);
  const GridSimResult res = gs.run();

  for (std::size_t c = 0; c < 2; ++c) {
    Simulator solo_sim;
    OnlineCluster solo(solo_sim, grid.clusters[c]);
    for (const Job& j : w[c]) solo.submit_local(j);
    solo_sim.run();
    const auto& a = gs.cluster(c).local_records();
    const auto& b = solo.local_records();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].id, b[k].id);
      EXPECT_EQ(a[k].submit, b[k].submit);
      EXPECT_EQ(a[k].start, b[k].start);
      EXPECT_EQ(a[k].finish, b[k].finish);
    }
  }
  EXPECT_EQ(res.migrations, 0);
  EXPECT_TRUE(validate_grid_result(gs, res).empty());
}

TEST(GridSim, EconomicRoutingDrainsLopsidedLoad) {
  GridSimOptions iso;
  GridSim a(two_cluster_grid(), iso);
  a.submit_workloads(lopsided_workload());
  const GridSimResult ra = a.run();

  GridSimOptions eco;
  eco.routing = GridRouting::kEconomic;
  GridSim b(two_cluster_grid(), eco);
  b.submit_workloads(lopsided_workload());
  const GridSimResult rb = b.run();

  EXPECT_EQ(ra.migrations, 0);
  EXPECT_GT(rb.migrations, 0);
  EXPECT_LT(rb.mean_flow, ra.mean_flow)
      << "exchanging work must help a drowning cluster";
  EXPECT_TRUE(validate_grid_result(b, rb).empty());
}

TEST(GridSim, GlobalPlanRoutesEveryJobSomewhereSensible) {
  GridSimOptions opts;
  opts.routing = GridRouting::kGlobalPlan;
  GridSim gs(two_cluster_grid(), opts);
  gs.submit_workloads(lopsided_workload());
  const GridSimResult res = gs.run();
  EXPECT_EQ(res.jobs_completed, 24);
  EXPECT_GT(res.migrations, 0);  // the plan spreads the drowning cluster
  EXPECT_TRUE(validate_grid_result(gs, res).empty());
}

TEST(GridSim, BestEffortDoesNotDisturbLocalJobs) {
  // The §5.2 defining property on the multi-cluster engine: local
  // records identical with and without the grid campaign.
  const auto run_one = [](bool with_bags) {
    GridSimOptions opts;
    if (with_bags)
      opts.bags.push_back(ParametricBag{"campaign", 500, 0.2, 2, 1.0});
    auto gs = std::make_unique<GridSim>(two_cluster_grid(), opts);
    gs->submit_workloads(lopsided_workload());
    gs->run();
    return gs;
  };
  const auto with_bags = run_one(true);
  const auto without = run_one(false);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& a = with_bags->cluster(c).local_records();
    const auto& b = without->cluster(c).local_records();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].start, b[k].start);
      EXPECT_EQ(a[k].finish, b[k].finish);
    }
  }
}

TEST(GridSim, KillsNotifyServerAndRunsComplete) {
  // Small cluster + staggered local jobs: best-effort runs get killed,
  // resubmitted by the server, and the campaign still finishes whole.
  GridSimOptions opts;
  opts.bags.push_back(ParametricBag{"campaign", 200, 1.0, 2, 1.0});
  GridSim gs(two_cluster_grid(2, 2), opts);
  for (int i = 0; i < 10; ++i)
    gs.submit(0, Job::rigid(static_cast<JobId>(i), 2, 2.0, 3.0 * i));
  const GridSimResult res = gs.run();
  EXPECT_EQ(res.grid_runs_completed, res.grid_runs_total);
  EXPECT_GT(res.grid_resubmissions, 0);
  long kills = 0;
  for (const GridClusterOutcome& c : res.clusters) kills += c.be.killed;
  EXPECT_EQ(kills, res.grid_resubmissions);
  EXPECT_TRUE(validate_grid_result(gs, res).empty());
}

TEST(GridSim, VolatilityIsDeterministicPerSeed) {
  const auto make_one = [] {
    GridSimOptions opts;
    opts.volatility.events = 5;
    opts.volatility.window = 10.0;
    opts.volatility_seed = 99;
    opts.bags.push_back(ParametricBag{"campaign", 300, 0.3, 2, 1.0});
    auto gs = std::make_unique<GridSim>(two_cluster_grid(8, 6), opts);
    gs->submit_workloads(lopsided_workload());
    return gs;
  };
  const auto a = make_one();
  const GridSimResult ra = a->run();
  const auto b = make_one();
  const GridSimResult rb = b->run();
  EXPECT_EQ(ra.horizon, rb.horizon);
  EXPECT_EQ(ra.mean_flow, rb.mean_flow);
  ASSERT_EQ(ra.clusters.size(), rb.clusters.size());
  long changes = 0;
  for (std::size_t c = 0; c < ra.clusters.size(); ++c) {
    EXPECT_EQ(ra.clusters[c].volatility.capacity_changes,
              rb.clusters[c].volatility.capacity_changes);
    changes += ra.clusters[c].volatility.capacity_changes;
  }
  // Overlapping outages merge into level changes, so the exact count is
  // below 2 * events * clusters — but churn must have happened.
  EXPECT_GT(changes, 0);
  EXPECT_TRUE(validate_grid_result(*a, ra).empty());
}

TEST(GridSim, VolatilityStreamsIgnoreShardAssignment) {
  // Each cluster's churn stream is keyed mix_seed(volatility_seed,
  // cluster_index) and drawn from a PRIVATE Rng — never from a shared
  // generator whose consumption order would depend on which shard (or
  // thread count) owns the cluster.  Replaying the same volatility-heavy
  // grid serially and sharded at several worker counts must therefore
  // produce IDENTICAL per-cluster VolatilityStats: the LPT assignment
  // changes with the shard count, the streams must not.  Isolated
  // routing, so every requested worker count really runs that many
  // shards (dynamic routing replays on one).
  const auto make_grid = [] {
    LightGrid g = make_skewed_grid(5, 8, 1.5);
    return g;
  };
  const auto make_jobs = [] {
    std::vector<JobSet> w(5);
    for (int c = 0; c < 5; ++c) {
      Rng rng(mix_seed(404, static_cast<std::uint64_t>(c)));
      w[c] = make_community_workload(static_cast<Community>(c % 4), 15, rng,
                                     static_cast<JobId>(c) * 100, 0.5, 20.0);
    }
    return w;
  };
  GridSimOptions opts;
  opts.routing = GridRouting::kIsolated;
  opts.volatility.events = 8;
  opts.volatility.window = 15.0;
  opts.volatility.floor_fraction = 0.5;
  opts.volatility_seed = 77;

  GridSim serial(make_grid(), opts);
  serial.submit_workloads(make_jobs());
  (void)serial.run();

  for (int threads : {1, 2, 3, 5}) {
    SCOPED_TRACE(threads);
    ShardGridSim sharded(make_grid(), opts, threads);
    EXPECT_EQ(sharded.shard_count(), threads);
    sharded.submit_workloads(make_jobs());
    (void)sharded.run();
    ASSERT_EQ(sharded.cluster_count(), serial.cluster_count());
    for (std::size_t c = 0; c < serial.cluster_count(); ++c) {
      SCOPED_TRACE(c);
      const VolatilityStats& a = serial.cluster(c).volatility_stats();
      const VolatilityStats& b = sharded.cluster(c).volatility_stats();
      EXPECT_EQ(a.capacity_changes, b.capacity_changes);
      EXPECT_EQ(a.local_preemptions, b.local_preemptions);
      EXPECT_EQ(a.local_wasted, b.local_wasted);
    }
  }
}

TEST(GridSim, OverlappingOutagesComposeAsMinimum) {
  // Engineer two overlapping outages via a wide window and long
  // outages: at every instant the capacity must be the minimum over
  // the active outages, so it can never exceed the cluster total nor
  // snap back to full while a deeper outage is still in progress.
  // Checked indirectly: the run stays valid (set_capacity would throw
  // on an out-of-range level) and the simulation drains.
  GridSimOptions opts;
  opts.volatility.events = 6;
  opts.volatility.window = 4.0;  // dense -> overlaps guaranteed
  opts.volatility.outage_min = 2.0;
  opts.volatility.outage_max = 6.0;
  opts.volatility_seed = 3;
  GridSim gs(two_cluster_grid(8, 8), opts);
  gs.submit_workloads(lopsided_workload());
  const GridSimResult res = gs.run();
  EXPECT_EQ(res.jobs_completed, 24);
  EXPECT_TRUE(validate_grid_result(gs, res).empty());
}

TEST(GridSim, WideJobFallsBackToAClusterThatFits) {
  // Home cluster too small: the job must run on the big cluster instead
  // of crashing the engine, under every routing.
  for (GridRouting r : {GridRouting::kIsolated, GridRouting::kEconomic,
                        GridRouting::kGlobalPlan}) {
    GridSimOptions opts;
    opts.routing = r;
    GridSim gs(two_cluster_grid(2, 8), opts);
    gs.submit(0, Job::rigid(0, 6, 1.0));
    const GridSimResult res = gs.run();
    EXPECT_EQ(res.jobs_completed, 1) << to_string(r);
    EXPECT_EQ(res.migrations, 1) << to_string(r);
  }
  // Wider than every cluster: reported, not UB.
  GridSim gs(two_cluster_grid(2, 2), GridSimOptions{});
  gs.submit(0, Job::rigid(0, 16, 1.0));
  EXPECT_THROW(gs.run(), std::invalid_argument);
}

TEST(GridSim, GuardsAgainstMisuse) {
  GridSim gs(two_cluster_grid(), GridSimOptions{});
  EXPECT_THROW(gs.submit(7, Job::sequential(0, 1.0)),
               std::invalid_argument);
  std::vector<JobSet> three(3);
  EXPECT_THROW(gs.submit_workloads(three), std::invalid_argument);
  gs.run();
  EXPECT_THROW(gs.run(), std::logic_error);
  EXPECT_THROW(gs.submit(0, Job::sequential(0, 1.0)), std::logic_error);
  EXPECT_THROW((GridSim{LightGrid{}, GridSimOptions{}}),
               std::invalid_argument);
}

TEST(GridSim, SplitByCommunityKeepsEveryJobOnce) {
  JobSet jobs;
  for (int i = 0; i < 20; ++i) {
    Job j = Job::sequential(static_cast<JobId>(i), 1.0);
    j.community = i % 5;
    jobs.push_back(std::move(j));
  }
  const auto split = split_by_community(jobs, 3);
  ASSERT_EQ(split.size(), 3u);
  std::size_t total = 0;
  for (std::size_t h = 0; h < split.size(); ++h) {
    for (const Job& j : split[h])
      EXPECT_EQ(static_cast<std::size_t>(j.community) % 3, h);
    total += split[h].size();
  }
  EXPECT_EQ(total, jobs.size());
  EXPECT_THROW(split_by_community(jobs, 0), std::invalid_argument);
}

TEST(GridSim, SkewedGridShapes) {
  const LightGrid flat = make_skewed_grid(3, 32, 1.0);
  for (const Cluster& c : flat.clusters) {
    EXPECT_EQ(c.processors(), 32);
    EXPECT_DOUBLE_EQ(c.speed, 1.0);
  }
  const LightGrid skewed = make_skewed_grid(3, 32, 4.0);
  EXPECT_EQ(skewed.clusters[0].processors(), 32);
  EXPECT_EQ(skewed.clusters[2].processors(), 8);  // 32 / skew
  EXPECT_GT(skewed.clusters[2].speed, skewed.clusters[0].speed);
  for (std::size_t i = 1; i < skewed.clusters.size(); ++i)
    EXPECT_LE(skewed.clusters[i].processors(),
              skewed.clusters[i - 1].processors());
  // Single cluster: skew is irrelevant, size exact.
  EXPECT_EQ(make_skewed_grid(1, 16, 8.0).clusters[0].processors(), 16);
  EXPECT_THROW(make_skewed_grid(0, 32, 1.0), std::invalid_argument);
  EXPECT_THROW(make_skewed_grid(2, 32, 0.5), std::invalid_argument);
}

TEST(GridSim, RoutingNames) {
  EXPECT_STREQ(to_string(GridRouting::kIsolated), "isolated");
  EXPECT_STREQ(to_string(GridRouting::kThreshold), "threshold");
  EXPECT_STREQ(to_string(GridRouting::kEconomic), "economic");
  EXPECT_STREQ(to_string(GridRouting::kGlobalPlan), "global-plan");
  EXPECT_EQ(to_exchange_policy(GridRouting::kEconomic),
            ExchangePolicy::kEconomic);
  EXPECT_THROW(to_exchange_policy(GridRouting::kGlobalPlan),
               std::invalid_argument);
}

TEST(GridSim, ValidatorFlagsUnfinishedSimulations) {
  // Stop the clock before anything can run: the validator must complain
  // about queued work and the incomplete campaign.
  GridSimOptions opts;
  opts.bags.push_back(ParametricBag{"campaign", 50, 5.0, 2, 1.0});
  GridSim gs(two_cluster_grid(), opts);
  gs.submit(0, Job::sequential(0, 100.0, 1.0));
  const GridSimResult res = gs.run(/*horizon=*/2.0);
  EXPECT_FALSE(validate_grid_result(gs, res).empty());
}

}  // namespace
}  // namespace lgs
