// Tests for the grid axes of the experiment engine (exp/grid_sweep.h):
// the acceptance gate is bit-identical results across 1/2/N sweep
// threads, plus pure cells, full grid expansion, and a clean validator
// on every cell.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "exp/grid_sweep.h"

namespace lgs {
namespace {

/// A small but non-trivial sweep: heterogeneous grids, all routings,
/// best-effort campaign and volatility both on.
GridSweepSpec small_spec() {
  GridSweepSpec spec;
  spec.cluster_counts = {2, 3};
  spec.skews = {1.0, 2.0};
  spec.seeds = {5, 21};
  spec.jobs_per_cluster = 12;
  spec.besteffort_runs = 200;
  spec.volatility.events = 2;
  spec.volatility.window = 20.0;
  return spec;
}

void expect_cells_identical(const GridCellResult& a, const GridCellResult& b) {
  // Exact (bitwise) equality: the engine promises determinism, not
  // approximate agreement — EXPECT_EQ on doubles is deliberate.
  EXPECT_EQ(a.cell.index, b.cell.index);
  EXPECT_EQ(a.cell.clusters, b.cell.clusters);
  EXPECT_EQ(a.cell.skew, b.cell.skew);
  EXPECT_EQ(a.cell.routing, b.cell.routing);
  EXPECT_EQ(a.cell.policy, b.cell.policy);
  EXPECT_EQ(a.cell.seed, b.cell.seed);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.mean_flow, b.mean_flow);
  EXPECT_EQ(a.mean_wait, b.mean_wait);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(a.global_utilization, b.global_utilization);
  EXPECT_EQ(a.grid_runs_completed, b.grid_runs_completed);
  EXPECT_EQ(a.grid_resubmissions, b.grid_resubmissions);
  EXPECT_EQ(a.be_kills, b.be_kills);
  EXPECT_EQ(a.local_preemptions, b.local_preemptions);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(GridSweep, BitIdenticalAcrossOneTwoAndNThreads) {
  GridSweepSpec spec = small_spec();
  std::vector<GridSweepResult> runs;
  for (int threads : {1, 2, 0}) {  // 0 = hardware_concurrency
    spec.threads = threads;
    runs.push_back(run_grid_sweep(spec));
  }
  ASSERT_EQ(runs[0].cells.size(), spec.cell_count());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].cells.size(), runs[0].cells.size());
    for (std::size_t i = 0; i < runs[0].cells.size(); ++i)
      expect_cells_identical(runs[0].cells[i], runs[r].cells[i]);
  }
}

TEST(GridSweep, EvaluateCellIsPure) {
  const GridSweepSpec spec = small_spec();
  const auto cells = expand_grid_cells(spec);
  // The most loaded cell: largest grid, skewed, economic routing.
  const GridCell& cell = cells[cells.size() - 2];
  expect_cells_identical(evaluate_grid_cell(spec, cell),
                         evaluate_grid_cell(spec, cell));
}

TEST(GridSweep, ExpansionCoversEveryCoordinateOnce) {
  const GridSweepSpec spec = small_spec();
  const auto cells = expand_grid_cells(spec);
  ASSERT_EQ(cells.size(), spec.cell_count());
  ASSERT_EQ(cells.size(), 2u * 2u * spec.routings.size() * 2u);
  std::set<std::tuple<int, double, int, std::string, std::uint64_t>> seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    seen.insert({cells[i].clusters, cells[i].skew,
                 static_cast<int>(cells[i].routing), cells[i].policy,
                 cells[i].seed});
  }
  EXPECT_EQ(seen.size(), cells.size()) << "duplicate grid coordinates";
}

TEST(GridSweep, EveryCellValidates) {
  GridSweepSpec spec = small_spec();
  const GridSweepResult result = run_grid_sweep(spec);
  EXPECT_EQ(result.violation_count, 0u);
  for (const GridCellResult& c : result.cells)
    EXPECT_TRUE(c.violations.empty())
        << to_string(c.cell.routing) << " on " << c.cell.clusters
        << " clusters, skew " << c.cell.skew;
}

// The registry unlock: conservative backfilling and a batch policy (via
// the §4.2 adapter) running *online* inside full grid simulations — with
// best-effort campaign and node volatility on — every cell clean under
// validate_grid_result.
TEST(GridSweep, PolicyAxisRunsConservativeAndBatchPoliciesOnline) {
  GridSweepSpec spec = small_spec();
  spec.cluster_counts = {2};
  spec.skews = {2.0};
  spec.seeds = {5};
  spec.routings = {GridRouting::kIsolated, GridRouting::kEconomic};
  spec.policies = {"conservative-bf", "smart-shelves"};
  const GridSweepResult result = run_grid_sweep(spec);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.violation_count, 0u);
  for (const GridCellResult& c : result.cells) {
    EXPECT_TRUE(c.violations.empty())
        << c.cell.policy << " under " << to_string(c.cell.routing) << ": "
        << (c.violations.empty() ? "" : c.violations.front());
    EXPECT_GT(c.jobs, 0) << c.cell.policy;
    EXPECT_GT(c.grid_runs_completed, 0) << c.cell.policy;
  }
}

// An empty policies axis falls back to the base submission system: a
// caller who only sets cluster.policy is never silently overridden.
TEST(GridSweep, EmptyPolicyAxisUsesClusterPolicy) {
  GridSweepSpec spec = small_spec();
  spec.cluster.policy = "easy-backfill";
  ASSERT_TRUE(spec.policies.empty());
  const auto effective = spec.effective_policies();
  ASSERT_EQ(effective.size(), 1u);
  EXPECT_EQ(effective.front(), "easy-backfill");
  for (const GridCell& c : expand_grid_cells(spec))
    EXPECT_EQ(c.policy, "easy-backfill");
}

// Different queue policies must actually produce different grid dynamics
// (the axis is live, not cosmetic).
TEST(GridSweep, PolicyAxisChangesTheOutcome) {
  GridSweepSpec spec = small_spec();
  spec.cluster_counts = {2};
  spec.skews = {1.0};
  spec.seeds = {5};
  spec.routings = {GridRouting::kIsolated};
  spec.policies = {"fcfs-list", "smart-shelves"};
  spec.volatility.events = 0;  // isolate the policy effect
  const GridSweepResult result = run_grid_sweep(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.violation_count, 0u);
  EXPECT_NE(result.cells[0].mean_wait, result.cells[1].mean_wait)
      << "fcfs-list and smart-shelves agreed on every start time";
}

TEST(GridSweep, WorkloadsAreKeyedOnClusterIndex) {
  const GridSweepSpec spec = small_spec();
  GridCell two{0, 2, 1.0, GridRouting::kIsolated, "fcfs-list", 5};
  GridCell three{0, 3, 1.0, GridRouting::kIsolated, "fcfs-list", 5};
  const auto w2 = make_grid_workloads(spec, two);
  const auto w3 = make_grid_workloads(spec, three);
  ASSERT_EQ(w2.size(), 2u);
  ASSERT_EQ(w3.size(), 3u);
  // Adding a cluster must not perturb the other clusters' workloads.
  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(w2[c].size(), w3[c].size());
    for (std::size_t k = 0; k < w2[c].size(); ++k) {
      EXPECT_EQ(w2[c][k].release, w3[c][k].release);
      EXPECT_EQ(w2[c][k].min_procs, w3[c][k].min_procs);
    }
  }
}

TEST(GridSweep, ReplicateSeedsDeriveFromSharedMixer) {
  GridSweepSpec spec;
  spec.base_seed = 42;
  spec.replicates = 3;
  const auto seeds = spec.replicate_seeds();
  ASSERT_EQ(seeds.size(), 3u);
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(seeds[static_cast<std::size_t>(r)],
              mix_seed(42, static_cast<std::uint64_t>(r)));
}

// Timing and thread fields legitimately differ between runs; everything
// else must not — compare reports with wall_ms / threads(/grid_threads)
// lines stripped.
std::string strip_timing_lines(const std::string& doc) {
  std::string out;
  std::size_t start = 0;
  while (start < doc.size()) {
    std::size_t end = doc.find('\n', start);
    if (end == std::string::npos) end = doc.size();
    const std::string line = doc.substr(start, end - start);
    // arena_peak_bytes is allocator-layout metadata: a sharded cell
    // splits its allocations across per-shard arenas, so the peak sum
    // legitimately differs from the serial single-arena figure while
    // every simulation outcome still byte-matches.
    if (line.find("wall_ms") == std::string::npos &&
        line.find("threads") == std::string::npos &&
        line.find("arena_peak_bytes") == std::string::npos)
      out += line + "\n";
    start = end + 1;
  }
  return out;
}

TEST(GridSweep, ReportJsonIsDeterministicAcrossThreadCounts) {
  GridSweepSpec spec = small_spec();
  spec.threads = 1;
  const std::string first = grid_report_json(spec, run_grid_sweep(spec));
  spec.threads = 3;
  const std::string second = grid_report_json(spec, run_grid_sweep(spec));
  EXPECT_EQ(strip_timing_lines(first), strip_timing_lines(second));
}

// The inner grid_threads axis (sim/shard_sim.h): every cell replayed
// through the sharded engine must reproduce the serial cells bit for
// bit at every worker count.  Bags are dropped here so static cells run
// on several shards (dynamic cells replay on one shard); cells with
// the central server are covered below.
TEST(GridSweep, InnerGridThreadsAxisIsBitIdentical) {
  GridSweepSpec spec = small_spec();
  spec.besteffort_runs = 0;
  spec.threads = 2;  // outer cell pool and inner shards compose
  ASSERT_EQ(spec.grid_threads, 1);
  const GridSweepResult serial = run_grid_sweep(spec);
  for (int grid_threads : {2, 3, 0}) {  // 0 = hardware_concurrency
    SCOPED_TRACE(grid_threads);
    spec.grid_threads = grid_threads;
    const GridSweepResult sharded = run_grid_sweep(spec);
    ASSERT_EQ(sharded.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i)
      expect_cells_identical(serial.cells[i], sharded.cells[i]);
  }
}

// With the central best-effort server on (small_spec's default), the
// sharded engine clamps every cell to one shard — and must STILL
// byte-match the serial report once the timing/thread lines are
// stripped.
TEST(GridSweep, GridThreadsReportMatchesSerialReportWithBags) {
  GridSweepSpec spec = small_spec();
  spec.threads = 1;
  const std::string serial = grid_report_json(spec, run_grid_sweep(spec));
  spec.grid_threads = 4;
  const std::string sharded = grid_report_json(spec, run_grid_sweep(spec));
  EXPECT_EQ(strip_timing_lines(serial), strip_timing_lines(sharded));
}

TEST(GridSweep, ReportJsonContainsEveryCell) {
  GridSweepSpec spec = small_spec();
  spec.threads = 2;
  const GridSweepResult result = run_grid_sweep(spec);
  const std::string json = grid_report_json(spec, result);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"violation_count\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"global-plan\""), std::string::npos);
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"mean_flow\"", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, spec.cell_count());
}

}  // namespace
}  // namespace lgs
