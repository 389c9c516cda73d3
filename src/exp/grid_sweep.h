// Grid axes for the parallel experiment engine: cluster count ×
// heterogeneity skew × routing policy × replicate seed.
//
// Each cell builds a skewed grid (sim/grid_sim `make_skewed_grid`),
// generates one community workload per cluster from order-free
// cell-index-keyed seeds (core/rng.h `mix_seed`), runs a full
// multi-cluster GridSim (best-effort campaign + optional volatility),
// validates the outcome, and scores it.  Exactly like the policy sweep
// in exp/sweep.h, a cell is a pure function of (spec, cell) and results
// land in pre-assigned slots of a grid-ordered vector — so a grid sweep
// is **bit-identical at any thread count** (tests/test_grid_sweep.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/grid_sim.h"

namespace lgs {

/// The cluster-count × skew × routing × queue-policy × seed grid.
struct GridSweepSpec {
  std::vector<int> cluster_counts = {2, 4};
  std::vector<double> skews = {1.0, 2.0};
  std::vector<GridRouting> routings = {GridRouting::kIsolated,
                                       GridRouting::kThreshold,
                                       GridRouting::kEconomic,
                                       GridRouting::kGlobalPlan};
  /// Per-cluster queue policies, by registry name (policy/registry.h):
  /// any registered policy — classical submission systems or batch
  /// policies through the §4.2 adapter — becomes a sweep axis.  Empty
  /// (the default) = a single-point axis of `cluster.policy`, so setting
  /// only the base submission system never gets silently overridden.
  std::vector<std::string> policies;
  /// Replicate seeds.  Empty = derive `replicates` seeds from
  /// `base_seed` via mix_seed(base_seed, replicate_index).
  std::vector<std::uint64_t> seeds;
  std::uint64_t base_seed = 2004;
  int replicates = 1;

  /// Largest cluster's processors (the skew ladder shrinks from here).
  int base_procs = 32;
  /// Local jobs per cluster; cluster i draws the §5.2 community i % 4.
  int jobs_per_cluster = 30;
  Time arrival_window = 40.0;
  /// make_community_workload time scale (hours -> simulated units).
  double time_scale = 0.05;

  /// Best-effort campaign pushed by the central server (0 runs = none).
  int besteffort_runs = 1500;
  Time besteffort_run_time = 0.1;

  /// Capacity churn per cluster (events = 0 -> stable nodes).
  VolatilityProfile volatility;

  /// Per-cluster submission system defaults: kill policy, and the queue
  /// policy used when the `policies` axis above is left empty.
  OnlineCluster::Options cluster;
  /// kThreshold routing parameters.
  double wait_threshold = 2.0;
  double migration_penalty = 0.1;

  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int threads = 0;

  /// Inner per-replay worker threads: each cell runs its grid through
  /// the sharded engine (sim/shard_sim.h) with this many shard workers,
  /// placed by the engine's LPT partition.  1 (the default) is one
  /// shard, i.e. GridSim's replay; 0 = hardware concurrency.  Threshold,
  /// economic and best-effort cells always replay on one shard (the
  /// engine clamps them).  Bit-identical at every value by the
  /// sharding determinism contract — a sweep axis for scaling studies,
  /// never for results.
  int grid_threads = 1;

  /// The replicate seeds actually used (explicit list or derived).
  std::vector<std::uint64_t> replicate_seeds() const;
  /// The queue-policy axis actually swept (explicit list, or the
  /// single-point `cluster.policy` when `policies` is empty).
  std::vector<std::string> effective_policies() const;
  std::size_t cell_count() const;
};

/// One grid point, identified by its coordinates.
struct GridCell {
  std::size_t index = 0;  ///< linear index in grid order
  int clusters = 0;
  double skew = 1.0;
  GridRouting routing{};
  std::string policy;  ///< queue-policy registry name
  std::uint64_t seed = 0;
};

/// Outcome of one cell: the grid-level §5.2 signals plus wall-clock cost
/// and any validate_grid_result violations (empty when clean).
struct GridCellResult {
  GridCell cell;
  Time horizon = 0.0;
  long jobs = 0;
  long migrations = 0;
  double mean_flow = 0.0;
  double mean_wait = 0.0;
  double mean_slowdown = 0.0;
  double global_utilization = 0.0;
  long grid_runs_completed = 0;
  long grid_resubmissions = 0;
  long be_kills = 0;
  long local_preemptions = 0;
  double wall_ms = 0.0;
  /// High-water of the cell's private replay arena (observability; the
  /// deterministic counterpart of bench_scale's process-wide RSS).
  std::size_t arena_peak_bytes = 0;
  std::vector<std::string> violations;
};

struct GridSweepResult {
  /// One entry per cell, in grid order (seed-major, then cluster count,
  /// skew, routing, policy) — independent of thread interleaving.
  std::vector<GridCellResult> cells;
  double wall_ms = 0.0;
  int threads_used = 1;
  std::size_t violation_count = 0;
};

/// Expand the grid into cells, in the deterministic grid order the
/// result vector uses.
std::vector<GridCell> expand_grid_cells(const GridSweepSpec& spec);

/// The per-cluster workloads of one cell: cluster i draws community
/// i % 4 from Rng(mix_seed(cell_seed, i)) — pure in (spec, cell).
std::vector<JobSet> make_grid_workloads(const GridSweepSpec& spec,
                                        const GridCell& cell);

/// Evaluate one cell: build the grid, run the simulation, validate,
/// score.  Pure in (spec, cell).
GridCellResult evaluate_grid_cell(const GridSweepSpec& spec,
                                  const GridCell& cell);

/// Run the whole grid on the thread pool (exp/sweep's
/// parallel_for_index).
GridSweepResult run_grid_sweep(const GridSweepSpec& spec);

namespace prof {
struct Snapshot;  // core/profiler.h
}

/// JSON report (schema in README, "Multi-cluster grid simulation";
/// doubles round-trip exactly, so — after stripping the wall-clock
/// `wall_ms`/`threads` lines, the only nondeterministic fields — reports
/// can serve as golden files for the determinism tests).
///
/// `profile` (optional) appends the embedded profiler's zone tree and
/// counters under a "profile" key.  The default (nullptr) emits the
/// legacy report byte-for-byte — profiler walls are nondeterministic,
/// so the determinism golden tests must never see them.
std::string grid_report_json(const GridSweepSpec& spec,
                             const GridSweepResult& result,
                             const prof::Snapshot* profile = nullptr);

/// Render and write to `path` (throws std::runtime_error on I/O failure).
void write_grid_report(const std::string& path, const GridSweepSpec& spec,
                       const GridSweepResult& result,
                       const prof::Snapshot* profile = nullptr);

}  // namespace lgs
