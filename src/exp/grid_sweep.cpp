#include "exp/grid_sweep.h"

#include <algorithm>
#include <chrono>

#include "core/profiler.h"
#include "core/report.h"
#include "core/rng.h"
#include "exp/sweep.h"
#include "sim/shard_sim.h"

namespace lgs {

std::vector<std::uint64_t> GridSweepSpec::replicate_seeds() const {
  if (!seeds.empty()) return seeds;
  std::vector<std::uint64_t> derived;
  derived.reserve(static_cast<std::size_t>(std::max(0, replicates)));
  for (int r = 0; r < replicates; ++r)
    derived.push_back(mix_seed(base_seed, static_cast<std::uint64_t>(r)));
  return derived;
}

std::vector<std::string> GridSweepSpec::effective_policies() const {
  if (!policies.empty()) return policies;
  return {cluster.policy};
}

std::size_t GridSweepSpec::cell_count() const {
  return replicate_seeds().size() * cluster_counts.size() * skews.size() *
         routings.size() * effective_policies().size();
}

std::vector<GridCell> expand_grid_cells(const GridSweepSpec& spec) {
  std::vector<GridCell> cells;
  cells.reserve(spec.cell_count());
  std::size_t index = 0;
  for (std::uint64_t seed : spec.replicate_seeds())
    for (int n : spec.cluster_counts)
      for (double skew : spec.skews)
        for (GridRouting routing : spec.routings)
          for (const std::string& policy : spec.effective_policies())
            cells.push_back(GridCell{index++, n, skew, routing, policy, seed});
  return cells;
}

std::vector<JobSet> make_grid_workloads(const GridSweepSpec& spec,
                                        const GridCell& cell) {
  std::vector<JobSet> locals(static_cast<std::size_t>(cell.clusters));
  for (int i = 0; i < cell.clusters; ++i) {
    Rng rng(mix_seed(cell.seed, static_cast<std::uint64_t>(i)));
    locals[static_cast<std::size_t>(i)] = make_community_workload(
        static_cast<Community>(i % 4), spec.jobs_per_cluster, rng,
        static_cast<JobId>(i) * static_cast<JobId>(spec.jobs_per_cluster),
        spec.time_scale, spec.arrival_window);
  }
  return locals;
}

GridCellResult evaluate_grid_cell(const GridSweepSpec& spec,
                                  const GridCell& cell) {
  LGS_PROF_ZONE("grid_sweep.cell");
  const auto t0 = std::chrono::steady_clock::now();
  GridCellResult result;
  result.cell = cell;

  const LightGrid grid =
      make_skewed_grid(cell.clusters, spec.base_procs, cell.skew);

  GridSimOptions opts;
  opts.routing = cell.routing;
  opts.wait_threshold = spec.wait_threshold;
  opts.migration_penalty = spec.migration_penalty;
  opts.cluster = spec.cluster;
  opts.cluster.policy = cell.policy;
  if (spec.besteffort_runs > 0)
    opts.bags.push_back(ParametricBag{"grid-campaign", spec.besteffort_runs,
                                      spec.besteffort_run_time, 2, 1.0});
  opts.volatility = spec.volatility;
  // Decorrelated from the workload streams (which use indices 0..n-1).
  opts.volatility_seed = mix_seed(cell.seed, 0x564f4cull);

  // Per-cell replay arena: every allocation of this cell's replay —
  // kernel queue, job store, cluster bookkeeping — bumps a private
  // arena, so parallel cells never contend on the global allocator.
  Arena arena;
  // Inner-parallel replay: the cell's clusters sharded across
  // grid_threads workers.  Bit-identical to GridSim (the sharding
  // determinism contract), and at one shard it IS GridSim on this
  // arena, so the axis changes wall-clock only — tests/test_grid_sweep.cpp
  // compares the reports.
  ShardGridSim sim(grid, opts, spec.grid_threads, &arena);
  sim.submit_workloads(make_grid_workloads(spec, cell));
  const GridSimResult r = sim.run();
  result.violations = validate_grid_result(sim, r);
  result.arena_peak_bytes = sim.arena_peak_bytes();

  result.horizon = r.horizon;
  result.jobs = r.jobs_completed;
  result.migrations = r.migrations;
  result.mean_flow = r.mean_flow;
  result.mean_wait = r.mean_wait;
  result.mean_slowdown = r.mean_slowdown;
  result.global_utilization = r.global_utilization;
  result.grid_runs_completed = r.grid_runs_completed;
  result.grid_resubmissions = r.grid_resubmissions;
  for (const GridClusterOutcome& c : r.clusters) {
    result.be_kills += c.be.killed;
    result.local_preemptions += c.volatility.local_preemptions;
  }

  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

GridSweepResult run_grid_sweep(const GridSweepSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<GridCell> cells = expand_grid_cells(spec);

  GridSweepResult result;
  result.cells.resize(cells.size());
  result.threads_used = resolved_worker_count(
      std::max<std::size_t>(cells.size(), 1), spec.threads);

  parallel_for_index(cells.size(), spec.threads, [&](std::size_t i) {
    result.cells[i] = evaluate_grid_cell(spec, cells[i]);
  });

  for (const GridCellResult& c : result.cells)
    result.violation_count += c.violations.size();
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

std::string grid_report_json(const GridSweepSpec& spec,
                             const GridSweepResult& result,
                             const prof::Snapshot* profile) {
  JsonWriter w;
  w.begin_object();

  w.key("spec").begin_object();
  w.key("base_procs").value(spec.base_procs);
  w.key("jobs_per_cluster").value(spec.jobs_per_cluster);
  w.key("besteffort_runs").value(spec.besteffort_runs);
  w.key("volatility_events").value(spec.volatility.events);
  w.key("threads").value(spec.threads);
  w.key("grid_threads").value(spec.grid_threads);
  w.key("cluster_counts").begin_array();
  for (int n : spec.cluster_counts) w.value(n);
  w.end_array();
  w.key("skews").begin_array();
  for (double s : spec.skews) w.value(s);
  w.end_array();
  w.key("routings").begin_array();
  for (GridRouting r : spec.routings) w.value(to_string(r));
  w.end_array();
  w.key("policies").begin_array();
  for (const std::string& p : spec.effective_policies()) w.value(p);
  w.end_array();
  w.key("seeds").begin_array();
  for (std::uint64_t s : spec.replicate_seeds()) w.value(s);
  w.end_array();
  w.end_object();

  w.key("threads_used").value(result.threads_used);
  w.key("wall_ms").value(result.wall_ms);
  w.key("violation_count").value(
      static_cast<std::uint64_t>(result.violation_count));

  w.key("cells").begin_array();
  for (const GridCellResult& c : result.cells) {
    w.begin_object();
    w.key("clusters").value(c.cell.clusters);
    w.key("skew").value(c.cell.skew);
    w.key("routing").value(to_string(c.cell.routing));
    w.key("policy").value(c.cell.policy);
    w.key("seed").value(c.cell.seed);
    w.key("horizon").value(c.horizon);
    w.key("jobs").value(static_cast<std::uint64_t>(c.jobs));
    w.key("migrations").value(static_cast<std::uint64_t>(c.migrations));
    w.key("mean_flow").value(c.mean_flow);
    w.key("mean_wait").value(c.mean_wait);
    w.key("mean_slowdown").value(c.mean_slowdown);
    w.key("global_utilization").value(c.global_utilization);
    w.key("grid_runs_completed")
        .value(static_cast<std::uint64_t>(c.grid_runs_completed));
    w.key("grid_resubmissions")
        .value(static_cast<std::uint64_t>(c.grid_resubmissions));
    w.key("be_kills").value(static_cast<std::uint64_t>(c.be_kills));
    w.key("local_preemptions")
        .value(static_cast<std::uint64_t>(c.local_preemptions));
    w.key("arena_peak_bytes")
        .value(static_cast<std::uint64_t>(c.arena_peak_bytes));
    w.key("wall_ms").value(c.wall_ms);
    w.key("violations").begin_array();
    for (const std::string& v : c.violations) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  if (profile != nullptr) {
    w.key("profile");
    prof::write_json(w, *profile);
  }

  w.end_object();
  return w.str();
}

void write_grid_report(const std::string& path, const GridSweepSpec& spec,
                       const GridSweepResult& result,
                       const prof::Snapshot* profile) {
  write_file(path, grid_report_json(spec, result, profile));
}

}  // namespace lgs
