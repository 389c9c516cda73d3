// Sharded multi-cluster replay: the clusters of ONE grid partitioned
// across worker threads, each shard advancing a PRIVATE event queue
// (sim/simulator.h) — with the hard requirement that the outcome is
// bit-identical to the serial GridSim, pinned by the FNV-1a golden
// digests of tests/test_shard_sim.cpp.
//
// Why clusters shard at all: jobs cross cluster boundaries only at
// their release instants (routing / exchange bids) and through the
// central best-effort server's grant queue.  Everything else —
// dispatch, backfilling, completions, volatility churn — is
// cluster-private, so the per-cluster event subsequences of the serial
// replay commute freely across clusters and can run concurrently.
//
// One strategy (the determinism contract, also in docs/ARCHITECTURE.md):
// under isolated or global-plan routing with no best-effort bags, every
// target is computable before the clock starts (the global plan is an
// upfront prelude; the width fallback reads only static processors()).
// run() routes each arrival the horizon admits once, up front, into
// its shard's list, arms every shard's simulator with GridSim's own
// arrival pump (GridArrivalPump) fed from that list, and drains the
// shards concurrently — shard 0 on the calling thread — with no
// barrier and no cross-thread traffic.  Each shard replays the serial
// event subsequence of its clusters: submissions reach each cluster in
// the serial order at the serial instants, and the per-shard pump
// keeps the serial tie-break because its priority (-2) is unique at
// its instant — no completion, churn or bootstrap event shares it — so
// its event id never breaks a tie, and the ids it draws shift later
// events of its shard without reordering them.
//
// Everything else runs on one shard, which IS GridSim's replay (same
// pump events, same ids): threshold / economic routing, whose bids read
// every cluster's expected_wait at every arrival instant (measured, a
// barrier per arrival made the replay 5-8x slower than serial), and
// best-effort bags, whose grant FIFO depends on the serial interleaving
// of dispatches across clusters (measured, a coupled lockstep over the
// shards never beat one shard at 2 or 4 workers; see ARCHITECTURE.md).
//
// Cluster -> shard placement is a deterministic LPT partition: clusters
// sorted by descending cost — `processors x (1 + home-trace job
// count)` — each assigned to the least-loaded shard (ties broken by
// cluster index, then lowest shard index), so make_skewed_grid's
// geometric ladder does not pile the heavy clusters onto a few
// workers.  Because volatility streams are keyed by cluster_index (not
// shard), placement can NEVER change the replay outcome — pinned by
// tests that vary the thread count, and with it the partition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/arena.h"
#include "core/job.h"
#include "core/job_store.h"
#include "grid/besteffort.h"
#include "platform/platform.h"
#include "sim/grid_sim.h"
#include "sim/online_cluster.h"
#include "sim/simulator.h"

namespace lgs {

/// Parallel drop-in for GridSim: same construction, submission and
/// run-once surface, same GridSimResult, bit-identical outcome.  The
/// submission surface and the arrival walk are GridSim's own front-end
/// (GridArrivals).
///
/// `threads` requests the worker count: 0 = hardware_concurrency,
/// clamped to [1, cluster_count()], and to 1 under threshold / economic
/// routing or best-effort bags.  Memory follows GridSim's replay-arena
/// discipline, but per shard: the engine arena holds the arrival
/// front-end and shard 0 (so one shard is GridSim on the same arena),
/// and every other shard owns a private arena for its simulator,
/// clusters and routed arrivals, so allocation needs no cross-thread
/// contention.
///
/// Cluster -> shard placement is decided lazily (first access of
/// cluster()/clusters()/shard_of() or run()), so the LPT cost model can
/// see the trace split; submit everything before reading the placement
/// to get load-aware costs (earlier access falls back to node-count
/// costs — still deterministic, still outcome-identical).
class ShardGridSim {
 public:
  ShardGridSim(const LightGrid& grid, const GridSimOptions& opts,
               int threads = 0, Arena* arena = nullptr);
  ~ShardGridSim();
  ShardGridSim(const ShardGridSim&) = delete;
  ShardGridSim& operator=(const ShardGridSim&) = delete;

  /// Register `j` with home cluster index `home` (see GridSim::submit).
  void submit(std::size_t home, const Job& j) { arrivals_.submit(home, j); }
  /// Register `per_cluster[i]` as the local workload of cluster i.
  void submit_workloads(const std::vector<JobSet>& per_cluster) {
    arrivals_.submit_workloads(per_cluster);
  }
  /// Borrow an already-built trace (see GridSim::submit_store).
  void submit_store(const JobStore& store) { arrivals_.submit_store(store); }

  /// Route every submission, drive all shard queues until they drain
  /// (or `horizon`), and aggregate the outcome.  Callable once; worker
  /// threads live only inside this call, and a worker's exception is
  /// rethrown after every worker joined.
  GridSimResult run(Time horizon = kTimeInfinity);

  std::size_t cluster_count() const { return grid_.clusters.size(); }
  const OnlineCluster& cluster(std::size_t i) const {
    ensure_materialized();
    return *clusters_[i];
  }
  /// The clusters in index order (grid/exchange bidding, validation).
  const std::vector<std::unique_ptr<OnlineCluster>>& clusters() const {
    ensure_materialized();
    return clusters_;
  }
  const LightGrid& grid() const { return grid_; }

  /// Effective shard count after clamping.
  int shard_count() const;
  /// Which shard owns cluster `i` (the LPT partition).
  int shard_of(std::size_t i) const {
    ensure_materialized();
    return static_cast<int>(shard_of_[i]);
  }
  /// Events executed across all shard simulators.
  std::uint64_t events_executed() const;
  /// Peak arena bytes: the engine arena plus every private shard arena.
  std::size_t arena_peak_bytes() const;

 private:
  struct Shard;

  /// Bind clusters to shards (placement + construction + central
  /// server).  Idempotent; called by run() and the cluster accessors.
  void ensure_materialized() const;
  /// Cluster -> shard map: LPT over the cost model.
  std::vector<std::uint32_t> compute_placement() const;
  /// Route every arrival released at or before `horizon` into its
  /// shard's list and feed each shard's pump from it (multi-shard).
  void route_ahead(Time horizon);

  LightGrid grid_;
  GridSimOptions opts_;
  Arena owned_arena_;  ///< unused (empty) when an external arena is given
  Arena& arena_;       ///< engine arena (arrival front-end and shard 0)
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Lazily materialized (mutable: const accessors may trigger it).
  mutable std::vector<std::uint32_t> shard_of_;  ///< cluster -> shard
  mutable std::vector<std::unique_ptr<OnlineCluster>> clusters_;
  mutable std::unique_ptr<CentralServer> server_;
  mutable bool materialized_ = false;
  /// Submissions and the arrival cursor.
  GridArrivals arrivals_;
  bool ran_ = false;
};

/// validate_grid_result over the sharded engine (same checks as the
/// serial overload).
std::vector<std::string> validate_grid_result(const ShardGridSim& sim,
                                              const GridSimResult& result);

}  // namespace lgs
