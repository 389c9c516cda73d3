// Sharded multi-cluster replay: the clusters of ONE grid partitioned
// across worker threads, each advancing its shard's PRIVATE event queue
// (sim/simulator.h) out of a PRIVATE arena — with the hard requirement
// that the outcome is bit-identical to the serial GridSim, pinned by
// the FNV-1a golden digests of tests/test_shard_sim.cpp.
//
// Why clusters shard at all: jobs cross cluster boundaries only at
// their release instants (routing / exchange bids) and through the
// central best-effort server's grant queue.  Everything else —
// dispatch, backfilling, completions, volatility churn — is
// cluster-private, so the per-cluster event subsequences of the serial
// replay commute freely across clusters and can run concurrently.
// Two parallel strategies follow (the determinism contract, also in
// docs/ARCHITECTURE.md):
//
//  * STATIC STREAMING (isolated / global-plan routing, no best-effort
//    bags): every target is computable before the clock starts (the
//    global plan is an upfront prelude; width fallback reads only
//    static processors()).  The coordinator thread streams arrivals in
//    global release order through one lock-free SPSC mailbox per shard
//    (core/spsc_ring.h), batched per push_n/pop_n to amortize the
//    atomic traffic; each worker alternates
//    `run_until(next_arrival, kGridArrivalPriority)` with submissions.
//    No barriers at all — wall-clock scales with the slowest shard.
//
//  * COUPLED LOCKSTEP (static routing with a central best-effort
//    server): every dispatch on every cluster may consume from the
//    shared grant FIFO — an ordering coupling that depends on the full
//    serial interleaving of dispatches across clusters.  All shard
//    simulators draw insertion ids from ONE shared counter
//    (Simulator::share_ids), and the coordinator executes events one
//    at a time in merged (time, priority, id) order across the shard
//    queues — by induction this reproduces the serial engine's id
//    assignment and execution order exactly, so every FIFO operation
//    happens in serial order.  The serial arrival pump is mirrored as
//    a *virtual* event keyed (next release, kGridArrivalPriority): it
//    never enters a shard queue and draws no id — no shard event shares
//    its priority, so its id could never break a tie.  Once
//    the campaign completes (`completed() == total_runs()`) the FIFO
//    is provably silent forever — no run is pending or running
//    anywhere, so no future dispatch can pop, kill or complete a grant
//    — and the engine hands the remaining replay to static streaming,
//    resumed from the current arrival cursor.  In the tail, concurrent
//    id draws stay per-shard monotone, which is all the tie-break
//    needs.
//
// DYNAMIC routing (threshold / economic) runs on one shard: exchange
// bids read every cluster's expected_wait at each arrival instant, so
// all shards would have to stop at every arrival.  Measured, those
// barriers made the replay 5-8x slower than serial, so the constructor
// clamps the shard count to 1 and the serial path replays it inline.
//
// In every strategy the serial tie-break (time, priority, insertion
// id) is replayed exactly: per-cluster event streams keep their serial
// relative order because submissions reach each cluster in the serial
// arrival order, and cross-cluster same-instant ties commute because
// no shared state is touched between synchronization points.
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

#include <atomic>
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
/// routing.  Memory follows GridSim's replay-arena discipline, but per
/// shard: the coordinator arena holds the arrival front-end (store and
/// routing tables), and each shard owns a private arena for its
/// simulator and clusters, so allocation needs no cross-thread
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
  /// threads live only inside this call.
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
  /// Peak arena bytes: coordinator arena plus every shard arena.
  std::size_t arena_peak_bytes() const;

 private:
  struct Shard;

  /// Bind clusters to shards (placement + construction + central
  /// server).  Idempotent; called by run() and the cluster accessors.
  void ensure_materialized() const;
  /// Cluster -> shard map: LPT over the cost model.
  std::vector<std::uint32_t> compute_placement() const;
  void run_single(Time horizon);
  void run_coupled(Time horizon);
  void run_static(Time horizon);
  void worker_static(std::size_t s, Time horizon);

  LightGrid grid_;
  GridSimOptions opts_;
  Arena owned_arena_;  ///< unused (empty) when an external arena is given
  Arena& arena_;       ///< coordinator arena (the arrival front-end)
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Lazily materialized (mutable: const accessors may trigger it).
  mutable std::vector<std::uint32_t> shard_of_;  ///< cluster -> shard
  mutable std::vector<std::unique_ptr<OnlineCluster>> clusters_;
  mutable std::unique_ptr<CentralServer> server_;
  mutable bool materialized_ = false;
  /// Shared insertion-id counter of the coupled strategy (serial id 1
  /// is the first bootstrap dispatch, as in GridSim).
  mutable std::atomic<EventId> id_counter_{1};
  /// Submissions and the arrival cursor (strategies resume from it).
  GridArrivals arrivals_;
  bool ran_ = false;
};

/// validate_grid_result over the sharded engine (same checks as the
/// serial overload).
std::vector<std::string> validate_grid_result(const ShardGridSim& sim,
                                              const GridSimResult& result);

}  // namespace lgs
