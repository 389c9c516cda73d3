// Multi-cluster grid simulation engine (§5, the paper's headline
// scenario).
//
// Instantiates N `OnlineCluster`s on ONE shared DES `Simulator` and runs
// the whole light grid online: local jobs arrive at their home cluster
// and are routed by a grid policy (grid/exchange for the decentralized
// protocols, grid/global for the omniscient plan), while killable
// best-effort runs from a central server (grid/besteffort) fill the idle
// holes — a kill notifies the source so the run is resubmitted
// (§1.2/§5.2).  Heterogeneous cluster sizes/speeds and per-cluster node
// volatility are first-class: `make_skewed_grid` builds geometric
// size/speed ladders for the sweep axes in exp/grid_sweep, and
// `VolatilityProfile` drives capacity churn from an order-free seeded
// stream (core/rng.h `mix_seed`), so a whole grid simulation is a pure
// function of its inputs — the determinism contract of
// docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/arena.h"
#include "core/job.h"
#include "core/job_store.h"
#include "grid/besteffort.h"
#include "grid/exchange.h"
#include "platform/platform.h"
#include "sim/online_cluster.h"
#include "sim/simulator.h"
#include "workload/generators.h"

namespace lgs {

/// How an arriving local job is routed to a cluster (the §5.2 exchange
/// alternatives plus the "big global optimization" baseline).
enum class GridRouting {
  kIsolated,    ///< stay at the home cluster (fairness baseline)
  kThreshold,   ///< migrate when the home queue is over a wait threshold
  kEconomic,    ///< every cluster bids its expected completion time
  kGlobalPlan,  ///< omniscient ECT plan over all submissions (grid/global)
};

const char* to_string(GridRouting r);

/// The three decentralized routings map onto grid/exchange policies;
/// kGlobalPlan has no exchange equivalent (throws std::invalid_argument).
ExchangePolicy to_exchange_policy(GridRouting r);

/// Node-volatility scenario applied to every cluster (§1: "some nodes can
/// appear or disappear").  Each cluster draws its own event stream from
/// `mix_seed(volatility_seed, cluster_index)`: `events` capacity drops at
/// uniform times in [0, window], each to a uniform level not below
/// `floor_fraction` of the cluster, restored after a uniform outage in
/// [outage_min, outage_max].  Overlapping outages compose: the usable
/// capacity at any instant is the minimum over the active ones, so a
/// restore never cancels another outage still in progress.
struct VolatilityProfile {
  int events = 0;  ///< 0 = no churn
  Time window = 0.0;
  double floor_fraction = 0.5;
  Time outage_min = 0.5;
  Time outage_max = 3.0;
};

struct GridSimOptions {
  GridRouting routing = GridRouting::kIsolated;
  /// kThreshold parameters (see ExchangeOptions).
  double wait_threshold = 10.0;
  double migration_penalty = 1.0;
  /// Per-cluster submission system (EASY backfilling, kill policy).
  OnlineCluster::Options cluster;
  /// Grid campaigns served best-effort by a central server (empty = no
  /// best-effort layer).
  std::vector<ParametricBag> bags;
  /// Capacity churn, applied per cluster with independent seeded streams.
  VolatilityProfile volatility;
  std::uint64_t volatility_seed = 0;
};

/// Per-cluster outcome of one grid simulation.
struct GridClusterOutcome {
  ClusterId id = 0;
  int processors = 0;
  long local_jobs = 0;
  double local_mean_wait = 0.0;
  double local_mean_slowdown = 0.0;
  double utilization_local = 0.0;  ///< local work only
  double utilization_total = 0.0;  ///< local + best-effort
  BestEffortStats be;
  VolatilityStats volatility;
};

struct GridSimResult {
  Time horizon = 0.0;
  long jobs_completed = 0;
  long migrations = 0;  ///< jobs routed away from their home cluster
  double global_utilization = 0.0;
  double mean_flow = 0.0;
  double mean_wait = 0.0;
  double mean_slowdown = 0.0;
  std::vector<CommunityOutcome> communities;
  std::vector<GridClusterOutcome> clusters;
  long grid_runs_total = 0;
  long grid_runs_completed = 0;
  long grid_resubmissions = 0;
};

/// One registered submission of the arrival front-end (GridArrivals):
/// 8 bytes, indexing the active job store.
struct GridPending {
  std::uint32_t home;
  std::uint32_t index;  ///< row in the active JobStore
};

/// Same-instant priority of the grid arrival pump (GridArrivalPump), the
/// one event that hands arrivals to clusters in every grid replay:
/// batch, streamed and sharded.  -2 fires the pump
/// ahead of every other event at its instant: the priority-0
/// completions and volatility churn and the +1 best-effort bootstrap —
/// the order the golden digests were captured under.  (OnlineCluster's
/// -1 release timers never arise inside the grid engines — routing
/// zeroes j.release — but -2 would fire before them too; if grid jobs
/// ever keep deferred releases, revisit this ordering and the golden
/// digests together.)
constexpr int kGridArrivalPriority = -2;

/// Arrival instant of a registered job: negative releases clamp to the
/// start of the replay.
inline Time effective_grid_release(Time release) {
  return release > 0.0 ? release : 0.0;
}

/// The submit_store prelude: group `store`'s rows by home cluster
/// (community % n), preserving store order inside each group — the
/// exact order submit_workloads(split_by_community(...)) produces, so
/// the release-date stable sort breaks ties identically.  Returns the
/// per-home counts.
std::vector<std::size_t> group_pending_by_home(const JobStore& store,
                                               std::size_t n,
                                               ArenaVec<GridPending>& pending);

/// One scheduled set_capacity event of the volatility stream — recorded
/// so a checkpoint can tell which churn events are still ahead and
/// re-schedule exactly those under their original ids.
struct GridCapacityEvent {
  Time t = 0.0;
  EventId id = 0;
  std::uint32_t cluster = 0;
  std::int32_t cap = 0;
};

/// Schedule the §1 capacity-churn events of cluster `cluster_index` on
/// `sim`.  One independent stream per cluster, keyed on
/// mix_seed(seed, cluster_index) ONLY — never on schedule order or on
/// which engine (or shard) owns the cluster — so churn is bit-identical
/// across serial and sharded execution and adding a cluster never
/// perturbs the others.  When `out` is given, every scheduled event is
/// appended to it (the checkpoint bookkeeping of GridSim).
void schedule_cluster_volatility(Simulator& sim, OnlineCluster& cl,
                                 const VolatilityProfile& vol,
                                 std::uint64_t seed,
                                 std::size_t cluster_index,
                                 std::vector<GridCapacityEvent>* out = nullptr);

/// The route order of both engines: the indices of `pending` stably
/// sorted by effective release, so equal releases route in submission
/// order.  Resizes `order` to pending.size().  A stream fed in this
/// order replays the batch run exactly.
void sort_route_order(const JobStore& jobs,
                      const ArenaVec<GridPending>& pending,
                      ArenaVec<std::uint32_t>& order);

/// The arrival front-end of both grid engines: everything between "a
/// job is registered" and "a job reaches a cluster", in one place.  It
/// owns the active trace (an engine-owned store, or a borrowed one),
/// the pending table, the global plan, the release order and its
/// cursor — entries before the cursor are routed, the rest are the
/// unrouted tail — plus the migration count and the per-home counts
/// the engines pre-size their clusters from at run().  The arrival pump
/// (GridArrivalPump) routes from it as it fires; a multi-shard
/// ShardGridSim routes it up front instead.  Every table lives in the
/// engine's arena.
class GridArrivals {
 public:
  using Clusters = std::vector<std::unique_ptr<OnlineCluster>>;

  GridArrivals(std::size_t clusters, ArenaRef arena);

  /// Register `j` with home cluster index `home` (compacted into the
  /// owned store).
  void submit(std::size_t home, const Job& j);
  /// Register `per_cluster[i]` as the local workload of cluster i.
  void submit_workloads(const std::vector<JobSet>& per_cluster);
  /// Borrow `store`: rows grouped by home (group_pending_by_home), no
  /// per-job copy.  The caller keeps `store` alive through the replay.
  void submit_store(const JobStore& store);
  /// Streamed registration: copy the row into the owned store (table
  /// refs re-interned against `tables`) and insert it into the unrouted
  /// tail at its route instant max(now, release), behind every row
  /// already due then — ties route in ingestion order, and a
  /// release-ordered stream is a plain append.  Returns the instant.
  Time ingest(const HotJob& h, const TablePool& tables, std::size_t home,
              Time now);

  /// Close registration: plan every submission (kGlobalPlan routing),
  /// sort the release order and pre-size each cluster's bookkeeping
  /// from the per-home counts.  Later submit* calls throw.
  void prepare(const LightGrid& grid, GridRouting routing,
               const Clusters& clusters);

  /// Any arrival left to route?
  bool pending() const { return cursor_ < order_.size(); }
  /// Effective release of the next arrival (pending() only).
  Time next_release() const { return release(pending_[order_[cursor_]].index); }
  /// Effective release of store row `row`.
  Time release(std::uint32_t row) const {
    return effective_grid_release(jobs()[row].release);
  }
  /// Route the next arrival and advance the cursor: the home cluster
  /// (isolated), the exchange winner (threshold / economic — the bids
  /// read every cluster's current expected_wait) or the planned
  /// cluster, widened to the first cluster wide enough.  Returns the
  /// target cluster; `*row` receives the job's store row.  Throws
  /// std::invalid_argument when the job is wider than every cluster.
  std::size_t route_next(const Clusters& clusters, const GridSimOptions& opts,
                         std::uint32_t* row);
  /// Route and deliver every arrival released at or before `now` — the
  /// body of one arrival-pump firing.
  void route_due(Time now, const Clusters& clusters,
                 const GridSimOptions& opts);
  /// Hand store row `row` to `cluster` as a local job released now.
  void deliver(std::uint32_t row, OnlineCluster& cluster) const;

  /// Nothing registered yet (no row, no borrowed store)?
  bool empty() const { return borrowed_ == nullptr && store_.empty(); }
  /// Jobs registered so far.
  std::size_t size() const { return pending_.size(); }
  /// Registered jobs per home cluster.
  const std::vector<std::size_t>& home_counts() const { return home_counts_; }
  long migrations() const { return migrations_; }

  /// Checkpoint section: the trace, the pending table, the plan, the
  /// unrouted tail of the release order and the migration count.
  void save(CheckpointWriter& w) const;
  /// Restore a save()d section into this empty front-end (throws
  /// CheckpointError on any count or index the blob cannot back).
  void load(CheckpointReader& r, GridRouting routing);

 private:
  /// The active trace: borrowed after submit_store, else the owned one.
  const JobStore& jobs() const {
    return borrowed_ != nullptr ? *borrowed_ : store_;
  }

  std::size_t clusters_;
  JobStore store_;  ///< owned rows (submit / ingest); empty when borrowing
  const JobStore* borrowed_ = nullptr;
  ArenaVec<GridPending> pending_;
  ArenaVec<std::uint32_t> plan_;   ///< kGlobalPlan: pending index -> target
  ArenaVec<std::uint32_t> order_;  ///< pending indices in route order
  std::size_t cursor_ = 0;         ///< first unrouted entry of order_
  std::vector<std::size_t> home_counts_;
  long migrations_ = 0;
  bool prepared_ = false;
};

/// One arrival routed before the clock starts: the target cluster index
/// and the job's store row.
struct GridRoute {
  std::uint32_t cluster;
  std::uint32_t row;
};

/// The arrival pump of both grid engines: ONE pending simulator event at
/// kGridArrivalPriority hands every arrival due at its instant to its
/// cluster, in release order, then re-arms at the next one — the event
/// queue never holds more than one arrival event.  By default it routes
/// as it fires, from the front-end's unrouted tail (GridSim, batch and
/// streamed; a one-shard ShardGridSim).  After feed() it delivers a
/// list routed before the clock started instead (each shard of a
/// multi-shard ShardGridSim).
class GridArrivalPump {
 public:
  GridArrivalPump(Simulator& sim, GridArrivals& arrivals,
                  const GridArrivals::Clusters& clusters,
                  const GridSimOptions& opts)
      : sim_(sim), arrivals_(arrivals), clusters_(clusters), opts_(opts) {}
  GridArrivalPump(const GridArrivalPump&) = delete;
  GridArrivalPump& operator=(const GridArrivalPump&) = delete;

  /// Deliver the routed arrivals [first, last) (release order) instead
  /// of routing from the front-end.  The list outlives the replay.
  void feed(const GridRoute* first, const GridRoute* last) {
    next_ = first;
    last_ = last;
    routed_ = true;
  }
  /// Any arrival left to deliver?
  bool pending() const { return routed_ ? next_ != last_ : arrivals_.pending(); }
  /// Schedule the pump at the next arrival, clamped to now (a streamed
  /// row released in the past routes at once); no-op when none is left.
  void arm();
  /// A streamed row due at `due` joined the tail: arm the pump, or move
  /// it earlier when the row is due before it.
  void admit(Time due);
  /// The (id, time) of the last pump event, in flight exactly while
  /// pending() (stale otherwise; ids are never reused).
  EventId event() const { return event_; }
  Time time() const { return time_; }
  /// Checkpoint restore: adopt the snapshot's pump key and, while
  /// arrivals are pending, re-create the event under its original id.
  void restore(Time t, EventId id);

 private:
  void fire();

  Simulator& sim_;
  GridArrivals& arrivals_;
  const GridArrivals::Clusters& clusters_;
  const GridSimOptions& opts_;
  const GridRoute* next_ = nullptr;  ///< fed mode: next routed arrival
  const GridRoute* last_ = nullptr;
  bool routed_ = false;
  bool armed_ = false;
  EventId event_ = 0;
  Time time_ = 0.0;
};

/// Aggregate the outcome of a finished replay from the drained clusters
/// (cluster-index order).  Shared by both engines.
GridSimResult aggregate_grid_result(
    const std::vector<std::unique_ptr<OnlineCluster>>& clusters, Time horizon,
    long migrations, const CentralServer* server);

/// Engine-agnostic body of validate_grid_result (see below).
std::vector<std::string> validate_grid_clusters(
    const std::vector<std::unique_ptr<OnlineCluster>>& clusters,
    const GridSimResult& result);

/// The engine.  Usage: construct, `submit` / `submit_workloads` /
/// `submit_store`, `run()` once; the clusters stay inspectable
/// afterwards (local records, stats).
///
/// Memory: every per-replay allocation — the job store, the pending and
/// routing tables, the DES kernel's queue and slots, each cluster's
/// bookkeeping — lives in ONE replay arena.  By default the engine owns
/// it (released with the engine); pass an external Arena to reuse its
/// blocks across repeated replays (`arena.reset()` between runs), which
/// is how bench_scale amortizes warm-up and how each parallel sweep cell
/// keeps its allocations off the global allocator.
class GridSim {
 public:
  GridSim(const LightGrid& grid, const GridSimOptions& opts,
          Arena* arena = nullptr);

  /// Register `j` with home cluster index `home`.  Routing happens at
  /// j.release simulated time, inside `run()`.  The job is compacted
  /// into the engine's own store — no fat copy is kept.
  void submit(std::size_t home, const Job& j) { arrivals_.submit(home, j); }

  /// Register `per_cluster[i]` as the local workload of cluster i.
  void submit_workloads(const std::vector<JobSet>& per_cluster) {
    arrivals_.submit_workloads(per_cluster);
  }

  /// Borrow an already-built trace: every job of `store` is registered
  /// with home cluster `community % cluster_count()`, grouped by home in
  /// store order — exactly the submission order of
  /// submit_workloads(split_by_community(jobs, cluster_count())) — with
  /// zero per-job copies (the regression bar of tests/test_job_store.cpp).
  /// The caller keeps `store` alive through run().
  void submit_store(const JobStore& store) { arrivals_.submit_store(store); }

  /// Route every submission, drive the event queue until it drains (or
  /// `horizon`), and aggregate the outcome.  Callable once.
  GridSimResult run(Time horizon = kTimeInfinity);

  // ---- checkpoint/restore (core/checkpoint) ----------------------------

  /// Batch-mode partial run: the full run() prelude, then drive the
  /// queue to exactly time `t` (every event strictly before `t`
  /// executed; events AT `t` stay pending).  Follow with checkpoint()
  /// and/or resume().  Callable once, like run().
  void run_to(Time t);

  /// Continue a run_to()/restore()d batch replay to completion and
  /// aggregate — `run_to(T); resume(h)` is bit-identical to `run(h)`.
  GridSimResult resume(Time horizon = kTimeInfinity);

  /// Serialize the complete engine state — simulator clock/id cursor,
  /// job store, routing tables, per-cluster engines, central server,
  /// every pending event's semantic payload — into a versioned snapshot
  /// (core/checkpoint framing: magic, version, FNV-1a checksum).  The
  /// engine must be at a quiescent point (between events): after
  /// run_to(), or between streaming advance_to() calls.  Throws
  /// CheckpointError if any pending event cannot be accounted for.
  std::vector<unsigned char> checkpoint() const;

  /// Restore a snapshot into this FRESHLY constructed engine.  The grid
  /// and options must match the snapshotting engine exactly (a config
  /// digest is embedded and verified).  After restore the replay
  /// continues bit-identically to the uninterrupted run: resume() for
  /// batch snapshots, ingest()/advance_to()/finish_streaming() for
  /// streaming ones.
  void restore(const std::vector<unsigned char>& blob);

  // ---- streaming service mode (sim/stream_sim.h drives this) -----------

  /// Enter streaming mode: jobs arrive via ingest() instead of a
  /// pre-registered trace.  Schedules volatility churn; global-plan
  /// routing needs the whole trace up front and is rejected.
  void begin_streaming();

  /// Ingest one job row (tables resolved against `tables`) with home
  /// cluster `home`.  The job is copied into the engine's own store and
  /// joins the arrival pump's unrouted tail: it routes at max(now,
  /// release), ties in ingestion order — ingest in release order to
  /// reproduce the batch replay exactly.
  void ingest(const HotJob& h, const TablePool& tables, std::size_t home);

  /// Advance the stream clock to exactly `t`: every event strictly
  /// ordered before (t, arrival-priority) executes; a pump firing AT `t`
  /// stays pending, so jobs ingested later with release == t still route
  /// ahead of same-instant completions — the batch pump's tie-break
  /// order.  Quiescent afterwards: checkpoint() is legal.
  void advance_to(Time t);

  /// End of stream: drain the queue (or stop at `horizon`) and
  /// aggregate, exactly like the tail of run().
  GridSimResult finish_streaming(Time horizon = kTimeInfinity);

  bool streaming() const { return streaming_; }
  /// Jobs ingested so far (streaming mode).
  std::size_t ingested() const { return arrivals_.size(); }

  std::size_t cluster_count() const { return clusters_.size(); }
  const OnlineCluster& cluster(std::size_t i) const { return *clusters_[i]; }
  /// The clusters in index order (the currency of the shared helpers
  /// above and of grid/exchange bidding).
  const std::vector<std::unique_ptr<OnlineCluster>>& clusters() const {
    return clusters_;
  }
  const LightGrid& grid() const { return grid_; }
  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }

  /// Replay-arena introspection (exported into BENCH_scale.json).
  const ArenaStats& arena_stats() const { return arena_.stats(); }

 private:
  void schedule_volatility();
  /// The run() prelude (arrivals prepared, arrival pump armed,
  /// volatility scheduled) — shared by run() and run_to().
  void prepare_run();
  /// Digest of everything that must match between the snapshotting and
  /// the restoring engine: grid shape and options.
  std::uint64_t config_digest() const;

  LightGrid grid_;
  GridSimOptions opts_;
  Arena owned_arena_;  ///< unused (empty) when an external arena is given
  Arena& arena_;       ///< the replay arena; every member below draws on it
  Simulator sim_;
  std::vector<std::unique_ptr<OnlineCluster>> clusters_;
  std::unique_ptr<CentralServer> server_;
  GridArrivals arrivals_;
  GridArrivalPump pump_{sim_, arrivals_, clusters_, opts_};
  bool ran_ = false;
  bool streaming_ = false;
  /// Every scheduled volatility event; checkpoint keeps the still-
  /// pending subset.
  std::vector<GridCapacityEvent> capacity_events_;
};

/// Split a workload across `n` home clusters by community
/// (community % n) — how an SWF trace (workload/swf) is replayed on a
/// grid: each user community keeps submitting to "its" cluster.  Takes
/// the set by value and MOVES each job into its bucket: pass an rvalue
/// (std::move) and no job is deep-copied at all.  Grid replays over a
/// JobStore should use GridSim::submit_store instead, which needs no
/// split at all.
std::vector<JobSet> split_by_community(JobSet jobs, std::size_t n);

/// Heterogeneous grid for the sweep axes: `n` clusters, cluster i with
/// round(base_procs * skew^(-i/(n-1))) unit processors and speed
/// skew^(i/(2(n-1))) — a geometric ladder from the big slow cluster 0 to
/// the small fast cluster n-1.  skew = 1 is homogeneous; interconnects
/// cycle through the Fig. 3 kinds and owner communities through the §5.2
/// four.
LightGrid make_skewed_grid(int n, int base_procs, double skew);

/// Internal-consistency check of a finished (fully drained) simulation:
/// nothing left queued or running, per-record time sanity, utilization
/// and best-effort accounting invariants, every grid run completed.
/// Returns human-readable violations (empty = clean).
std::vector<std::string> validate_grid_result(const GridSim& sim,
                                              const GridSimResult& result);

}  // namespace lgs
