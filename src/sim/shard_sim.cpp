#include "sim/shard_sim.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/profiler.h"
#include "core/spsc_ring.h"

namespace lgs {

/// One worker shard: a private arena, a private event queue on it, and
/// the SPSC mailbox the coordinator streams arrivals through (static
/// strategy).  `error` carries a worker exception across the join.
struct ShardGridSim::Shard {
  /// One routed arrival: release instant + target cluster + store row.
  struct Arrival {
    Time release;
    std::uint32_t cluster;
    std::uint32_t job;
  };
  /// 4096 × 16 B = 64 KiB in flight per shard: deep enough that the
  /// coordinator's walk stays ahead of the workers, small enough to
  /// bound memory when one shard lags.
  static constexpr std::size_t kMailboxCapacity = 4096;
  /// Arrivals moved per bulk mailbox operation (push_n/pop_n): one
  /// release-store per batch instead of per item on the hot streaming
  /// path.
  static constexpr std::size_t kArrivalBatch = 64;

  Arena arena;
  std::unique_ptr<Simulator> sim;
  SpscRing<Arrival> mailbox{kMailboxCapacity};
  /// Coordinator-side staging buffer for bulk pushes (only the
  /// coordinator touches it).
  std::vector<Arrival> staging;
  std::exception_ptr error;
};

ShardGridSim::ShardGridSim(const LightGrid& grid, const GridSimOptions& opts,
                           int threads, Arena* arena)
    : grid_(grid),
      opts_(opts),
      arena_(arena != nullptr ? *arena : owned_arena_),
      arrivals_(grid_.clusters.size(), ArenaRef(arena_)) {
  if (grid_.clusters.empty())
    throw std::invalid_argument("grid without clusters");
  if (threads < 0)
    throw std::invalid_argument("negative shard thread count");
  const std::size_t want =
      threads > 0 ? static_cast<std::size_t>(threads)
                  : std::max(1u, std::thread::hardware_concurrency());
  // Exchange bids read every cluster at every arrival instant: no
  // partition of the clusters can advance independently between two
  // arrivals, so dynamic routing replays on one shard (the serial path).
  const bool dynamic = opts_.routing == GridRouting::kThreshold ||
                       opts_.routing == GridRouting::kEconomic;
  const std::size_t n_shards =
      dynamic ? 1 : std::min(want, grid_.clusters.size());
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->sim = std::make_unique<Simulator>(ArenaRef(sh->arena));
    shards_.push_back(std::move(sh));
  }
  // Cluster -> shard binding is deferred to ensure_materialized() so
  // the LPT cost model can see the trace split (submissions arrive
  // after construction).
}

ShardGridSim::~ShardGridSim() = default;

std::vector<std::uint32_t> ShardGridSim::compute_placement() const {
  const std::size_t n = grid_.clusters.size();
  const std::size_t n_shards = shards_.size();
  std::vector<std::uint32_t> owner(n);
  if (n_shards <= 1) return owner;
  // Cost model: processors × (1 + home-trace job count).  The job count
  // proxies expected load (routing may migrate some away, but home
  // counts are the right order of magnitude); the +1 keeps empty
  // clusters from costing nothing at all.
  const std::vector<std::size_t>& jobs_at_home = arrivals_.home_counts();
  std::vector<double> cost(n);
  for (std::size_t i = 0; i < n; ++i)
    cost[i] = static_cast<double>(grid_.clusters[i].processors()) *
              (1.0 + static_cast<double>(jobs_at_home[i]));
  // LPT: heaviest cluster first (stable sort — equal costs keep cluster
  // index order), each onto the least-loaded shard (strict < keeps the
  // lowest shard index on ties).  Deterministic by construction.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&cost](std::uint32_t a, std::uint32_t b) {
                     return cost[a] > cost[b];
                   });
  std::vector<double> load(n_shards, 0.0);
  for (const std::uint32_t c : order) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < n_shards; ++s)
      if (load[s] < load[best]) best = s;
    owner[c] = static_cast<std::uint32_t>(best);
    load[best] += cost[c];
  }
  return owner;
}

void ShardGridSim::ensure_materialized() const {
  if (materialized_) return;
  materialized_ = true;
  shard_of_ = compute_placement();
  // The coupled strategy needs every shard on the shared id counter
  // BEFORE any event is scheduled (the bootstrap dispatches below must
  // carry serial ids 1..N).
  const bool coupled = !opts_.bags.empty() && shards_.size() > 1;
  if (coupled)
    for (const auto& sh : shards_) sh->sim->share_ids(&id_counter_);
  clusters_.reserve(grid_.clusters.size());
  for (std::size_t i = 0; i < grid_.clusters.size(); ++i) {
    const std::size_t s = shard_of_[i];
    clusters_.push_back(std::make_unique<OnlineCluster>(
        *shards_[s]->sim, grid_.clusters[i], opts_.cluster,
        ArenaRef(shards_[s]->arena)));
  }
  if (!opts_.bags.empty()) {
    server_ = std::make_unique<CentralServer>(opts_.bags);
    for (auto& c : clusters_)
      c->set_besteffort_source(server_->make_source());
  }
}

int ShardGridSim::shard_count() const {
  return static_cast<int>(shards_.size());
}

std::uint64_t ShardGridSim::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->sim->executed();
  return total;
}

std::size_t ShardGridSim::arena_peak_bytes() const {
  std::size_t total = arena_.stats().bytes_peak;
  for (const auto& sh : shards_) total += sh->arena.stats().bytes_peak;
  return total;
}

GridSimResult ShardGridSim::run(Time horizon) {
  LGS_PROF_ZONE("grid.run");
  if (ran_) throw std::logic_error("run() called twice");
  ensure_materialized();
  ran_ = true;
  arrivals_.prepare(grid_, opts_.routing, clusters_);
  // Volatility churn before any worker starts: per-cluster order-free
  // streams (grid_sim.h), scheduled on the owning shard's queue.
  for (std::size_t c = 0; c < clusters_.size(); ++c)
    schedule_cluster_volatility(*shards_[shard_of_[c]]->sim, *clusters_[c],
                                opts_.volatility, opts_.volatility_seed, c);
  if (shards_.size() == 1)
    run_single(horizon);
  else if (server_ != nullptr)
    run_coupled(horizon);
  else
    run_static(horizon);
  // The serial clock ends on the globally last event; with every shard
  // drained that is the max over the shard clocks (each shard replays
  // its serial event subsequence, so per-shard finals match).
  Time end = 0.0;
  for (const auto& sh : shards_) end = std::max(end, sh->sim->now());
  return aggregate_grid_result(clusters_, end, arrivals_.migrations(),
                               server_.get());
}

void ShardGridSim::run_single(Time horizon) {
  // One shard: the serial event order replayed inline on the calling
  // thread (no workers) — the degenerate case of every strategy.
  Simulator& sim = *shards_[0]->sim;
  while (arrivals_.pending()) {
    const Time t = arrivals_.next_release();
    if (t > horizon) break;
    sim.run_until(t, kGridArrivalPriority);
    LGS_PROF_COUNT("grid.arrival_batches", 1);
    arrivals_.route_due(t, clusters_, opts_);
  }
  sim.run(horizon);
}

void ShardGridSim::run_coupled(Time horizon) {
  // Central best-effort server on N shards: the coordinator executes
  // events ONE at a time in merged (time, priority, id) order across
  // the shard queues — the shared id counter makes every allocation
  // land on the exact serial id, so by induction the replay (including
  // every grant-FIFO pop, kill-resubmit and completion) IS the serial
  // replay, just stored in per-shard queues.  The serial arrival pump
  // participates as a virtual event keyed (next release,
  // kGridArrivalPriority) — no shard event has that priority, so the
  // key needs no id; when it wins the merge, the coordinator pins every
  // shard clock to the batch instant and routes the batch inline,
  // exactly like the serial pump callback.
  //
  // The moment the campaign completes (completed() == total_runs())
  // the FIFO is silent FOREVER — nothing pending, nothing running, so
  // no future dispatch can pop a grant, no kill can resubmit, no
  // completion can land — and the remaining replay decomposes like a
  // bag-free run: hand off to the parallel strategy for the tail.
  const long target_runs = server_->total_runs();
  bool handoff = false;
  for (;;) {
    if (server_->completed() == target_runs) {
      handoff = true;
      break;
    }
    int best_shard = -1;
    Time bt = 0.0;
    int bp = 0;
    EventId bid = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Time t;
      int p;
      EventId id;
      if (!shards_[s]->sim->peek_next(&t, &p, &id)) continue;
      if (best_shard < 0 || t < bt ||
          (t == bt && (p < bp || (p == bp && id < bid)))) {
        best_shard = static_cast<int>(s);
        bt = t;
        bp = p;
        bid = id;
      }
    }
    const bool pump_armed = arrivals_.pending();
    const Time pump_t = pump_armed ? arrivals_.next_release() : 0.0;
    const bool pump_best =
        pump_armed && (best_shard < 0 || pump_t < bt ||
                       (pump_t == bt && kGridArrivalPriority < bp));
    if (best_shard < 0 && !pump_armed) break;
    const Time next_t = pump_best ? pump_t : bt;
    if (next_t > horizon) break;
    if (pump_best) {
      // Everything ordered before the pump already ran, so run_until
      // executes nothing — it pins each shard clock to the batch
      // instant (exchange bids and submit records read now()).
      for (const auto& sh : shards_)
        sh->sim->run_until(pump_t, kGridArrivalPriority);
      LGS_PROF_COUNT("grid.arrival_batches", 1);
      arrivals_.route_due(pump_t, clusters_, opts_);
    } else {
      shards_[static_cast<std::size_t>(best_shard)]->sim->step_one();
    }
  }
  if (!handoff) {
    // Horizon cut (or full drain): pin every clock, serial-style.
    for (const auto& sh : shards_) sh->sim->run(horizon);
    return;
  }
  // Parallel tail: the FIFO is silent, so the remaining replay obeys
  // the bag-free determinism argument (workers' id draws stay
  // per-shard monotone on the shared counter; concurrent request()
  // calls only read the drained deque).  Routing is static here:
  // dynamic routing never runs on more than one shard.
  run_static(horizon);
}

void ShardGridSim::worker_static(std::size_t s, Time horizon) {
  Shard& sh = *shards_[s];
  try {
    LGS_PROF_ZONE("grid.shard_run");
    Time batch_t = -1.0;
    Shard::Arrival buf[Shard::kArrivalBatch];
    // Blocking bulk pop: each arrival's instant bounds how far this
    // shard may advance, so the worker cannot outrun the coordinator —
    // and the mailbox content is timing-independent, so neither thread
    // schedule nor buffer depth can change the replay.
    while (const std::size_t n = sh.mailbox.wait_pop_n(buf, Shard::kArrivalBatch)) {
      for (std::size_t i = 0; i < n; ++i) {
        const Shard::Arrival& a = buf[i];
        sh.sim->run_until(a.release, kGridArrivalPriority);
        if (a.release != batch_t) {
          batch_t = a.release;
          LGS_PROF_COUNT("grid.arrival_batches", 1);
        }
        arrivals_.deliver(a.job, *clusters_[a.cluster]);
      }
    }
    sh.sim->run(horizon);
  } catch (...) {
    sh.error = std::current_exception();
    // Keep draining so the coordinator's blocking push can never wedge
    // on a dead consumer.
    Shard::Arrival sink[Shard::kArrivalBatch];
    while (sh.mailbox.wait_pop_n(sink, Shard::kArrivalBatch) != 0) {
    }
  }
}

void ShardGridSim::run_static(Time horizon) {
  // Static routing (isolated / global-plan): every routing decision is
  // computable here, before the clock starts.  The coordinator walks
  // the arrivals in global release order and streams each to its target
  // shard's mailbox (staged into kArrivalBatch-deep bulk pushes);
  // workers replay concurrently with zero barriers.
  std::vector<std::thread> pool;
  pool.reserve(shards_.size());
  // Every exit, normal or by exception (a job wider than every cluster
  // throws from the routing rule), ends the streams and joins the
  // workers first: a joinable std::thread must never be destroyed.
  const auto close_and_join = [this, &pool] {
    for (auto& sh : shards_) sh->mailbox.close();
    for (auto& th : pool) th.join();
  };
  try {
    for (std::size_t s = 0; s < shards_.size(); ++s)
      pool.emplace_back([this, s, horizon] { worker_static(s, horizon); });
    for (auto& sh : shards_) {
      sh->staging.clear();
      sh->staging.reserve(Shard::kArrivalBatch);
    }
    while (arrivals_.pending()) {
      const Time t = arrivals_.next_release();
      if (t > horizon) break;
      std::uint32_t row = 0;
      const std::size_t target = arrivals_.route_next(clusters_, opts_, &row);
      Shard& sh = *shards_[shard_of_[target]];
      sh.staging.push_back(
          Shard::Arrival{t, static_cast<std::uint32_t>(target), row});
      if (sh.staging.size() >= Shard::kArrivalBatch) {
        sh.mailbox.push_n(sh.staging.data(), sh.staging.size());
        sh.staging.clear();
      }
    }
    for (auto& sh : shards_) {
      if (!sh->staging.empty()) {
        sh->mailbox.push_n(sh->staging.data(), sh->staging.size());
        sh->staging.clear();
      }
    }
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
  for (auto& sh : shards_)
    if (sh->error) std::rethrow_exception(sh->error);
}

std::vector<std::string> validate_grid_result(const ShardGridSim& sim,
                                              const GridSimResult& result) {
  return validate_grid_clusters(sim.clusters(), result);
}

}  // namespace lgs
