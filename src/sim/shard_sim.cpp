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
      store_(ArenaRef(arena_)),
      pending_(ArenaAllocator<GridPending>(ArenaRef(arena_))),
      plan_(ArenaAllocator<std::uint32_t>(ArenaRef(arena_))),
      route_order_(ArenaAllocator<std::uint32_t>(ArenaRef(arena_))) {
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
  std::vector<std::size_t> jobs_at_home(n, 0);
  for (const GridPending& p : pending_) ++jobs_at_home[p.home];
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
  if (!deferred_reserve_.empty()) {
    for (std::size_t c = 0; c < deferred_reserve_.size(); ++c)
      clusters_[c]->reserve_submissions(deferred_reserve_[c]);
    deferred_reserve_.clear();
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

void ShardGridSim::submit(std::size_t home, const Job& j) {
  if (ran_) throw std::logic_error("submit after run()");
  if (borrowed_ != nullptr)
    throw std::logic_error("cannot mix submit() with submit_store()");
  if (home >= grid_.clusters.size())
    throw std::invalid_argument("home cluster out of range");
  store_.append(j);
  pending_.push_back(GridPending{static_cast<std::uint32_t>(home),
                                 static_cast<std::uint32_t>(store_.size() - 1)});
}

void ShardGridSim::submit_workloads(const std::vector<JobSet>& per_cluster) {
  if (per_cluster.size() > grid_.clusters.size())
    throw std::invalid_argument("more workloads than clusters");
  std::size_t total = 0;
  for (const JobSet& jobs : per_cluster) total += jobs.size();
  pending_.reserve(pending_.size() + total);
  store_.reserve(store_.size() + total);
  if (deferred_reserve_.empty() && !materialized_)
    deferred_reserve_.assign(grid_.clusters.size(), 0);
  for (std::size_t i = 0; i < per_cluster.size(); ++i) {
    if (materialized_)
      clusters_[i]->reserve_submissions(per_cluster[i].size());
    else
      deferred_reserve_[i] += per_cluster[i].size();
    for (const Job& j : per_cluster[i]) submit(i, j);
  }
}

void ShardGridSim::submit_store(const JobStore& store) {
  if (ran_) throw std::logic_error("submit after run()");
  if (borrowed_ != nullptr || !store_.empty())
    throw std::logic_error("cannot mix submit_store() with prior submissions");
  borrowed_ = &store;
  const std::vector<std::size_t> counts =
      group_pending_by_home(store, grid_.clusters.size(), pending_);
  if (materialized_) {
    for (std::size_t c = 0; c < grid_.clusters.size(); ++c)
      clusters_[c]->reserve_submissions(counts[c]);
  } else {
    if (deferred_reserve_.empty())
      deferred_reserve_.assign(grid_.clusters.size(), 0);
    for (std::size_t c = 0; c < grid_.clusters.size(); ++c)
      deferred_reserve_[c] += counts[c];
  }
}

void ShardGridSim::route_one(std::size_t pending_index) {
  const JobStore& js = jobs();
  const std::size_t target =
      grid_route_target(clusters_, opts_, js, pending_.data(), plan_.data(),
                        pending_index, &migrations_);
  HotJob h = js[pending_[pending_index].index];
  h.release = 0.0;
  clusters_[target]->submit_local(h, js.tables());
}

void ShardGridSim::arm_pump() {
  // The serial engine's schedule_next_arrival allocates an id for the
  // pump event here; consume the same id from the shared counter so
  // every subsequent allocation matches serially.  The pump never
  // enters a shard queue — run_coupled merges its (t, -2, id) key
  // virtually.
  if (route_cursor_ >= route_order_.size()) {
    pump_armed_ = false;
    return;
  }
  pump_t_ = effective_grid_release(
      jobs()[pending_[route_order_[route_cursor_]].index].release);
  pump_id_ = id_counter_.fetch_add(1, std::memory_order_relaxed);
  pump_armed_ = true;
}

GridSimResult ShardGridSim::run(Time horizon) {
  LGS_PROF_ZONE("grid.run");
  if (ran_) throw std::logic_error("run() called twice");
  ensure_materialized();
  ran_ = true;
  if (opts_.routing == GridRouting::kGlobalPlan) {
    plan_.resize(pending_.size());
    plan_global_targets(grid_, jobs(), pending_.data(), pending_.size(),
                        plan_.data());
  }
  sort_route_order(jobs(), pending_, route_order_);
  route_cursor_ = 0;
  const bool coupled = server_ != nullptr && shards_.size() > 1;
  // Serial id layout with bags: bootstrap dispatches took ids 1..N at
  // materialization; the serial engine allocates its pump event id
  // next, BEFORE the volatility events — mirror that here so the churn
  // stream ids line up.
  if (coupled) arm_pump();
  // Volatility churn before any worker starts: per-cluster order-free
  // streams (grid_sim.h), scheduled on the owning shard's queue.
  for (std::size_t c = 0; c < clusters_.size(); ++c)
    schedule_cluster_volatility(*shards_[shard_of_[c]]->sim, *clusters_[c],
                                opts_.volatility, opts_.volatility_seed, c);
  if (shards_.size() == 1)
    run_single(horizon);
  else if (coupled)
    run_coupled(horizon);
  else
    run_static(horizon);
  // The serial clock ends on the globally last event; with every shard
  // drained that is the max over the shard clocks (each shard replays
  // its serial event subsequence, so per-shard finals match).
  Time end = 0.0;
  for (const auto& sh : shards_) end = std::max(end, sh->sim->now());
  return aggregate_grid_result(clusters_, end, migrations_, server_.get());
}

void ShardGridSim::run_single(Time horizon) {
  // One shard: the serial event order replayed inline on the calling
  // thread (no workers) — the degenerate case of every strategy.
  Simulator& sim = *shards_[0]->sim;
  const JobStore& js = jobs();
  while (route_cursor_ < route_order_.size()) {
    const Time t = effective_grid_release(
        js[pending_[route_order_[route_cursor_]].index].release);
    if (t > horizon) break;
    sim.run_until(t, kGridArrivalPriority);
    LGS_PROF_COUNT("grid.arrival_batches", 1);
    while (route_cursor_ < route_order_.size() &&
           effective_grid_release(
               js[pending_[route_order_[route_cursor_]].index].release) <= t)
      route_one(route_order_[route_cursor_++]);
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
  // participates as a virtual event: arm_pump() holds its (t, -2, id)
  // key; when it wins the merge, the coordinator pins every shard
  // clock to the batch instant and routes the batch inline, exactly
  // like the serial pump callback.
  //
  // The moment the campaign completes (completed() == total_runs())
  // the FIFO is silent FOREVER — nothing pending, nothing running, so
  // no future dispatch can pop a grant, no kill can resubmit, no
  // completion can land — and the remaining replay decomposes like a
  // bag-free run: hand off to the parallel strategy for the tail.
  const JobStore& js = jobs();
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
    const bool pump_best =
        pump_armed_ &&
        (best_shard < 0 || pump_t_ < bt ||
         (pump_t_ == bt && (kGridArrivalPriority < bp ||
                            (kGridArrivalPriority == bp && pump_id_ < bid))));
    if (best_shard < 0 && !pump_armed_) break;
    const Time next_t = pump_best ? pump_t_ : bt;
    if (next_t > horizon) break;
    if (pump_best) {
      // Everything ordered before the pump already ran, so run_until
      // executes nothing — it pins each shard clock to the batch
      // instant (exchange bids and submit records read now()).
      for (const auto& sh : shards_)
        sh->sim->run_until(pump_t_, kGridArrivalPriority);
      LGS_PROF_COUNT("grid.arrival_batches", 1);
      const Time t = pump_t_;
      pump_armed_ = false;
      while (route_cursor_ < route_order_.size() &&
             effective_grid_release(
                 js[pending_[route_order_[route_cursor_]].index].release) <= t)
        route_one(route_order_[route_cursor_++]);
      arm_pump();
    } else {
      shards_[static_cast<std::size_t>(best_shard)]->sim->step_one();
    }
  }
  if (!handoff) {
    // Horizon cut (or full drain): pin every clock, serial-style.
    for (const auto& sh : shards_) sh->sim->run(horizon);
    return;
  }
  pump_armed_ = false;
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
    const JobStore& js = jobs();
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
        HotJob h = js[a.job];
        h.release = 0.0;
        clusters_[a.cluster]->submit_local(h, js.tables());
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
    const JobStore& js = jobs();
    for (auto& sh : shards_) {
      sh->staging.clear();
      sh->staging.reserve(Shard::kArrivalBatch);
    }
    for (; route_cursor_ < route_order_.size(); ++route_cursor_) {
      const std::uint32_t idx = route_order_[route_cursor_];
      const Time t = effective_grid_release(js[pending_[idx].index].release);
      if (t > horizon) break;
      const std::size_t target =
          grid_route_target(clusters_, opts_, js, pending_.data(),
                            plan_.data(), idx, &migrations_);
      Shard& sh = *shards_[shard_of_[target]];
      sh.staging.push_back(Shard::Arrival{
          t, static_cast<std::uint32_t>(target), pending_[idx].index});
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
