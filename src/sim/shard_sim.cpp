#include "sim/shard_sim.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/profiler.h"

namespace lgs {

/// One worker shard: a simulator on the shard's arena, the arrival pump
/// that feeds it, and the arrivals routed to its clusters at run()
/// (multi-shard only).  `error` carries a worker exception across the
/// join.
struct ShardGridSim::Shard {
  Shard(Arena* engine_arena, GridArrivals& arrivals,
        const GridArrivals::Clusters& clusters, const GridSimOptions& opts)
      : arena(engine_arena != nullptr ? *engine_arena : own_arena),
        sim(ArenaRef(arena)),
        pump(sim, arrivals, clusters, opts),
        routes(ArenaAllocator<GridRoute>(ArenaRef(arena))) {}

  Arena own_arena;  ///< unused (empty) on shard 0, which uses the engine's
  Arena& arena;
  Simulator sim;
  GridArrivalPump pump;
  ArenaVec<GridRoute> routes;
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
  // Exchange bids read every cluster at every arrival instant, and the
  // central server's grant FIFO follows the serial interleaving of
  // dispatches across clusters: under either, no partition of the
  // clusters can advance independently, so the replay runs on one shard
  // (GridSim's replay).
  const bool coupled = opts_.routing == GridRouting::kThreshold ||
                       opts_.routing == GridRouting::kEconomic ||
                       !opts_.bags.empty();
  const std::size_t n_shards =
      coupled ? 1 : std::min(want, grid_.clusters.size());
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s)
    shards_.push_back(std::make_unique<Shard>(s == 0 ? &arena_ : nullptr,
                                              arrivals_, clusters_, opts_));
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
  clusters_.reserve(grid_.clusters.size());
  for (std::size_t i = 0; i < grid_.clusters.size(); ++i) {
    Shard& sh = *shards_[shard_of_[i]];
    clusters_.push_back(std::make_unique<OnlineCluster>(
        sh.sim, grid_.clusters[i], opts_.cluster, ArenaRef(sh.arena)));
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
  for (const auto& sh : shards_) total += sh->sim.executed();
  return total;
}

std::size_t ShardGridSim::arena_peak_bytes() const {
  std::size_t total = arena_.stats().bytes_peak;
  for (const auto& sh : shards_) total += sh->own_arena.stats().bytes_peak;
  return total;
}

GridSimResult ShardGridSim::run(Time horizon) {
  LGS_PROF_ZONE("grid.run");
  if (ran_) throw std::logic_error("run() called twice");
  ensure_materialized();
  ran_ = true;
  arrivals_.prepare(grid_, opts_.routing, clusters_);
  // One shard routes as its pump fires, exactly like GridSim.
  if (shards_.size() > 1) route_ahead(horizon);
  for (auto& sh : shards_) sh->pump.arm();
  // Per-cluster order-free churn streams (grid_sim.h), scheduled on the
  // owning shard's queue.
  for (std::size_t c = 0; c < clusters_.size(); ++c)
    schedule_cluster_volatility(shards_[shard_of_[c]]->sim, *clusters_[c],
                                opts_.volatility, opts_.volatility_seed, c);

  const auto drain = [horizon](Shard& sh) {
    try {
      LGS_PROF_ZONE("grid.shard_run");
      sh.sim.run(horizon);
    } catch (...) {
      sh.error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(shards_.size() - 1);
  try {
    for (std::size_t s = 1; s < shards_.size(); ++s)
      pool.emplace_back(drain, std::ref(*shards_[s]));
  } catch (...) {
    // A thread that failed to start: join the started ones first (a
    // joinable std::thread must never be destroyed).
    for (auto& th : pool) th.join();
    throw;
  }
  drain(*shards_[0]);
  for (auto& th : pool) th.join();
  for (const auto& sh : shards_)
    if (sh->error) std::rethrow_exception(sh->error);

  // The serial clock ends on the globally last event; with every shard
  // drained that is the max over the shard clocks (each shard replays
  // its serial event subsequence, so per-shard finals match).
  Time end = 0.0;
  for (const auto& sh : shards_) end = std::max(end, sh->sim.now());
  return aggregate_grid_result(clusters_, end, arrivals_.migrations(),
                               server_.get());
}

void ShardGridSim::route_ahead(Time horizon) {
  // Static routing (isolated / global-plan): every target is known
  // before the clock starts, so each arrival is routed once, here, in
  // global release order — each shard's list stays in release order.
  std::vector<std::size_t> expected(shards_.size(), 0);
  for (std::size_t c = 0; c < clusters_.size(); ++c)
    expected[shard_of_[c]] += arrivals_.home_counts()[c];
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s]->routes.reserve(expected[s]);
  while (arrivals_.pending() && arrivals_.next_release() <= horizon) {
    std::uint32_t row = 0;
    const std::size_t target = arrivals_.route_next(clusters_, opts_, &row);
    shards_[shard_of_[target]]->routes.push_back(
        GridRoute{static_cast<std::uint32_t>(target), row});
  }
  for (auto& sh : shards_)
    sh->pump.feed(sh->routes.data(), sh->routes.data() + sh->routes.size());
}

std::vector<std::string> validate_grid_result(const ShardGridSim& sim,
                                              const GridSimResult& result) {
  return validate_grid_clusters(sim.clusters(), result);
}

}  // namespace lgs
