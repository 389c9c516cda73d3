#include "sim/grid_sim.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/checkpoint.h"
#include "core/profiler.h"
#include "core/rng.h"
#include "grid/global.h"

namespace lgs {

const char* to_string(GridRouting r) {
  switch (r) {
    case GridRouting::kIsolated:
      return "isolated";
    case GridRouting::kThreshold:
      return "threshold";
    case GridRouting::kEconomic:
      return "economic";
    case GridRouting::kGlobalPlan:
      return "global-plan";
  }
  return "?";
}

ExchangePolicy to_exchange_policy(GridRouting r) {
  switch (r) {
    case GridRouting::kIsolated:
      return ExchangePolicy::kIsolated;
    case GridRouting::kThreshold:
      return ExchangePolicy::kThreshold;
    case GridRouting::kEconomic:
      return ExchangePolicy::kEconomic;
    case GridRouting::kGlobalPlan:
      break;
  }
  throw std::invalid_argument("global-plan has no exchange policy");
}

LightGrid make_skewed_grid(int n, int base_procs, double skew) {
  if (n < 1) throw std::invalid_argument("grid needs at least one cluster");
  if (base_procs < 1) throw std::invalid_argument("base_procs must be >= 1");
  if (skew < 1.0) throw std::invalid_argument("skew must be >= 1");
  static const Interconnect kNets[] = {Interconnect::kMyrinet,
                                       Interconnect::kGigabitEthernet,
                                       Interconnect::kFastEthernet};
  LightGrid g;
  g.name = "skewed-" + std::to_string(n) + "x" + std::to_string(base_procs);
  for (int i = 0; i < n; ++i) {
    const double frac = n > 1 ? static_cast<double>(i) / (n - 1) : 0.0;
    Cluster c;
    c.id = static_cast<ClusterId>(i);
    c.name = "cluster-" + std::to_string(i);
    c.nodes = std::max(
        1, static_cast<int>(std::lround(base_procs * std::pow(skew, -frac))));
    c.cpus_per_node = 1;
    c.speed = std::pow(skew, frac / 2.0);
    c.net = kNets[i % 3];
    c.owner_community = i % 4;
    g.clusters.push_back(std::move(c));
  }
  return g;
}

std::vector<JobSet> split_by_community(JobSet jobs, std::size_t n) {
  if (n == 0) throw std::invalid_argument("cannot split across 0 clusters");
  std::vector<JobSet> out(n);
  for (Job& j : jobs) {
    const std::size_t home =
        static_cast<std::size_t>(j.community < 0 ? 0 : j.community) % n;
    out[home].push_back(std::move(j));
  }
  return out;
}

GridSim::GridSim(const LightGrid& grid, const GridSimOptions& opts,
                 Arena* arena)
    : grid_(grid),
      opts_(opts),
      arena_(arena != nullptr ? *arena : owned_arena_),
      sim_(ArenaRef(arena_)),
      arrivals_(grid_.clusters.size(), ArenaRef(arena_)) {
  if (grid_.clusters.empty())
    throw std::invalid_argument("grid without clusters");
  for (const Cluster& c : grid_.clusters)
    clusters_.push_back(std::make_unique<OnlineCluster>(
        sim_, c, opts_.cluster, ArenaRef(arena_)));
  if (!opts_.bags.empty()) {
    server_ = std::make_unique<CentralServer>(opts_.bags);
    for (auto& c : clusters_)
      c->set_besteffort_source(server_->make_source());
  }
}

std::vector<std::size_t> group_pending_by_home(const JobStore& store,
                                               std::size_t n,
                                               ArenaVec<GridPending>& pending) {
  std::vector<std::size_t> offset(n + 1, 0);
  const auto home_of = [n](const HotJob& h) {
    return static_cast<std::size_t>(h.community < 0 ? 0 : h.community) % n;
  };
  for (std::size_t i = 0; i < store.size(); ++i) ++offset[home_of(store[i]) + 1];
  std::vector<std::size_t> counts(offset.begin() + 1, offset.end());
  for (std::size_t c = 0; c < n; ++c) offset[c + 1] += offset[c];
  pending.resize(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const std::size_t home = home_of(store[i]);
    pending[offset[home]++] = GridPending{static_cast<std::uint32_t>(home),
                                          static_cast<std::uint32_t>(i)};
  }
  return counts;
}

void schedule_cluster_volatility(Simulator& sim, OnlineCluster& cl,
                                 const VolatilityProfile& vol,
                                 std::uint64_t seed,
                                 std::size_t cluster_index,
                                 std::vector<GridCapacityEvent>* out) {
  if (vol.events <= 0 || vol.window <= 0.0) return;
  // One independent stream per cluster, keyed on the cluster index —
  // adding a cluster (or moving this one to another shard) never
  // perturbs the churn of the others.
  Rng rng(mix_seed(seed, cluster_index));
  OnlineCluster* target = &cl;
  const int total = cl.processors();
  const int floor =
      std::max(1, static_cast<int>(std::ceil(vol.floor_fraction * total)));
  struct Outage {
    Time down, up;
    int cap;
  };
  std::vector<Outage> outages;
  outages.reserve(static_cast<std::size_t>(vol.events));
  std::vector<Time> boundaries;
  for (int e = 0; e < vol.events; ++e) {
    Outage o;
    o.down = rng.uniform(0.0, vol.window);
    o.cap = static_cast<int>(rng.uniform_int(std::min(floor, total), total));
    o.up = o.down + rng.uniform(vol.outage_min, vol.outage_max);
    boundaries.push_back(o.down);
    boundaries.push_back(o.up);
    outages.push_back(o);
  }
  // Outages may overlap; the usable capacity at any instant is the
  // minimum over the active ones (a restore must not cancel another
  // outage still in progress).  Walk the boundary times and emit one
  // set_capacity per actual level change.
  std::sort(boundaries.begin(), boundaries.end());
  int prev = total;
  for (const Time t : boundaries) {
    int cap = total;
    for (const Outage& o : outages)
      if (o.down <= t && t < o.up) cap = std::min(cap, o.cap);
    if (cap == prev) continue;
    prev = cap;
    const EventId id = sim.at(t, [target, cap] { target->set_capacity(cap); });
    if (out != nullptr)
      out->push_back(GridCapacityEvent{
          t, id, static_cast<std::uint32_t>(cluster_index), cap});
  }
}

void GridSim::schedule_volatility() {
  for (std::size_t c = 0; c < clusters_.size(); ++c)
    schedule_cluster_volatility(sim_, *clusters_[c], opts_.volatility,
                                opts_.volatility_seed, c, &capacity_events_);
}

void GridArrivalPump::arm() {
  if (!pending()) return;
  const Time next =
      routed_ ? arrivals_.release(next_->row) : arrivals_.next_release();
  time_ = std::max(sim_.now(), next);
  event_ = sim_.at(time_, [this] { fire(); }, kGridArrivalPriority);
  armed_ = true;
}

void GridArrivalPump::admit(Time due) {
  if (armed_) {
    if (due >= time_) return;
    sim_.cancel(event_);
    armed_ = false;
  }
  arm();
}

void GridArrivalPump::restore(Time t, EventId id) {
  time_ = t;
  event_ = id;
  if (!pending()) return;
  sim_.restore_event(t, kGridArrivalPriority, id, [this] { fire(); });
  armed_ = true;
}

void GridArrivalPump::fire() {
  LGS_PROF_ZONE("grid.arrival_pump");
  LGS_PROF_COUNT("grid.arrival_batches", 1);
  armed_ = false;
  const Time now = sim_.now();
  if (!routed_) {
    arrivals_.route_due(now, clusters_, opts_);
  } else {
    for (; next_ != last_ && arrivals_.release(next_->row) <= now; ++next_)
      arrivals_.deliver(next_->row, *clusters_[next_->cluster]);
  }
  arm();
}

void sort_route_order(const JobStore& jobs,
                      const ArenaVec<GridPending>& pending,
                      ArenaVec<std::uint32_t>& order) {
  // Gather the keys first: each comparison then reads one contiguous
  // array instead of chasing pending entry -> store row (the serial
  // prefix of every replay; about 4x faster at a million jobs).
  std::vector<Time> release(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i)
    release[i] = effective_grid_release(jobs[pending[i].index].release);
  order.resize(pending.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&release](std::uint32_t a, std::uint32_t b) {
                     return release[a] < release[b];
                   });
}

namespace {

/// kGlobalPlan prelude: place every registered submission with the
/// heterogeneous ECT list scheduler of grid/global and write the target
/// cluster index of pending[i] to targets[i].
void plan_global_targets(const LightGrid& grid, const JobStore& jobs,
                         const GridPending* pending, std::size_t n,
                         std::uint32_t* targets) {
  // The planner consumes the fat offline interface — materialize Jobs
  // for it (global-plan only; the decentralized routings stay hot).
  JobSet combined;
  combined.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Job j = jobs.job(pending[i].index);
    j.id = static_cast<JobId>(i);  // plan ids = pending indices
    combined.push_back(std::move(j));
  }
  const GlobalSchedule plan = global_ect_schedule(grid, combined);
  const auto cluster_index = [&grid](ClusterId id) {
    for (std::size_t c = 0; c < grid.clusters.size(); ++c)
      if (grid.clusters[c].id == id) return c;
    throw std::logic_error("global plan placed a job on an unknown cluster");
  };
  for (std::size_t i = 0; i < n; ++i) {
    const GlobalAssignment* a = plan.find(static_cast<JobId>(i));
    targets[i] = static_cast<std::uint32_t>(
        a != nullptr ? cluster_index(a->cluster) : pending[i].home);
  }
}

/// The routing rule of both engines, applied to pending[i] at its
/// arrival instant (see GridArrivals::route_next; `plan` is only read
/// under global-plan routing).  Counts the route in the profiler and a
/// migration in `*migrations` when the target is not the home cluster.
std::size_t grid_route_target(
    const std::vector<std::unique_ptr<OnlineCluster>>& clusters,
    const GridSimOptions& opts, const JobStore& jobs,
    const GridPending* pending, const std::uint32_t* plan, std::size_t i,
    long* migrations) {
  LGS_PROF_COUNT("grid.routes", 1);
  const GridPending& p = pending[i];
  std::size_t target = p.home;
  switch (opts.routing) {
    case GridRouting::kIsolated:
      break;
    case GridRouting::kThreshold:
    case GridRouting::kEconomic: {
      ExchangeOptions ex;
      ex.policy = to_exchange_policy(opts.routing);
      ex.wait_threshold = opts.wait_threshold;
      ex.migration_penalty = opts.migration_penalty;
      // The exchange policies consume the fat interface: materialize a
      // transient Job (identical field values — from_ref rebuilds the
      // exact model) for the bidding round only.
      Job j = jobs.job(p.index);
      j.release = 0.0;
      LGS_PROF_COUNT("grid.exchange_bids", 1);
      target = exchange_target(clusters, p.home, j, ex);
      break;
    }
    case GridRouting::kGlobalPlan:
      target = plan[i];
      break;
  }
  // Width fallback: a cluster too small for the job hands it to the
  // first cluster wide enough.
  const int min_procs = jobs[p.index].min_procs;
  if (min_procs > clusters[target]->processors()) {
    std::size_t c = 0;
    while (c < clusters.size() && min_procs > clusters[c]->processors()) ++c;
    if (c == clusters.size())
      throw std::invalid_argument("job wider than every cluster in the grid");
    target = c;
  }
  if (target != p.home) {
    ++*migrations;
    LGS_PROF_COUNT("grid.migrations", 1);
  }
  return target;
}

}  // namespace

GridArrivals::GridArrivals(std::size_t clusters, ArenaRef arena)
    : clusters_(clusters),
      store_(arena),
      pending_(ArenaAllocator<GridPending>(arena)),
      plan_(ArenaAllocator<std::uint32_t>(arena)),
      order_(ArenaAllocator<std::uint32_t>(arena)),
      home_counts_(clusters, 0) {}

void GridArrivals::submit(std::size_t home, const Job& j) {
  if (prepared_) throw std::logic_error("submit after run()");
  if (borrowed_ != nullptr)
    throw std::logic_error("cannot mix submit() with submit_store()");
  if (home >= clusters_)
    throw std::invalid_argument("home cluster out of range");
  store_.append(j);
  pending_.push_back(
      GridPending{static_cast<std::uint32_t>(home),
                  static_cast<std::uint32_t>(store_.size() - 1)});
  ++home_counts_[home];
}

void GridArrivals::submit_workloads(const std::vector<JobSet>& per_cluster) {
  if (per_cluster.size() > clusters_)
    throw std::invalid_argument("more workloads than clusters");
  std::size_t total = 0;
  for (const JobSet& jobs : per_cluster) total += jobs.size();
  pending_.reserve(pending_.size() + total);
  store_.reserve(store_.size() + total);
  for (std::size_t i = 0; i < per_cluster.size(); ++i)
    for (const Job& j : per_cluster[i]) submit(i, j);
}

void GridArrivals::submit_store(const JobStore& store) {
  if (prepared_) throw std::logic_error("submit after run()");
  if (!empty())
    throw std::logic_error("cannot mix submit_store() with prior submissions");
  borrowed_ = &store;
  home_counts_ = group_pending_by_home(store, clusters_, pending_);
}

Time GridArrivals::ingest(const HotJob& h, const TablePool& tables,
                          std::size_t home, Time now) {
  if (home >= clusters_)
    throw std::invalid_argument("home cluster out of range");
  HotJob local = h;
  if (local.exec_kind == ExecKind::kTable)
    local.exec_c = store_.mutable_tables().intern(tables.data(h.exec_c),
                                                  tables.len(h.exec_c));
  store_.append_raw(local);
  const auto index = static_cast<std::uint32_t>(pending_.size());
  pending_.push_back(
      GridPending{static_cast<std::uint32_t>(home),
                  static_cast<std::uint32_t>(store_.size() - 1)});
  ++home_counts_[home];
  // Every unrouted row is due at max(now, release) — nothing due
  // earlier is left unrouted at a quiescent point — so the tail stays
  // sorted under that key and the new row goes behind its equals.
  const auto due = [this, now](std::uint32_t i) {
    return std::max(now,
                    effective_grid_release(store_[pending_[i].index].release));
  };
  const Time t = std::max(now, effective_grid_release(local.release));
  auto pos = order_.end();
  if (pending() && t < due(order_.back()))
    pos = std::upper_bound(
        order_.begin() + static_cast<std::ptrdiff_t>(cursor_), order_.end(),
        t, [&due](Time v, std::uint32_t i) { return v < due(i); });
  order_.insert(pos, index);
  return t;
}

void GridArrivals::prepare(const LightGrid& grid, GridRouting routing,
                           const Clusters& clusters) {
  if (prepared_) throw std::logic_error("arrivals prepared twice");
  prepared_ = true;
  // Omniscient baseline: place every submission with the heterogeneous
  // ECT list scheduler of grid/global, then follow that plan online.
  if (routing == GridRouting::kGlobalPlan) {
    plan_.resize(pending_.size());
    plan_global_targets(grid, jobs(), pending_.data(), pending_.size(),
                        plan_.data());
  }
  sort_route_order(jobs(), pending_, order_);
  // Routing may migrate jobs elsewhere, but the home counts are the
  // right order of magnitude to pre-size each cluster's bookkeeping.
  for (std::size_t c = 0; c < clusters.size(); ++c)
    clusters[c]->reserve_submissions(home_counts_[c]);
}

std::size_t GridArrivals::route_next(const Clusters& clusters,
                                     const GridSimOptions& opts,
                                     std::uint32_t* row) {
  const std::uint32_t i = order_[cursor_++];
  *row = pending_[i].index;
  return grid_route_target(clusters, opts, jobs(), pending_.data(),
                           plan_.data(), i, &migrations_);
}

void GridArrivals::route_due(Time now, const Clusters& clusters,
                             const GridSimOptions& opts) {
  while (pending() && next_release() <= now) {
    std::uint32_t row = 0;
    const std::size_t target = route_next(clusters, opts, &row);
    deliver(row, *clusters[target]);
  }
}

void GridArrivals::deliver(std::uint32_t row, OnlineCluster& cluster) const {
  // Hot 64-byte hand-off, release overridden to "now" (routing runs at
  // the release instant) — no fat Job on the replay path.
  HotJob h = jobs()[row];
  h.release = 0.0;
  cluster.submit_local(h, jobs().tables());
}

void GridArrivals::save(CheckpointWriter& w) const {
  save_job_store(w, jobs());
  w.u64(pending_.size());
  for (const GridPending& p : pending_) {
    w.u32(p.home);
    w.u32(p.index);
  }
  w.u64(plan_.size());
  for (const std::uint32_t t : plan_) w.u32(t);
  // Only the unrouted tail: the routed prefix is never read again.
  w.u64(order_.size() - cursor_);
  for (std::size_t i = cursor_; i < order_.size(); ++i) w.u32(order_[i]);
  w.i64(migrations_);
}

void GridArrivals::load(CheckpointReader& r, GridRouting routing) {
  if (prepared_ || !empty())
    throw std::logic_error("arrival restore needs an empty front-end");
  prepared_ = true;
  load_job_store(r, store_);
  const std::uint64_t n_pending = r.count(8);
  pending_.reserve(n_pending);
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    const std::uint32_t home = r.u32();
    const std::uint32_t index = r.u32();
    if (home >= clusters_ || index >= store_.size())
      throw CheckpointError("pending table entry out of range");
    pending_.push_back(GridPending{home, index});
    ++home_counts_[home];
  }
  const std::uint64_t n_plan = r.count(4);
  if (n_plan != (routing == GridRouting::kGlobalPlan ? n_pending : 0))
    throw CheckpointError("global plan does not match the pending table");
  plan_.reserve(n_plan);
  for (std::uint64_t i = 0; i < n_plan; ++i) {
    plan_.push_back(r.u32());
    if (plan_.back() >= clusters_)
      throw CheckpointError("global plan targets an unknown cluster");
  }
  const std::uint64_t n_tail = r.count(4);
  order_.reserve(n_tail);
  for (std::uint64_t i = 0; i < n_tail; ++i) {
    order_.push_back(r.u32());
    if (order_.back() >= n_pending)
      throw CheckpointError("release order references unknown pending entry");
  }
  cursor_ = 0;
  migrations_ = static_cast<long>(r.i64());
}

void GridSim::prepare_run() {
  if (ran_) throw std::logic_error("run() called twice");
  if (streaming_) throw std::logic_error("run() on a streaming engine");
  ran_ = true;
  arrivals_.prepare(grid_, opts_.routing, clusters_);
  pump_.arm();
  schedule_volatility();
}

GridSimResult GridSim::run(Time horizon) {
  LGS_PROF_ZONE("grid.run");
  prepare_run();
  sim_.run(horizon);
  return aggregate_grid_result(clusters_, sim_.now(),
                               arrivals_.migrations(), server_.get());
}

void GridSim::run_to(Time t) {
  LGS_PROF_ZONE("grid.run");
  prepare_run();
  // INT_MIN boundary: every event strictly before `t` executes, events
  // AT `t` (any priority) stay pending — a quiescent point between
  // instants, where checkpoint() is exact.
  sim_.run_until(t, INT_MIN);
}

GridSimResult GridSim::resume(Time horizon) {
  LGS_PROF_ZONE("grid.run");
  if (!ran_ || streaming_)
    throw std::logic_error("resume() needs a run_to()/restored batch replay");
  sim_.run(horizon);
  return aggregate_grid_result(clusters_, sim_.now(),
                               arrivals_.migrations(), server_.get());
}

// ---------------------------------------------------------------------------
// Streaming service mode.
// ---------------------------------------------------------------------------

void GridSim::begin_streaming() {
  if (ran_) throw std::logic_error("begin_streaming() after run()");
  if (streaming_) throw std::logic_error("begin_streaming() called twice");
  if (!arrivals_.empty())
    throw std::logic_error("begin_streaming() after batch submissions");
  if (opts_.routing == GridRouting::kGlobalPlan)
    throw std::invalid_argument(
        "global-plan routing needs the whole trace up front and cannot "
        "stream");
  streaming_ = true;
  arrivals_.prepare(grid_, opts_.routing, clusters_);
  schedule_volatility();
}

void GridSim::ingest(const HotJob& h, const TablePool& tables,
                     std::size_t home) {
  if (!streaming_) throw std::logic_error("ingest() before begin_streaming()");
  LGS_PROF_COUNT("grid.stream_ingests", 1);
  // The batch pump serves the stream too: it is in flight exactly while
  // rows wait unrouted, and a row due before its instant re-arms it.
  pump_.admit(arrivals_.ingest(h, tables, home, sim_.now()));
}

void GridSim::advance_to(Time t) {
  if (!streaming_)
    throw std::logic_error("advance_to() before begin_streaming()");
  // Stop at (t, arrival-priority): completions and churn strictly before
  // `t` execute, but a pump firing AT `t` stays pending — jobs with
  // release == t ingested after this call still route ahead of
  // same-instant completions, exactly like the batch pump's position in
  // the tie-break order.
  sim_.run_until(t, kGridArrivalPriority);
}

GridSimResult GridSim::finish_streaming(Time horizon) {
  if (!streaming_)
    throw std::logic_error("finish_streaming() before begin_streaming()");
  LGS_PROF_ZONE("grid.run");
  sim_.run(horizon);
  return aggregate_grid_result(clusters_, sim_.now(),
                               arrivals_.migrations(), server_.get());
}

// ---------------------------------------------------------------------------
// Checkpoint/restore.
// ---------------------------------------------------------------------------

std::uint64_t GridSim::config_digest() const {
  // Everything that shapes the replay must match between the
  // snapshotting and the restoring engine; the digest is the cheap
  // whole-config equality proxy embedded in every snapshot.
  CheckpointWriter w;
  w.u64(grid_.clusters.size());
  for (const Cluster& c : grid_.clusters) {
    w.i32(c.id);
    w.i32(c.nodes);
    w.i32(c.cpus_per_node);
    w.f64(c.speed);
    w.i32(c.owner_community);
  }
  w.u8(static_cast<std::uint8_t>(opts_.routing));
  w.f64(opts_.wait_threshold);
  w.f64(opts_.migration_penalty);
  w.str(opts_.cluster.policy);
  w.u8(static_cast<std::uint8_t>(opts_.cluster.kill_policy));
  w.u64(opts_.bags.size());
  for (const ParametricBag& bag : opts_.bags) {
    w.i32(bag.runs);
    w.f64(bag.run_time);
  }
  w.i32(opts_.volatility.events);
  w.f64(opts_.volatility.window);
  w.f64(opts_.volatility.floor_fraction);
  w.f64(opts_.volatility.outage_min);
  w.f64(opts_.volatility.outage_max);
  w.u64(opts_.volatility_seed);
  const std::vector<unsigned char> buf = w.finish();
  return checkpoint_fnv1a(kCheckpointFnvBasis, buf.data(), buf.size());
}

std::vector<unsigned char> GridSim::checkpoint() const {
  LGS_PROF_ZONE("grid.checkpoint");
  if (!ran_ && !streaming_)
    throw std::logic_error("checkpoint() before run_to()/begin_streaming()");

  // Account for the ENTIRE pending-event set before writing anything: a
  // pending event this engine cannot re-create would silently change
  // the resumed replay, which is exactly what bit-identity forbids.
  std::unordered_set<EventId> pending;
  for (const Simulator::PendingEvent& e : sim_.pending_events())
    pending.insert(e.id);
  std::vector<EventId> expected;
  expected.reserve(pending.size());
  for (const auto& c : clusters_) c->append_expected_event_ids(pending, expected);
  const bool pump_pending =
      pump_.event() != 0 && pending.count(pump_.event()) != 0;
  if (pump_pending != arrivals_.pending())
    throw CheckpointError("arrival pump out of step with the unrouted tail");
  if (pump_pending) expected.push_back(pump_.event());
  for (const GridCapacityEvent& e : capacity_events_)
    if (pending.count(e.id) != 0) expected.push_back(e.id);
  std::sort(expected.begin(), expected.end());
  if (std::adjacent_find(expected.begin(), expected.end()) != expected.end())
    throw CheckpointError("duplicate pending event id in the accounting");
  if (expected.size() != pending.size())
    throw CheckpointError(
        "snapshot cannot account for every pending event (" +
        std::to_string(pending.size()) + " pending, " +
        std::to_string(expected.size()) + " accounted)");
  for (const EventId id : expected)
    if (pending.count(id) == 0)
      throw CheckpointError("engine expects an event that is not pending");

  CheckpointWriter w;
  w.str("gridsim");
  w.u64(config_digest());
  w.u8(streaming_ ? 1 : 0);
  w.u8(ran_ ? 1 : 0);
  w.f64(sim_.now());
  w.u64(sim_.next_event_id());
  w.u64(sim_.executed());

  // The active trace (borrowed or owned) is serialized wholesale either
  // way; restore always lands it in the engine-owned store.
  arrivals_.save(w);
  w.u64(pump_.event());
  w.f64(pump_.time());

  std::uint64_t live_vol = 0;
  for (const GridCapacityEvent& e : capacity_events_)
    if (pending.count(e.id) != 0) ++live_vol;
  w.u64(live_vol);
  for (const GridCapacityEvent& e : capacity_events_)
    if (pending.count(e.id) != 0) {
      w.f64(e.t);
      w.u64(e.id);
      w.u32(e.cluster);
      w.i32(e.cap);
    }

  w.u8(server_ != nullptr ? 1 : 0);
  if (server_ != nullptr) server_->save_checkpoint(w);

  for (const auto& c : clusters_) c->save_checkpoint(w, pending);
  return w.finish();
}

void GridSim::restore(const std::vector<unsigned char>& blob) {
  LGS_PROF_ZONE("grid.restore");
  if (ran_ || streaming_ || !arrivals_.empty())
    throw std::logic_error("restore() needs a freshly constructed engine");

  CheckpointReader r(blob);
  if (r.str() != "gridsim")
    throw CheckpointError("snapshot was written by a different engine");
  if (r.u64() != config_digest())
    throw CheckpointError(
        "snapshot config digest mismatch (different grid or options)");
  streaming_ = r.u8() != 0;
  ran_ = r.u8() != 0;
  const Time now = r.f64();
  const EventId next_id = r.u64();
  const std::uint64_t executed = r.u64();

  // Drop the fresh-construction events (the best-effort bootstraps) and
  // pin clock + id cursor; every pending event is re-created below under
  // its original id.
  sim_.reset_for_restore(now, next_id, executed);

  // The kernel rejects an event key no uninterrupted run could have left
  // pending (a time before the clock, an id outside [1, next_id)) with
  // std::invalid_argument; from a blob that is a malformed snapshot.
  try {
    arrivals_.load(r, opts_.routing);
    const EventId pump_id = r.u64();
    pump_.restore(r.f64(), pump_id);

    capacity_events_.clear();
    const std::uint64_t n_vol = r.count(24);
    capacity_events_.reserve(n_vol);
    for (std::uint64_t i = 0; i < n_vol; ++i) {
      GridCapacityEvent e;
      e.t = r.f64();
      e.id = r.u64();
      e.cluster = r.u32();
      e.cap = r.i32();
      if (e.cluster >= clusters_.size())
        throw CheckpointError("volatility event references unknown cluster");
      capacity_events_.push_back(e);
      OnlineCluster* target = clusters_[e.cluster].get();
      const int cap = e.cap;
      sim_.restore_event(e.t, /*priority=*/0, e.id,
                         [target, cap] { target->set_capacity(cap); });
    }

    const bool has_server = r.u8() != 0;
    if (has_server != (server_ != nullptr))
      throw CheckpointError("snapshot/engine disagree on the central server");
    if (server_ != nullptr) server_->restore_checkpoint(r);

    for (auto& c : clusters_) c->restore_checkpoint(r);
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(e.what());
  }
  if (!r.exhausted())
    throw CheckpointError("trailing bytes after the last engine section");
}

GridSimResult aggregate_grid_result(
    const std::vector<std::unique_ptr<OnlineCluster>>& clusters, Time horizon,
    long migrations, const CentralServer* server) {
  GridSimResult res;
  res.horizon = horizon;
  res.migrations = migrations;
  if (server != nullptr) {
    res.grid_runs_total = server->total_runs();
    res.grid_runs_completed = server->completed();
    res.grid_resubmissions = server->resubmissions();
  }

  double busy = 0.0, capacity = 0.0;
  double flow_sum = 0.0, wait_sum = 0.0, slow_sum = 0.0;
  long jobs_total = 0;
  // Communities are a handful of small ids: a flat vector with a linear
  // probe beats a node-based map across millions of records.
  std::vector<CommunityOutcome> by_community;
  const auto community_slot = [&by_community](int id) -> CommunityOutcome& {
    for (CommunityOutcome& com : by_community)
      if (com.community == id) return com;
    by_community.emplace_back();
    by_community.back().community = id;
    return by_community.back();
  };
  res.clusters.reserve(clusters.size());
  for (const auto& c : clusters) {
    GridClusterOutcome out;
    out.id = c->id();
    out.processors = c->processors();
    out.local_jobs = static_cast<long>(c->local_records().size());
    out.be = c->besteffort_stats();
    out.volatility = c->volatility_stats();
    double wait = 0.0, slow = 0.0;
    for (const LocalJobRecord& r : c->local_records()) {
      wait += r.wait();
      slow += r.slowdown();
      CommunityOutcome& com = community_slot(r.community);
      ++com.jobs;
      com.mean_wait += r.wait();
      com.mean_slowdown += r.slowdown();
      com.mean_flow += r.flow();
      flow_sum += r.flow();
      wait_sum += r.wait();
      slow_sum += r.slowdown();
      ++jobs_total;
    }
    const double n = std::max<double>(1.0, out.local_jobs);
    out.local_mean_wait = wait / n;
    out.local_mean_slowdown = slow / n;
    const double denom = c->processors() * std::max(res.horizon, kTimeEps);
    out.utilization_local = c->local_busy_integral() / denom;
    out.utilization_total = c->busy_integral() / denom;
    busy += c->busy_integral();
    capacity += static_cast<double>(c->processors()) * res.horizon;
    res.clusters.push_back(std::move(out));
  }
  // Ascending community id, as the map-based aggregation reported.
  std::sort(by_community.begin(), by_community.end(),
            [](const CommunityOutcome& a, const CommunityOutcome& b) {
              return a.community < b.community;
            });
  for (CommunityOutcome& com : by_community) {
    com.mean_wait /= std::max(1, com.jobs);
    com.mean_slowdown /= std::max(1, com.jobs);
    com.mean_flow /= std::max(1, com.jobs);
  }
  res.communities = std::move(by_community);
  res.jobs_completed = jobs_total;
  res.global_utilization = capacity > 0 ? busy / capacity : 0.0;
  res.mean_flow = jobs_total > 0 ? flow_sum / jobs_total : 0.0;
  res.mean_wait = jobs_total > 0 ? wait_sum / jobs_total : 0.0;
  res.mean_slowdown = jobs_total > 0 ? slow_sum / jobs_total : 0.0;
  return res;
}

std::vector<std::string> validate_grid_result(const GridSim& sim,
                                              const GridSimResult& result) {
  return validate_grid_clusters(sim.clusters(), result);
}

std::vector<std::string> validate_grid_clusters(
    const std::vector<std::unique_ptr<OnlineCluster>>& clusters,
    const GridSimResult& result) {
  std::vector<std::string> violations;
  const auto flag = [&](const std::string& what) {
    violations.push_back(what);
  };
  long records_total = 0;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const OnlineCluster& c = *clusters[i];
    const std::string tag = "cluster " + std::to_string(i) + ": ";
    if (c.queued_jobs() != 0)
      flag(tag + std::to_string(c.queued_jobs()) + " jobs still queued");
    if (c.running_local_jobs() != 0)
      flag(tag + std::to_string(c.running_local_jobs()) +
           " local jobs still running");
    if (c.running_besteffort_jobs() != 0)
      flag(tag + std::to_string(c.running_besteffort_jobs()) +
           " best-effort runs still running");
    for (const LocalJobRecord& r : c.local_records()) {
      if (r.start + kTimeEps < r.submit)
        flag(tag + "job " + std::to_string(r.id) + " started before submit");
      if (r.finish + kTimeEps < r.start)
        flag(tag + "job " + std::to_string(r.id) + " finished before start");
      if (r.finish > result.horizon + kTimeEps)
        flag(tag + "job " + std::to_string(r.id) + " finished past horizon");
    }
    records_total += static_cast<long>(c.local_records().size());
    const BestEffortStats& be = c.besteffort_stats();
    if (be.started != be.completed + be.killed)
      flag(tag + "best-effort accounting leak (started != done + killed)");
  }
  for (const GridClusterOutcome& out : result.clusters) {
    if (out.utilization_total > 1.0 + 1e-6)
      flag("cluster " + std::to_string(out.id) + ": utilization " +
           std::to_string(out.utilization_total) + " > 1");
    if (out.utilization_local > out.utilization_total + 1e-6)
      flag("cluster " + std::to_string(out.id) +
           ": local utilization above total");
  }
  if (records_total != result.jobs_completed)
    flag("record count does not match jobs_completed");
  if (result.grid_runs_completed != result.grid_runs_total)
    flag("grid campaign incomplete: " +
         std::to_string(result.grid_runs_completed) + "/" +
         std::to_string(result.grid_runs_total) + " runs");
  return violations;
}

}  // namespace lgs
