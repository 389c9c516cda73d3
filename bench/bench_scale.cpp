// BENCH_scale — million-job replay throughput of the dynamic engines.
//
// Generates a large synthetic SWF-like trace (workload::make_large_trace,
// Lublin-style bursty arrivals) and replays it online twice per size:
// once through a single OnlineCluster the width of the whole machine
// pool, and once through a 16-cluster GridSim splitting the trace by
// community.  Each phase reports wall time, simulator events/sec and
// jobs/sec; each size reports the process peak RSS plus the replay
// arena's allocator introspection (bytes reserved/peak, block counts)
// and the job store's hot/cold slab footprint.  Every replay is
// validated (nothing left queued/running, record counts match) and the
// binary exits non-zero on any violation, so CI can gate on it.
//
// Memory discipline: the trace is built once into a JobStore (64-byte
// hot rows, no per-job heap), each replay draws every allocation from
// ONE Arena that is reset (blocks kept) between repetitions, and the
// grid phase borrows the store via submit_store — zero job copies on
// the replay path.
//
// The consolidated JSON is the perf-trajectory artifact: CI runs
// `bench_scale --quick --json BENCH_scale.json` and compares the
// throughput numbers against bench/baselines/BENCH_scale.json with
// bench/compare_bench.py (fail on >25% events/sec regression).
//
// Every phase is measured best-of-N (--repeat, default 3): the replay
// is deterministic, so the fastest repetition is the one least disturbed
// by scheduler noise — what a regression gate should compare.
//
// Usage: bench_scale [--quick] [--profile] [--json PATH] [--clusters K]
//                    [--repeat N] [--grid-threads T] [--sizes N,N,...]
//
// --grid-threads sets the worker count of the grid_sharded phase (the
// same 16-cluster grid point replayed through sim/shard_sim.h); 0 (the
// default) resolves to min(8, hardware_concurrency).
//
// --sizes overrides the built-in size ladder with an explicit
// comma-separated job-count list.  This is how the big scale point is
// reached without inflating every-commit CI:
//   bench_scale --sizes 10000000 --clusters 64 --repeat 1
// replays ten million jobs through a 64-cluster grid (peak_rss_mb in
// the JSON stays a gated leaf, so a memory blow-up at scale fails the
// run that exercises it).  CI keeps the quick ladder and additionally
// smokes a scaled-down 64-cluster point via --sizes.
//
// Each size point exports `shard_wall_ratio` = grid_sim wall time over
// grid_sharded wall time for the same replay (> 1: sharding paid).  A
// wall-time ratio, not an events/sec one: every shard runs its own
// arrival pump, which fires once per release instant that has an
// arrival for the shard, so the sharded event count depends on the
// partition (it equals grid_sim's at one shard).  The
// name deliberately avoids the gated speedup* / *_per_sec keys: on
// small runners (or --grid-threads 1) the ratio hovers around or below
// 1 and would flap a gate; it is a trajectory metric, read from the
// uploaded artifacts.
//
// --profile prints the embedded profiler's zone/counter summary to
// stderr; the JSON always carries the zone tree under "profile" (empty
// when the build compiled the profiler out with -DLGS_PROFILING=OFF).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.h"
#include "core/profiler.h"
#include "core/report.h"
#include "sim/grid_sim.h"
#include "sim/online_cluster.h"
#include "sim/shard_sim.h"
#include "sim/simulator.h"
#include "workload/generators.h"

namespace {

using namespace lgs;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Linux reports ru_maxrss in kilobytes.
double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct PhaseResult {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double jobs_per_sec = 0.0;
  /// Profiler counter deltas over the repetition (identical across reps:
  /// the replay is deterministic), divided by the best wall time to make
  /// the per-phase *_per_sec gate leaves.  Zero when compiled out.
  std::uint64_t dispatch_cycles = 0;
  std::uint64_t routes = 0;
  std::uint64_t arrival_batches = 0;
};

/// Counter delta between two profiler snapshots (0 when compiled out —
/// both snapshots report 0 for every name).
std::uint64_t counter_delta(const prof::Snapshot& before,
                            const prof::Snapshot& after,
                            const char* name) {
  return after.counter(name) - before.counter(name);
}

/// Allocator introspection for one size point: the replay arena's
/// counters after the last repetition plus the trace store's slab
/// footprint.  Exported under "memory" in the JSON; the *_bytes leaves
/// are upper-bound gated by compare_bench.py.
struct MemoryResult {
  std::size_t store_hot_bytes = 0;
  std::size_t store_cold_bytes = 0;
  ArenaStats arena;
};

struct SizeResult {
  std::size_t jobs = 0;
  PhaseResult generate;
  PhaseResult online_cluster;
  PhaseResult grid_sim;
  PhaseResult grid_sharded;
  int shard_threads = 0;  ///< workers used by the grid_sharded phase
  MemoryResult memory;
};

/// Feed arrivals through ONE pending event walking the release-sorted
/// trace — constant event-queue footprint regardless of trace size (the
/// same discipline GridSim::run uses internally).  Submissions are hot
/// store rows: 64 bytes copied per job, never a fat Job.
struct ArrivalPump {
  Simulator& sim;
  OnlineCluster& cluster;
  const JobStore& jobs;
  std::size_t cursor = 0;

  void prime() {
    if (cursor < jobs.size())
      sim.at(jobs[cursor].release, [this] { fire(); }, /*priority=*/-2);
  }
  void fire() {
    const Time now = sim.now();
    while (cursor < jobs.size() && jobs[cursor].release <= now) {
      HotJob h = jobs[cursor++];
      h.release = 0.0;  // submit at the arrival instant, no deferral timer
      cluster.submit_local(h, jobs.tables());
    }
    prime();
  }
};

int failures = 0;

void fail(const std::string& what) {
  std::cerr << "VIOLATION: " << what << "\n";
  ++failures;
}

/// Keep `candidate` when it is the fastest repetition so far.
void keep_best(PhaseResult& best, const PhaseResult& candidate) {
  if (best.wall_s == 0.0 || candidate.wall_s < best.wall_s)
    best = candidate;
}

SizeResult run_size(std::size_t n, int clusters, std::uint64_t seed,
                    int repeat, int grid_threads) {
  SizeResult res;
  res.jobs = n;

  LargeTraceSpec spec;
  spec.max_procs = 64;
  spec.communities = clusters;  // every cluster gets a community's stream
  spec.target_capacity = clusters * 64;
  spec.load = 0.85;

  JobStore trace;
  for (int rep = 0; rep < repeat; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    trace = make_large_trace_store(n, seed, spec);
    PhaseResult phase;
    phase.wall_s = seconds_since(t0);
    phase.jobs_per_sec = static_cast<double>(n) / phase.wall_s;
    keep_best(res.generate, phase);
  }
  res.memory.store_hot_bytes = trace.hot_bytes();
  res.memory.store_cold_bytes = trace.cold_bytes();

  // One replay arena for every repetition of both phases: reset()
  // between reps keeps the blocks, so after the first rep the engines
  // run with zero allocator traffic.
  Arena arena;

  for (int rep = 0; rep < repeat; ++rep) {
    // Phase: one cluster the width of the whole pool.
    arena.reset();
    Simulator sim{ArenaRef(arena)};
    Cluster desc;
    desc.id = 0;
    desc.name = "pool";
    desc.nodes = spec.target_capacity;
    desc.cpus_per_node = 1;
    OnlineCluster cluster(sim, desc, OnlineCluster::Options{},
                          ArenaRef(arena));
    cluster.reserve_submissions(n);
    ArrivalPump pump{sim, cluster, trace};
    const prof::Snapshot before = prof::snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    pump.prime();
    sim.run();
    PhaseResult phase;
    phase.wall_s = seconds_since(t0);
    phase.dispatch_cycles =
        counter_delta(before, prof::snapshot(), "cluster.dispatch_cycles");
    phase.events = sim.executed();
    phase.events_per_sec =
        static_cast<double>(sim.executed()) / phase.wall_s;
    phase.jobs_per_sec = static_cast<double>(n) / phase.wall_s;
    keep_best(res.online_cluster, phase);
    if (cluster.queued_jobs() != 0 || cluster.running_local_jobs() != 0)
      fail("online_cluster replay did not drain");
    if (cluster.local_records().size() != n)
      fail("online_cluster lost submissions");
  }

  for (int rep = 0; rep < repeat; ++rep) {
    // Phase: 16-cluster grid borrowing the store (no split, no copies).
    arena.reset();
    GridSimOptions opts;  // isolated routing, FCFS — the throughput bar
    GridSim grid(make_skewed_grid(clusters, 64, /*skew=*/1.0), opts, &arena);
    const prof::Snapshot before = prof::snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    grid.submit_store(trace);
    const GridSimResult result = grid.run();
    PhaseResult phase;
    phase.wall_s = seconds_since(t0);
    const prof::Snapshot after = prof::snapshot();
    phase.dispatch_cycles =
        counter_delta(before, after, "cluster.dispatch_cycles");
    phase.routes = counter_delta(before, after, "grid.routes");
    phase.arrival_batches =
        counter_delta(before, after, "grid.arrival_batches");
    phase.events = grid.simulator().executed();
    phase.events_per_sec =
        static_cast<double>(phase.events) / phase.wall_s;
    phase.jobs_per_sec = static_cast<double>(n) / phase.wall_s;
    keep_best(res.grid_sim, phase);
    if (result.jobs_completed != static_cast<long>(n))
      fail("grid replay lost submissions");
    for (const std::string& v : validate_grid_result(grid, result))
      fail("grid replay: " + v);
    if (rep + 1 == repeat) res.memory.arena = grid.arena_stats();
  }

  for (int rep = 0; rep < repeat; ++rep) {
    // Phase: the SAME grid point replayed through the sharded engine
    // (sim/shard_sim.h) — isolated routing, no bags, so the arrivals are
    // routed up front and the clusters fan out across worker threads.
    // Bit-identical to grid_sim by the determinism contract; this phase
    // measures what the parallelism buys.
    arena.reset();
    GridSimOptions opts;
    ShardGridSim grid(make_skewed_grid(clusters, 64, /*skew=*/1.0), opts,
                      grid_threads, &arena);
    res.shard_threads = grid.shard_count();
    const prof::Snapshot before = prof::snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    grid.submit_store(trace);
    const GridSimResult result = grid.run();
    PhaseResult phase;
    phase.wall_s = seconds_since(t0);
    const prof::Snapshot after = prof::snapshot();
    phase.dispatch_cycles =
        counter_delta(before, after, "cluster.dispatch_cycles");
    phase.routes = counter_delta(before, after, "grid.routes");
    phase.arrival_batches =
        counter_delta(before, after, "grid.arrival_batches");
    phase.events = grid.events_executed();
    phase.events_per_sec =
        static_cast<double>(phase.events) / phase.wall_s;
    phase.jobs_per_sec = static_cast<double>(n) / phase.wall_s;
    keep_best(res.grid_sharded, phase);
    if (result.jobs_completed != static_cast<long>(n))
      fail("sharded grid replay lost submissions");
    for (const std::string& v : validate_grid_result(grid, result))
      fail("sharded grid replay: " + v);
  }

  return res;
}

void phase_json(JsonWriter& w, const char* name, const PhaseResult& p,
                bool with_events) {
  w.key(name).begin_object();
  w.key("wall_s").value(p.wall_s);
  if (with_events) {
    w.key("events").value(static_cast<std::uint64_t>(p.events));
    w.key("events_per_sec").value(p.events_per_sec);
  }
  w.key("jobs_per_sec").value(p.jobs_per_sec);
  // Per-phase profiler counters, normalized by the best wall time —
  // finer-grained gate leaves than raw events/sec (a dispatch-path or
  // routing regression moves these even when the event mix shifts).
  // Emitted only when the profiler is compiled in, so an OFF build's
  // JSON cannot silently gate the leaves against a zeroed numerator.
  if (prof::enabled()) {
    if (p.dispatch_cycles > 0)
      w.key("dispatch_cycles_per_sec")
          .value(static_cast<double>(p.dispatch_cycles) / p.wall_s);
    if (p.routes > 0)
      w.key("routes_per_sec")
          .value(static_cast<double>(p.routes) / p.wall_s);
    if (p.arrival_batches > 0)
      w.key("arrival_batches_per_sec")
          .value(static_cast<double>(p.arrival_batches) / p.wall_s);
  }
  w.end_object();
}

std::string to_json(const std::vector<SizeResult>& results, int clusters,
                    bool quick) {
  JsonWriter w;
  w.begin_object();
  w.key("bench").value("scale");
  w.key("quick").value(quick);
  w.key("clusters").value(clusters);
  w.key("sizes").begin_array();
  for (const SizeResult& r : results) {
    w.begin_object();
    w.key("jobs").value(static_cast<std::uint64_t>(r.jobs));
    w.key("phases").begin_object();
    phase_json(w, "generate", r.generate, false);
    phase_json(w, "online_cluster", r.online_cluster, true);
    phase_json(w, "grid_sim", r.grid_sim, true);
    phase_json(w, "grid_sharded", r.grid_sharded, true);
    w.end_object();
    // Worker count of the sharded phase (an input echo, not a gate key:
    // no *_per_sec / *_bytes suffix).
    w.key("shard_threads").value(r.shard_threads);
    // Serial-over-sharded wall time for the SAME replay; ungated on
    // purpose (see the file header).
    if (r.grid_sharded.wall_s > 0.0)
      w.key("shard_wall_ratio")
          .value(r.grid_sim.wall_s / r.grid_sharded.wall_s);
    // Allocator introspection: the trace store's slabs and the replay
    // arena's counters after the final grid repetition.  The *_bytes
    // leaves are deterministic for a given (n, seed, spec), so
    // compare_bench.py upper-bound gates them like peak_rss_mb.
    const MemoryResult& m = r.memory;
    w.key("memory").begin_object();
    w.key("store_hot_bytes").value(static_cast<std::uint64_t>(m.store_hot_bytes));
    w.key("store_cold_bytes").value(static_cast<std::uint64_t>(m.store_cold_bytes));
    w.key("arena_reserved_bytes")
        .value(static_cast<std::uint64_t>(m.arena.bytes_reserved));
    w.key("arena_peak_bytes")
        .value(static_cast<std::uint64_t>(m.arena.bytes_peak));
    w.key("arena_blocks").value(static_cast<std::uint64_t>(m.arena.blocks));
    w.key("arena_oversized_blocks")
        .value(static_cast<std::uint64_t>(m.arena.oversized_blocks));
    w.key("arena_resets").value(static_cast<std::uint64_t>(m.arena.resets));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  // ru_maxrss is a process-wide high-water mark, so one honest number
  // for the whole run (dominated by the largest size) instead of a
  // misleading monotone per-size column.
  w.key("peak_rss_mb").value(peak_rss_mb());
  // Whole-run zone tree + counters.  The keys inside deliberately avoid
  // the gated *_per_sec / *_bytes / *_mb suffixes: the profile is an
  // observability artifact, not a gate surface (walls here include every
  // repetition, not best-of-N).
  w.key("profile");
  prof::write_json(w, prof::snapshot());
  w.end_object();
  return w.str();
}

}  // namespace

/// Parse a comma-separated list of positive job counts ("1000,10000000").
/// Returns false on any malformed or non-positive entry.
bool parse_sizes(const std::string& csv, std::vector<std::size_t>* out) {
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) return false;
    std::size_t consumed = 0;
    unsigned long long v = 0;
    try {
      v = std::stoull(item, &consumed);
    } catch (const std::exception&) {
      return false;
    }
    if (consumed != item.size() || v == 0) return false;
    out->push_back(static_cast<std::size_t>(v));
  }
  return !out->empty();
}

int main(int argc, char** argv) {
  bool quick = false;
  bool profile = false;
  int clusters = 16;
  int repeat = 3;
  int grid_threads = 0;  // 0 = auto: min(8, hardware_concurrency)
  std::vector<std::size_t> explicit_sizes;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--clusters") == 0 && i + 1 < argc) {
      clusters = std::atoi(argv[++i]);
      if (clusters < 1) {
        std::cerr << "error: --clusters must be >= 1\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) {
        std::cerr << "error: --repeat must be >= 1\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--grid-threads") == 0 && i + 1 < argc) {
      grid_threads = std::atoi(argv[++i]);
      if (grid_threads < 0) {
        std::cerr << "error: --grid-threads must be >= 0\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sizes") == 0 && i + 1 < argc) {
      explicit_sizes.clear();
      if (!parse_sizes(argv[++i], &explicit_sizes)) {
        std::cerr << "error: --sizes wants a comma-separated list of "
                     "positive job counts (e.g. 100000,10000000)\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_scale [--quick] [--profile] [--json PATH] "
                   "[--clusters K] [--repeat N] [--grid-threads T] "
                   "[--sizes N,N,...]\n";
      return 2;
    }
  }
  if (grid_threads == 0)
    grid_threads = static_cast<int>(std::min<unsigned>(
        8, std::max<unsigned>(1, std::thread::hardware_concurrency())));

  // Quick sizes are chosen so the shortest gated phase still runs
  // ~100ms+: long enough that best-of-N throughput is stable under the
  // 25% CI gate tolerance, short enough for every-commit CI.  --sizes
  // replaces the ladder outright (the 10M scale point is opt-in:
  // `--sizes 10000000 --clusters 64 --repeat 1`).
  const std::vector<std::size_t> sizes =
      !explicit_sizes.empty()
          ? explicit_sizes
          : (quick ? std::vector<std::size_t>{100000, 300000}
                   : std::vector<std::size_t>{100000, 1000000});

  std::vector<SizeResult> results;
  for (std::size_t n : sizes) {
    results.push_back(
        run_size(n, clusters, /*seed=*/42, repeat, grid_threads));
    const SizeResult& r = results.back();
    std::cerr << "jobs=" << r.jobs << "  online " << r.online_cluster.wall_s
              << "s (" << static_cast<long>(r.online_cluster.events_per_sec)
              << " ev/s)  grid " << r.grid_sim.wall_s << "s ("
              << static_cast<long>(r.grid_sim.events_per_sec)
              << " ev/s)  sharded[" << r.shard_threads << "t] "
              << r.grid_sharded.wall_s << "s ("
              << static_cast<long>(r.grid_sharded.events_per_sec)
              << " ev/s)  rss " << peak_rss_mb() << " MB\n";
  }

  if (profile) std::cerr << prof::summary(prof::snapshot());

  const std::string json = to_json(results, clusters, quick);
  std::cout << json;
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    f << json;
    if (!f) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    std::cerr << "wrote " << json_path << "\n";
  }
  return failures == 0 ? 0 : 1;
}
