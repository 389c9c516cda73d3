// The three workloads of the benchmark.
//
// A workload is a SET of independent traces, each built from the --seed
// argument and its index only; the engines see nothing but the generated
// rows.  One short trace replays in milliseconds, but how long it takes
// depends strongly on its seed (queues near saturation grow by a random
// walk), so a run measures the whole set, round after round, and reports
// the median round (see RoundStats).  Every replay is checked: its digest
// against the pinned set digest of the default seed (or, on other seeds,
// against the first round of the same run), validate_grid_result and the
// completed-job count.
//
// Untraced runs report the end-to-end metrics.  Traced runs measure one
// more round with spans around every call into the engine and the
// embedded profiler reset before and read after it (prof::snapshot),
// then run the layer probes, and report the per-layer metrics.
#include "workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/profiler.h"
#include "grid/exchange.h"
#include "grid_golden_scenarios.h"
#include "sim/grid_sim.h"
#include "sim/shard_sim.h"
#include "sim/stream_sim.h"
#include "spans.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using lgs::GridSim;
using lgs::GridSimOptions;
using lgs::GridSimResult;
using lgs::HotJob;
using lgs::JobStore;
using lgs::LightGrid;
using lgs::ShardGridSim;
using lgs::StreamGridSim;
using Clock = std::chrono::steady_clock;

/// The seed whose set digests are pinned below.
constexpr std::uint64_t kDefaultSeed = 1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Share of --seconds a traced run spends in the paced streaming pass.
constexpr double kPacedShare = 0.2;
/// Workers of the sharded replays the traced run's speedup probe times.
constexpr int kProbeShardThreads = 2;
/// Rows per push of the saturated producer.
constexpr std::size_t kPushChunk = 64;
/// A saturated streamed trace checkpoints when ingestion crosses these
/// fractions of it; the restore check re-feeds trace 0 from the third.
constexpr double kCheckpointCuts[] = {0.125, 0.25, 0.5, 0.75};
constexpr std::size_t kRestoreCut = 2;
/// Rows per paced segment: short, so a host stall discards little.
constexpr std::size_t kPacedSegmentRows = 1000;
/// Generator wake-up lateness that marks a paced segment as stalled by
/// the host (an on-time wake-up takes about 10 us).
constexpr double kStallUs = 250.0;
/// Rows the serialization probe streams twice (with and without sink).
constexpr std::size_t kReportProbeRows = 20000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Front { kBatch, kSharded, kStream };

struct Workload {
  const char* name;
  Front front;
  std::size_t traces;      ///< independent traces per set
  std::size_t trace_jobs;  ///< jobs per trace (frozen: defines the workload)
  int threads;             ///< sharded workers of the measured rounds
  double paced_rate;       ///< offered rows per host second, paced pass
  std::uint64_t pinned;    ///< set digest at kDefaultSeed
  lgs::GridRouting routing;
  const char* policy;
  bool churn;     ///< node volatility
  bool campaign;  ///< central best-effort campaign
};

// Trace lengths and paced rates are frozen: per-job routing and dispatch
// cost grow with queue length, so a different length is a different
// workload, and each rate is about half the saturated streaming capacity
// the default seed reached when it was set.
const Workload kWorkloads[] = {
    {"exchange", Front::kBatch, 128, 4000, 1, 25000.0, 0xd4f5499c36adae8dull,
     lgs::GridRouting::kThreshold, "fcfs-list", true, false},
    {"backfill", Front::kSharded, 64, 4000, 1, 25000.0, 0xca131422e621383dull,
     lgs::GridRouting::kIsolated, "easy-backfill", true, true},
    {"service", Front::kStream, 16, 10000, 1, 25000.0, 0xdf2cf964627a9bafull,
     lgs::GridRouting::kEconomic, "fcfs-list", false, false},
};

LightGrid bench_grid() { return lgs::make_skewed_grid(16, 32, 2.0); }

/// One trace of the set and the inputs derived from it.
struct Trace {
  JobStore store;
  std::vector<HotJob> rows;  ///< in the batch engine's routing order
  GridSimOptions opts;
};

/// Scenario options.  The volatility window spans the trace, and the
/// campaign scales with its length.
GridSimOptions make_options(const Workload& w, const JobStore& trace,
                            std::uint64_t trace_seed) {
  GridSimOptions o;
  o.routing = w.routing;
  o.wait_threshold = 4.0;
  o.cluster.policy = w.policy;
  if (w.churn) {
    o.volatility.events = 4;
    o.volatility.window = trace[trace.size() - 1].release;
    o.volatility.floor_fraction = 0.6;
    o.volatility.outage_min = 30.0;
    o.volatility.outage_max = 300.0;
    o.volatility_seed = lgs::mix_seed(trace_seed, 0x766f6cull);
  }
  if (w.campaign)
    o.bags = {{"campaign", static_cast<int>(trace.size() / 5), 20.0, 2, 1.0}};
  return o;
}

/// Rows in the order the batch engine routes them: grouped by home
/// cluster (community % n, store order within a group), then stably
/// sorted by effective release — the order a streamed replay must
/// ingest to reproduce the batch run.
std::vector<HotJob> route_ordered_rows(const JobStore& store,
                                       std::size_t clusters) {
  lgs::ArenaVec<lgs::GridPending> pending;
  lgs::group_pending_by_home(store, clusters, pending);
  std::vector<std::uint32_t> order(pending.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return lgs::effective_grid_release(
                                store[pending[a].index].release) <
                            lgs::effective_grid_release(
                                store[pending[b].index].release);
                   });
  std::vector<HotJob> rows;
  rows.reserve(order.size());
  for (const std::uint32_t i : order) rows.push_back(store[pending[i].index]);
  return rows;
}

/// NDJSON sink of the streamed passes: frames each record with "\n" into
/// a 1 MiB buffer, the way a writer would, and folds every line into an
/// order-free hash.  Records leave in per-cluster order, but how the
/// clusters interleave depends on where poll() batches end, which the
/// producer's timing decides; the set of lines must not.
class NdjsonSink {
 public:
  explicit NdjsonSink(SpanRecorder& spans) : spans_(spans) {
    buf_.reserve(kFlushBytes + 4096);
  }
  void operator()(const std::string& line) {
    ScopedSpan span(spans_, "report.sink");
    buf_.append(line);
    buf_.push_back('\n');
    lines_hash_ += lgs::fnv1a(0xcbf29ce484222325ull, line.data(), line.size());
    if (buf_.size() >= kFlushBytes) {
      bytes_ += buf_.size();
      buf_.clear();
    }
  }
  std::uint64_t bytes() const { return bytes_ + buf_.size(); }
  std::uint64_t lines_hash() const { return lines_hash_; }

 private:
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 20;
  SpanRecorder& spans_;
  std::string buf_;
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_hash_ = 0;
};

/// Joins a producer thread.  If the service side throws while the
/// producer is blocked on a full ring, no join can finish: end the
/// process instead of hanging or terminating on a joinable thread.
class ProducerThread {
 public:
  template <class F>
  explicit ProducerThread(F&& f) : t_(std::forward<F>(f)) {}
  ~ProducerThread() {
    if (!t_.joinable()) return;
    if (std::uncaught_exceptions() > 0) {
      std::fputs("perfbench: service failed with the producer blocked\n",
                 stderr);
      std::_Exit(1);
    }
    t_.join();
  }
  ProducerThread(const ProducerThread&) = delete;
  ProducerThread& operator=(const ProducerThread&) = delete;
  void join() { t_.join(); }

 private:
  std::thread t_;
};

struct ZoneTotals {
  double wall_s = 0.0;
  double self_s = 0.0;
};

void sum_zone(const std::vector<lgs::prof::ZoneReport>& zones,
              const std::string& name, ZoneTotals& t) {
  for (const lgs::prof::ZoneReport& z : zones) {
    if (z.name == name) {
      t.wall_s += z.wall_s;
      t.self_s += z.self_s;
    }
    sum_zone(z.children, name, t);
  }
}

/// Totals of every zone called `name`, wherever it sits in the tree.
ZoneTotals zone(const lgs::prof::Snapshot& s, const std::string& name) {
  ZoneTotals t;
  sum_zone(s.roots, name, t);
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One replay or streamed pass of one trace.
struct Outcome {
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  long jobs = 0;
  long completed = 0;
  std::vector<std::string> problems;
};

/// Result of the paced open-loop pass.
struct PacedPass {
  std::vector<double> latency_us;  ///< due time -> return of ingesting poll
  std::vector<double> late_us;     ///< generator wake-up lateness per row
  /// Latencies of the segments in which the generator woke on time.  The
  /// host stalls now and then for milliseconds, and the generator wakes
  /// late then, too; a stall wrecks the tail of the segment it hits, so
  /// such segments are counted, not measured.
  std::vector<double> clean_latency_us;
  std::size_t segments = 0;
  std::size_t stalled_segments = 0;
  std::size_t backlog_max = 0;  ///< due but not yet ingested rows
};

/// One round over the set.  Its throughput is the geometric mean over
/// the traces of jobs / replay wall: near saturation a few traces of a
/// set take many times the typical replay time, and a plain sum would
/// let those few decide the round.
struct RoundStats {
  double wall_s = 0.0;  ///< summed replay walls
  double jobs_per_s = 0.0;
};

/// Layer facts summed over the traced round.
struct RoundFacts {
  long be_started = 0;
  long be_killed = 0;
  long be_completed = 0;
  long be_resubmits = 0;
  std::size_t arena_peak = 0;
};

class Bench {
 public:
  Bench(const Workload& w, const RunConfig& cfg)
      : w_(w), cfg_(cfg), grid_(bench_grid()), spans_(cfg.trace),
        producer_spans_(cfg.trace) {}

  RunResult run();

 private:
  double setup_once();
  /// Time submit_store + run of a freshly built engine, then check it.
  template <class Engine>
  Outcome replay(Engine& sim, const Trace& t);
  Outcome stream_saturated(const Trace& t, bool with_sink,
                           bool keep_restore_blob);
  /// Every trace of the set once through `front` (sharded: `threads`
  /// workers, 0 = the workload's own).
  RoundStats round(Front front, const char* name, int threads = 0);
  /// Digest checks of a round and its failure accounting.
  void settle(const char* name, std::vector<Outcome>& outs);
  std::vector<RoundStats> timed_rounds(double budget_s);
  PacedPass stream_paced(double seconds);
  void check_restore();
  void probe_midpoint();
  void probe_report();
  void note(const GridSimResult& res, std::size_t arena_peak);
  void metric(const char* name, const char* unit, double value) {
    out_.metrics.push_back(Metric{name, unit, value});
  }
  void report_layers(const std::vector<RoundStats>& untraced,
                     const RoundStats& traced, const lgs::prof::Snapshot& snap,
                     const PacedPass& paced);
  void write_spans() const;

  const Workload& w_;
  RunConfig cfg_;
  LightGrid grid_;
  SpanRecorder spans_;           ///< service / main thread
  SpanRecorder producer_spans_;  ///< producer threads, one at a time
  std::vector<Trace> traces_;
  /// Replay arena of the batch and sharded replays, reset before each:
  /// the library's pattern for repeated replays.
  lgs::Arena arena_;
  RunResult out_;
  /// Per-trace digests of the first checked round (the service's batch
  /// round); every later pass of a trace must reproduce its digest.
  std::vector<std::uint64_t> reference_;
  /// Per-trace NDJSON line hashes of the first saturated streamed pass.
  std::vector<std::uint64_t> ndjson_reference_;
  /// Midpoint snapshot of trace 0's saturated streamed pass.
  std::vector<unsigned char> restore_blob_;
  std::size_t restore_cut_ = 0;
  // Facts of the traced round and the probes.
  RoundFacts facts_;
  bool noting_ = false;
  double probe_target_ns_ = 0.0;
  double probe_pump_self_s_ = 0.0;  ///< serial replay of trace 0
  double probe_routes_ = 0.0;
  double probe_wait_ns_ = 0.0;
  double probe_ns_per_record_ = 0.0;
  double serial_wall_s_ = 0.0;        ///< speedup probe: serial round
  double probe_sharded_wall_s_ = 0.0;  ///< and the same traces sharded
  std::size_t checkpoint_bytes_ = 0;
  std::uint64_t sink_bytes_ = 0;  ///< every streamed pass of the run
};

double Bench::setup_once() {
  ScopedSpan span(spans_, "setup");
  const Clock::time_point t0 = Clock::now();
  lgs::LargeTraceSpec spec;
  spec.max_procs = 16;  // narrowest cluster of the ladder
  spec.communities = 16;
  spec.target_capacity = grid_.total_processors();
  spec.load = 0.85;
  std::vector<Trace> traces(w_.traces);
  for (std::size_t k = 0; k < traces.size(); ++k) {
    const std::uint64_t seed = lgs::mix_seed(cfg_.seed, k);
    Trace& t = traces[k];
    {
      ScopedSpan s(spans_, "workload.generate");
      t.store = lgs::make_large_trace_store(w_.trace_jobs, seed, spec);
    }
    {
      ScopedSpan s(spans_, "setup.order");
      t.rows = route_ordered_rows(t.store, grid_.clusters.size());
      t.opts = make_options(w_, t.store, seed);
    }
    // Engine construction; the measured passes construct their own.
    ScopedSpan s(spans_, "setup.engine");
    switch (w_.front) {
      case Front::kBatch: {
        GridSim sim(grid_, t.opts);
        sim.submit_store(t.store);
        break;
      }
      case Front::kSharded: {
        ShardGridSim sim(grid_, t.opts, w_.threads);
        sim.submit_store(t.store);
        break;
      }
      case Front::kStream: {
        StreamGridSim svc(grid_, t.opts, StreamGridSim::Options{}, nullptr);
        break;
      }
    }
  }
  traces_ = std::move(traces);
  return seconds_since(t0);
}

void Bench::note(const GridSimResult& res, std::size_t arena_peak) {
  if (!noting_) return;
  for (const lgs::GridClusterOutcome& c : res.clusters) {
    facts_.be_started += c.be.started;
    facts_.be_killed += c.be.killed;
  }
  facts_.be_completed += res.grid_runs_completed;
  facts_.be_resubmits += res.grid_resubmissions;
  facts_.arena_peak = std::max(facts_.arena_peak, arena_peak);
}

std::size_t arena_peak(const GridSim& sim) {
  return sim.arena_stats().bytes_peak;
}
std::size_t arena_peak(const ShardGridSim& sim) {
  return sim.arena_peak_bytes();
}

template <class Engine>
Outcome Bench::replay(Engine& sim, const Trace& t) {
  Outcome o;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan s(spans_, "grid.submit");
    sim.submit_store(t.store);
  }
  GridSimResult res;
  {
    ScopedSpan s(spans_, "grid.run");
    res = sim.run();
  }
  o.wall_s = seconds_since(t0);
  o.digest = lgs::digest_grid_result(sim, res);
  o.jobs = static_cast<long>(t.store.size());
  o.completed = res.jobs_completed;
  o.problems = lgs::validate_grid_result(sim, res);
  note(res, arena_peak(sim));
  return o;
}

Outcome Bench::stream_saturated(const Trace& t, bool with_sink,
                                bool keep_restore_blob) {
  Outcome o;
  NdjsonSink sink(spans_);
  StreamGridSim::SinkFn fn;
  if (with_sink) fn = [&sink](const std::string& line) { sink(line); };
  StreamGridSim svc(grid_, t.opts, StreamGridSim::Options{}, std::move(fn));
  const std::size_t rows = t.rows.size();
  std::size_t cut = 0;

  const Clock::time_point t0 = Clock::now();
  ProducerThread producer([&] {
    for (std::size_t i = 0; i < rows; i += kPushChunk) {
      ScopedSpan s(producer_spans_, "stream.push");
      svc.push_n(t.rows.data() + i, std::min(kPushChunk, rows - i));
    }
    svc.close();
  });
  for (;;) {
    bool more = false;
    {
      ScopedSpan s(spans_, "stream.poll");
      more = svc.poll(t.store.tables());
      if (!more) s.rename("stream.finish");
    }
    if (!more) break;
    while (cut < std::size(kCheckpointCuts) &&
           svc.ingested() >= static_cast<std::size_t>(
                                 kCheckpointCuts[cut] * rows)) {
      std::vector<unsigned char> blob;
      {
        ScopedSpan s(spans_, "checkpoint.save");
        blob = svc.checkpoint();
      }
      if (noting_) checkpoint_bytes_ = std::max(checkpoint_bytes_, blob.size());
      if (keep_restore_blob && cut == kRestoreCut) {
        restore_blob_ = std::move(blob);
        restore_cut_ = svc.ingested();
      }
      ++cut;
    }
  }
  producer.join();
  o.wall_s = seconds_since(t0);

  const GridSimResult& res = svc.result();
  o.digest = lgs::digest_grid_result(svc.grid_sim(), res);
  o.jobs = static_cast<long>(rows);
  o.completed = res.jobs_completed;
  o.problems = lgs::validate_grid_result(svc.grid_sim(), res);
  if (svc.records_emitted() != rows)
    o.problems.push_back("emitted " + std::to_string(svc.records_emitted()) +
                         " records for " + std::to_string(rows) + " rows");
  sink_bytes_ += sink.bytes();
  if (with_sink) {
    // The same NDJSON lines on every pass of a trace.
    const std::size_t k = static_cast<std::size_t>(&t - traces_.data());
    const std::uint64_t h = sink.lines_hash();
    if (ndjson_reference_.empty()) ndjson_reference_.assign(traces_.size(), 0);
    if (ndjson_reference_[k] == 0) {
      ndjson_reference_[k] = h;
    } else if (ndjson_reference_[k] != h) {
      o.problems.push_back("NDJSON lines differ from the first pass");
    }
  }
  note(res, svc.grid_sim().arena_stats().bytes_peak);
  return o;
}

RoundStats Bench::round(Front front, const char* name, int threads) {
  std::vector<Outcome> outs;
  outs.reserve(traces_.size());
  RoundStats r;
  double log_jps = 0.0;
  for (std::size_t k = 0; k < traces_.size(); ++k) {
    const Trace& t = traces_[k];
    // Batch and sharded replays reuse one arena, reset before each.
    arena_.reset();
    switch (front) {
      case Front::kBatch: {
        GridSim sim(grid_, t.opts, &arena_);
        outs.push_back(replay(sim, t));
        break;
      }
      case Front::kSharded: {
        ShardGridSim sim(grid_, t.opts, threads > 0 ? threads : w_.threads,
                         &arena_);
        outs.push_back(replay(sim, t));
        break;
      }
      case Front::kStream:
        outs.push_back(stream_saturated(t, true, k == 0));
        break;
    }
    const Outcome& o = outs.back();
    r.wall_s += o.wall_s;
    log_jps += std::log(static_cast<double>(o.jobs) / o.wall_s);
  }
  r.jobs_per_s = std::exp(log_jps / static_cast<double>(outs.size()));
  settle(name, outs);
  return r;
}

void Bench::settle(const char* name, std::vector<Outcome>& outs) {
  if (reference_.empty()) {
    // First round: its per-trace digests become the reference.  On the
    // default seed their fold must equal the pinned set digest.
    std::uint64_t set = 0xcbf29ce484222325ull;
    for (const Outcome& o : outs) {
      reference_.push_back(o.digest);
      set = lgs::fnv1a_u64(set, o.digest);
    }
    if (cfg_.seed == kDefaultSeed) {
      const std::string d = digest_problem("set", w_.pinned, set);
      if (!d.empty())
        for (Outcome& o : outs) o.problems.push_back(d);
    }
  } else {
    for (std::size_t k = 0; k < outs.size(); ++k) {
      const std::string d =
          digest_problem("trace", reference_[k], outs[k].digest);
      if (!d.empty()) outs[k].problems.push_back(d);
    }
  }
  for (std::size_t k = 0; k < outs.size(); ++k)
    out_.tally.add(std::string(name) + "/" + std::to_string(k), outs[k].jobs,
                   outs[k].completed, outs[k].problems);
}

/// Rounds until `budget_s` has passed.
std::vector<RoundStats> Bench::timed_rounds(double budget_s) {
  std::vector<RoundStats> rounds;
  const Clock::time_point t0 = Clock::now();
  do {
    rounds.push_back(round(w_.front, "round"));
    std::fprintf(stderr, "round %zu: %.0f jobs/s, %.3f s\n", rounds.size(),
                 rounds.back().jobs_per_s, rounds.back().wall_s);
  } while (seconds_since(t0) < budget_s);
  return rounds;
}

/// Open loop: row j of a paced segment is due at t0 + j / rate, whatever
/// the service does.  Segment k streams the first kPacedSegmentRows rows
/// of trace k into a fresh service; segments follow each other until
/// rate x seconds rows have been offered.
PacedPass Bench::stream_paced(double seconds) {
  PacedPass out;
  const double rate = w_.paced_rate;
  std::size_t left = static_cast<std::size_t>(std::llround(rate * seconds));
  for (std::size_t k = 0; left > 0; k = (k + 1) % traces_.size()) {
    const Trace& t = traces_[k];
    const std::size_t m = std::min({left, t.rows.size(), kPacedSegmentRows});
    left -= m;
    std::vector<double> latency(m, 0.0);
    NdjsonSink sink(spans_);
    StreamGridSim svc(grid_, t.opts, StreamGridSim::Options{},
                      [&sink](const std::string& line) { sink(line); });
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
    const auto due = [&](std::size_t j) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(j / rate));
    };
    std::vector<double> late(m, 0.0);
    ProducerThread producer([&] {
      // Sleep, don't spin; a 1 ns timer slack keeps wake-ups near the
      // due time (the default 50 us slack would read as service latency).
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = 0; i < m;) {
        std::this_thread::sleep_until(due(i));
        const Clock::time_point woke = Clock::now();
        std::size_t j = i;
        while (j < m && due(j) <= woke) ++j;
        for (std::size_t r = i; r < j; ++r)
          late[r] = std::chrono::duration<double, std::micro>(woke - due(r))
                        .count();
        ScopedSpan s(producer_spans_, "stream.push");
        svc.push_n(t.rows.data() + i, j - i);
        i = j;
      }
      svc.close();
    });
    std::size_t seen = 0;
    for (;;) {
      bool more = false;
      {
        ScopedSpan s(spans_, "stream.poll");
        more = svc.poll(t.store.tables());
        if (!more) s.rename("stream.finish");
      }
      if (!more) break;
      const Clock::time_point now = Clock::now();
      const std::size_t ingested = svc.ingested();
      for (; seen < ingested; ++seen)
        latency[seen] =
            std::chrono::duration<double, std::micro>(now - due(seen))
                .count();
      const double since = std::chrono::duration<double>(now - t0).count();
      const std::size_t due_now =
          since < 0.0 ? 0
                      : std::min(m, static_cast<std::size_t>(since * rate) + 1);
      if (due_now > ingested)
        out.backlog_max = std::max(out.backlog_max, due_now - ingested);
    }
    producer.join();
    sink_bytes_ += sink.bytes();

    const GridSimResult& res = svc.result();
    std::vector<std::string> problems =
        lgs::validate_grid_result(svc.grid_sim(), res);
    if (svc.records_emitted() != m)
      problems.push_back("emitted " + std::to_string(svc.records_emitted()) +
                         " records for " + std::to_string(m) + " rows");
    out_.tally.add("paced/" + std::to_string(k), static_cast<long>(m),
                   res.jobs_completed, problems);
    ++out.segments;
    if (*std::max_element(late.begin(), late.end()) > kStallUs) {
      ++out.stalled_segments;
    } else {
      out.clean_latency_us.insert(out.clean_latency_us.end(),
                                  latency.begin(), latency.end());
    }
    out.latency_us.insert(out.latency_us.end(), latency.begin(),
                          latency.end());
    out.late_us.insert(out.late_us.end(), late.begin(), late.end());
  }
  std::fprintf(stderr, "paced: %zu of %zu segments stalled by the host\n",
               out.stalled_segments, out.segments);
  if (out.clean_latency_us.size() < kPacedSegmentRows)
    out.clean_latency_us = out.latency_us;  // stalled throughout: keep all
  return out;
}

/// Service only: trace 0's midpoint snapshot, restored into a fresh
/// service and re-fed the suffix, must drain to trace 0's digest.
void Bench::check_restore() {
  const Trace& t = traces_[0];
  StreamGridSim svc(grid_, t.opts, StreamGridSim::Options{}, nullptr);
  {
    ScopedSpan s(spans_, "checkpoint.restore");
    svc.restore(restore_blob_);
  }
  std::vector<std::string> problems;
  if (svc.ingested() != restore_cut_)
    problems.push_back("restored service resumes at row " +
                       std::to_string(svc.ingested()) + ", snapshot was at " +
                       std::to_string(restore_cut_));
  const std::size_t n = t.rows.size();
  const std::size_t from = std::min(svc.ingested(), n);
  ProducerThread producer([&] {
    for (std::size_t i = from; i < n; i += kPushChunk)
      svc.push_n(t.rows.data() + i, std::min(kPushChunk, n - i));
    svc.close();
  });
  const GridSimResult res = svc.serve(t.store.tables());
  producer.join();
  for (std::string& p : lgs::validate_grid_result(svc.grid_sim(), res))
    problems.push_back(std::move(p));
  const std::string d = digest_problem(
      "restore", reference_[0], lgs::digest_grid_result(svc.grid_sim(), res));
  if (!d.empty()) problems.push_back(d);
  out_.tally.add("restore", static_cast<long>(n), res.jobs_completed,
                 problems);
}

/// Pause a serial replay of trace 0 at the release instant of its middle
/// row, time exchange_target() and OnlineCluster::expected_wait() on a
/// fixed job sample there, snapshot and restore the paused engine, and
/// check that the restored replay drains to trace 0's digest.  The
/// profiler, reset for the probe, gives the arrival pump's self time of
/// this serial replay, which every workload has.
void Bench::probe_midpoint() {
  ScopedSpan probe(spans_, "probe.midpoint");
  lgs::prof::reset();
  const Trace& t = traces_[0];
  GridSim sim(grid_, t.opts);
  sim.submit_store(t.store);
  {
    ScopedSpan s(spans_, "grid.run_to");
    sim.run_to(lgs::effective_grid_release(t.rows[t.rows.size() / 2].release));
  }

  // Fixed sample: 512 rows at an even stride, home cluster by community.
  std::vector<lgs::Job> sample;
  std::vector<std::size_t> homes;
  const std::size_t stride = std::max<std::size_t>(1, t.store.size() / 512);
  for (std::size_t i = 0; i < t.store.size(); i += stride) {
    lgs::Job j = t.store.job(i);
    j.release = 0.0;
    homes.push_back(static_cast<std::size_t>(std::max(0, j.community)) %
                    sim.cluster_count());
    sample.push_back(std::move(j));
  }
  lgs::ExchangeOptions ex;
  ex.policy = w_.routing == lgs::GridRouting::kIsolated
                  ? lgs::ExchangePolicy::kIsolated
                  : lgs::to_exchange_policy(w_.routing);
  ex.wait_threshold = t.opts.wait_threshold;
  ex.migration_penalty = t.opts.migration_penalty;
  // Both functions live in the library's own translation units, so the
  // calls cannot be folded away.
  std::size_t calls = 0;
  Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t k = 0; k < sample.size(); ++k, ++calls)
      (void)lgs::exchange_target(sim.clusters(), homes[k], sample[k], ex);
  } while (seconds_since(t0) < 0.05);
  probe_target_ns_ = seconds_since(t0) * 1e9 / static_cast<double>(calls);
  calls = 0;
  t0 = Clock::now();
  do {
    for (const lgs::Job& j : sample)
      for (const auto& c : sim.clusters()) {
        (void)c->expected_wait(j.min_procs);
        ++calls;
      }
  } while (seconds_since(t0) < 0.05);
  probe_wait_ns_ = seconds_since(t0) * 1e9 / static_cast<double>(calls);

  std::vector<unsigned char> blob;
  {
    ScopedSpan s(spans_, "checkpoint.save");
    blob = sim.checkpoint();
  }
  checkpoint_bytes_ = std::max(checkpoint_bytes_, blob.size());
  GridSim restored(grid_, t.opts);
  {
    ScopedSpan s(spans_, "checkpoint.restore");
    restored.restore(blob);
  }
  GridSimResult res;
  {
    ScopedSpan s(spans_, "grid.resume");
    res = restored.resume();
  }
  std::vector<std::string> problems = lgs::validate_grid_result(restored, res);
  const std::string d =
      digest_problem("midpoint-restore", reference_[0],
                     lgs::digest_grid_result(restored, res));
  if (!d.empty()) problems.push_back(d);
  out_.tally.add("midpoint-restore", static_cast<long>(t.store.size()),
                 res.jobs_completed, problems);
  const lgs::prof::Snapshot snap = lgs::prof::snapshot();
  probe_pump_self_s_ = zone(snap, "grid.arrival_pump").self_s;
  probe_routes_ = static_cast<double>(snap.counter("grid.routes"));
}

/// Serialization cost per record: the same traces streamed with the
/// NDJSON sink and with no sink at all; the difference in pass time.
void Bench::probe_report() {
  ScopedSpan probe(spans_, "probe.report");
  double wall[2] = {0.0, 0.0};
  double records = 0.0;
  for (int with_sink = 0; with_sink < 2; ++with_sink) {
    ScopedSpan s(spans_, with_sink ? "probe.sink" : "probe.nosink");
    records = 0.0;
    for (std::size_t k = 0; k < traces_.size() && records < kReportProbeRows;
         ++k) {
      const Outcome o = stream_saturated(traces_[k], with_sink != 0, false);
      out_.tally.add("report-probe", o.jobs, o.completed, o.problems);
      wall[with_sink] += o.wall_s;
      records += static_cast<double>(o.jobs);
    }
  }
  probe_ns_per_record_ = ratio((wall[1] - wall[0]) * 1e9, records);
}

void Bench::report_layers(const std::vector<RoundStats>& untraced,
                          const RoundStats& traced,
                          const lgs::prof::Snapshot& snap,
                          const PacedPass& paced) {
  const char* timed = "timed";
  const double traced_wall = traced.wall_s;
  const auto count = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  // exchange (routing)
  const double bids = count("grid.exchange_bids");
  metric("exchange.routes", "count", count("grid.routes"));
  metric("exchange.bids", "count", bids);
  metric("exchange.expected_wait_calls", "count",
         count("cluster.expected_wait_calls"));
  metric("exchange.migrations", "count", count("grid.migrations"));
  metric("exchange.pump_self_s", "s", probe_pump_self_s_);
  metric("exchange.ns_per_bid", "ns",
         ratio(probe_pump_self_s_ * 1e9, probe_routes_));
  metric("exchange.target_ns", "ns", probe_target_ns_);
  metric("exchange.expected_wait_ns", "ns", probe_wait_ns_);
  // Streamed routing runs in route events outside the pump zone; there
  // the share is estimated from the probe's per-bid cost.
  const double pump_s = zone(snap, "grid.arrival_pump").self_s;
  const double route_s =
      pump_s > 0.0 ? pump_s : bids * probe_target_ns_ * 1e-9;
  metric("exchange.share", "frac", ratio(route_s, traced_wall));

  // online_cluster / policy (dispatch)
  const ZoneTotals dispatch = zone(snap, "cluster.dispatch");
  const double cycles = count("cluster.dispatch_cycles");
  metric("online_cluster.dispatch_cycles", "count", cycles);
  metric("online_cluster.dispatch_s", "s", dispatch.wall_s);
  metric("online_cluster.dispatch_ns_per_cycle", "ns",
         ratio(dispatch.wall_s * 1e9, cycles));
  metric("online_cluster.queue_depth_highwater", "count",
         count("cluster.queue_depth_highwater"));
  metric("online_cluster.dispatch_share", "frac",
         ratio(dispatch.wall_s, traced_wall));
  metric("policy.skyline_rebuilds", "count", count("policy.skyline_rebuilds"));

  // simulator (kernel)
  metric("simulator.events", "count", count("sim.events"));
  metric("simulator.self_s", "s", zone(snap, "sim.run").self_s);
  metric("simulator.slots_highwater", "count", count("sim.slots_highwater"));

  // besteffort
  metric("besteffort.runs_completed", "count",
         static_cast<double>(facts_.be_completed));
  metric("besteffort.kills", "count", static_cast<double>(facts_.be_killed));
  metric("besteffort.resubmits", "count",
         static_cast<double>(facts_.be_resubmits));
  metric("besteffort.useful_frac", "frac",
         ratio(static_cast<double>(facts_.be_completed),
               static_cast<double>(facts_.be_started)));

  // shard_sim: the speedup probe's serial GridSim round over its
  // kProbeShardThreads-worker round on the same traces; the serial
  // workloads report ratio 1 against their own median round.
  std::vector<double> walls, jps;
  for (const RoundStats& r : untraced) {
    walls.push_back(r.wall_s);
    jps.push_back(r.jobs_per_s);
  }
  const bool sharded = w_.front == Front::kSharded;
  const double serial_wall = sharded ? serial_wall_s_ : median(walls);
  metric("shard_sim.speedup", "ratio",
         sharded ? ratio(serial_wall_s_, probe_sharded_wall_s_) : 1.0);
  metric("shard_sim.serial_run_s", "s", serial_wall);
  // Replay-thread time of the traced round: the shard workers'
  // grid.shard_run zones, or the round wall when one thread replays.
  const double shard_run_s = zone(snap, "grid.shard_run").wall_s;
  metric("shard_sim.worker_s", "s",
         shard_run_s > 0.0 ? shard_run_s : traced_wall);
  metric("shard_sim.threads", "count", sharded ? kProbeShardThreads : 1);

  // grid_sim / arena / job_store
  // Every batch or sharded replay of the traced run (the service's are
  // its batch reference round).
  metric("grid_sim.submit_s", "s", spans_.totals("grid.submit").wall_s);
  metric("grid_sim.run_s", "s", spans_.totals("grid.run").wall_s);
  metric("grid_sim.arrival_batches", "count", count("grid.arrival_batches"));
  metric("arena.peak_bytes", "bytes", static_cast<double>(facts_.arena_peak));
  double hot = 0.0;
  for (const Trace& t : traces_) hot += static_cast<double>(t.store.hot_bytes());
  metric("job_store.hot_bytes", "bytes", hot);

  // stream_sim: every traced streamed pass (saturated, probes and paced)
  const SpanTotals polls = spans_.totals("stream.poll");
  const SpanTotals sink = spans_.totals("report.sink");
  std::vector<double> poll_us;
  for (const double d : polls.durations_s) poll_us.push_back(d * 1e6);
  metric("stream_sim.polls", "count", static_cast<double>(polls.count));
  metric("stream_sim.poll_s", "s", polls.wall_s);
  metric("stream_sim.poll_p99_us", "us", percentile(poll_us, 99.0));
  metric("stream_sim.rows_per_poll", "count",
         ratio(static_cast<double>(sink.count),
               static_cast<double>(polls.count)));
  metric("stream_sim.producer_push_s", "s",
         producer_spans_.totals("stream.push").wall_s);
  metric("stream_sim.finish_s", "s", spans_.totals("stream.finish").wall_s);

  // report (NDJSON)
  metric("report.records", "count", static_cast<double>(sink.count));
  metric("report.sink_s", "s", sink.wall_s);
  metric("report.sink_bytes", "bytes", static_cast<double>(sink_bytes_));
  metric("report.ns_per_record", "ns", probe_ns_per_record_);
  // Serialization happens inside poll() before the sink is called, so the
  // share comes from the probe's per-record cost, not the sink spans.
  metric("report.share", "frac",
         ratio(static_cast<double>(spans_.totals("report.sink", timed).count) *
                   probe_ns_per_record_ * 1e-9,
               traced_wall));

  // checkpoint
  const SpanTotals save = spans_.totals("checkpoint.save");
  const SpanTotals restore = spans_.totals("checkpoint.restore");
  metric("checkpoint.save_ms", "ms",
         ratio(save.wall_s * 1e3, static_cast<double>(save.count)));
  metric("checkpoint.bytes", "bytes", static_cast<double>(checkpoint_bytes_));
  metric("checkpoint.mb_per_s", "MB/s",
         ratio(static_cast<double>(checkpoint_bytes_) / 1e6,
               save.durations_s.empty() ? 0.0 : save.durations_s.back()));
  metric("checkpoint.restore_ms", "ms",
         ratio(restore.wall_s * 1e3, static_cast<double>(restore.count)));
  metric("checkpoint.share", "frac",
         ratio(spans_.totals("checkpoint.save", timed).wall_s, traced_wall));

  // workload: trace generation per set-up
  metric("workload.generate_s", "s",
         spans_.totals("workload.generate").wall_s / kSetupRepeats);

  // benchmark driver
  const double tail = tail_percentile(paced.latency_us.size());
  metric("driver.late_p99_us", "us", percentile(paced.late_us, 99.0));
  metric("driver.backlog_max", "count", static_cast<double>(paced.backlog_max));
  metric("driver.ingest_tail_pct", "pct", tail);
  metric("driver.ingest_tail_us", "us", percentile(paced.latency_us, tail));
  metric("ingest_p50_us", "us", percentile(paced.clean_latency_us, 50.0));
  metric("ingest_p99_us", "us", percentile(paced.clean_latency_us, 99.0));
  metric("ingest_samples", "count",
         static_cast<double>(paced.latency_us.size()));
  metric("driver.stalled_frac", "frac",
         ratio(static_cast<double>(paced.stalled_segments),
               static_cast<double>(paced.segments)));
  metric("driver.clean_samples", "count",
         static_cast<double>(paced.clean_latency_us.size()));
  metric("driver.failed_frac", "frac", out_.tally.failed_frac());
  metric("trace.overhead_frac", "frac",
         1.0 - ratio(traced.jobs_per_s, median(jps)));
}

void Bench::write_spans() const {
  if (cfg_.spans_path.empty()) return;
  std::ofstream f(cfg_.spans_path);
  f << "thread\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n"
    << spans_.to_tsv("service") << producer_spans_.to_tsv("producer");
  if (!f) throw std::runtime_error("cannot write " + cfg_.spans_path);
}

RunResult Bench::run() {
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) setups.push_back(setup_once());

  // The service's reference digests come from batch replays of its
  // traces: streamed must equal batch.
  if (w_.front == Front::kStream) {
    ScopedSpan s(spans_, "check.batch");
    round(Front::kBatch, "batch");
  }

  if (!cfg_.trace) {
    std::vector<double> jps;
    for (const RoundStats& r : timed_rounds(cfg_.seconds))
      jps.push_back(r.jobs_per_s);
    if (w_.front == Front::kStream) check_restore();
    metric("jobs_per_s", "1/s", median(jps));
    metric("setup_s", "s", median(setups));
    metric("peak_rss_mb", "MB", peak_rss_mb());
    return out_;
  }

  // Traced run: untraced rounds for the overhead reference, then one
  // traced round with the profiler reset before and read after it, then
  // the probes and the paced pass.
  const double paced_s = kPacedShare * cfg_.seconds;
  SpanRecorder spans_off(false), producer_off(false);
  std::swap(spans_, spans_off);
  std::swap(producer_spans_, producer_off);
  const std::vector<RoundStats> untraced =
      timed_rounds((cfg_.seconds - paced_s) / 2);
  std::swap(spans_, spans_off);
  std::swap(producer_spans_, producer_off);

  lgs::prof::reset();
  RoundStats traced;
  noting_ = true;
  {
    ScopedSpan s(spans_, "timed");
    traced = round(w_.front, "traced");
  }
  noting_ = false;
  const lgs::prof::Snapshot snap = lgs::prof::snapshot();

  if (w_.front == Front::kStream) check_restore();
  if (w_.front == Front::kSharded) {
    ScopedSpan s(spans_, "probe.shard");
    serial_wall_s_ = round(Front::kBatch, "serial").wall_s;
    probe_sharded_wall_s_ =
        round(Front::kSharded, "sharded", kProbeShardThreads).wall_s;
  }
  probe_midpoint();
  probe_report();
  const PacedPass paced = stream_paced(paced_s);
  report_layers(untraced, traced, snap, paced);
  write_spans();
  return out_;
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  for (const Workload& w : kWorkloads)
    if (cfg.workload == w.name) return Bench(w, cfg).run();
  throw std::invalid_argument("unknown workload " + cfg.workload);
}

}  // namespace perfbench
