// E-STREAM — the streaming service mode end to end: live ingestion over
// the bounded SPSC pipeline under a real producer thread, and the
// checkpoint/restore cycle that makes the service restartable.
//
// Phase 1 (stream): a producer thread pushes a release-ordered
// make_large_trace_store workload into StreamGridSim while the service
// thread ingests, advances the engine and emits NDJSON completion
// records.  Reports engine events/sec, ingest throughput, and the
// ingest latency (push -> absorbed into engine state) sampled per row.
//
// Phase 2 (checkpoint): the SAME workload is replayed three ways —
// batch GridSim, uninterrupted streaming, and streaming interrupted by
// a mid-run checkpoint()/restore() split — and the three result digests
// (tests/grid_golden_scenarios.h) must be BIT-IDENTICAL.  Any
// divergence exits non-zero: the CI stream-smoke job relies on that and
// uploads BENCH_stream.json, gated by compare_bench.py against the
// committed baseline.
//
// Usage: bench_stream [--quick] [--jobs N] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "grid_golden_scenarios.h"
#include "sim/stream_sim.h"
#include "workload/generators.h"

namespace {

using namespace lgs;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The bench grid: 8 heterogeneous clusters, jobs no wider than the
/// narrowest so nothing needs the fallback path.
LightGrid bench_grid() { return make_skewed_grid(8, 32, 2.0); }

GridSimOptions bench_options() {
  GridSimOptions opts;
  opts.routing = GridRouting::kThreshold;
  opts.wait_threshold = 4.0;
  opts.cluster.policy = "fcfs-list";
  return opts;
}

/// Checkpoint-phase options: volatility churn and a best-effort
/// campaign on top, so the snapshot covers every engine subsystem.
GridSimOptions checkpoint_options() {
  GridSimOptions opts = bench_options();
  opts.bags = {{"stream-bag", 200, 0.5, 2, 1.0}};
  opts.volatility.events = 4;
  opts.volatility.window = 50.0;
  opts.volatility.floor_fraction = 0.6;
  opts.volatility_seed = 99;
  return opts;
}

JobStore bench_trace(std::size_t jobs) {
  LargeTraceSpec spec;
  spec.max_procs = 16;  // narrowest cluster of the skew-2 ladder
  spec.communities = 8;
  spec.target_capacity = bench_grid().total_processors();
  spec.load = 0.8;
  return make_large_trace_store(jobs, /*seed=*/20040426, spec);
}

/// Rows in the exact order the batch engine routes them: grouped by
/// home cluster (community % n, store order within the group), then in
/// the engine's own release order (sort_route_order).
std::vector<HotJob> route_ordered_rows(const JobStore& store,
                                       std::size_t clusters) {
  ArenaVec<GridPending> pending;
  group_pending_by_home(store, clusters, pending);
  ArenaVec<std::uint32_t> order;
  sort_route_order(store, pending, order);
  std::vector<HotJob> rows;
  rows.reserve(order.size());
  for (const std::uint32_t i : order)
    rows.push_back(store[pending[i].index]);
  return rows;
}

struct StreamPhase {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double jobs_per_sec = 0.0;
  double ingest_mean_latency_us = 0.0;
  double ingest_p99_latency_us = 0.0;
  std::uint64_t records_emitted = 0;
  std::uint64_t sink_bytes = 0;
};

StreamPhase run_stream_phase(const JobStore& store,
                             const std::vector<HotJob>& rows) {
  StreamPhase out;
  StreamGridSim::Options sopts;
  sopts.ring_capacity = 1024;
  sopts.batch = 256;
  std::uint64_t sink_bytes = 0;
  StreamGridSim svc(bench_grid(), bench_options(), sopts,
                    [&](const std::string& line) {
                      sink_bytes += line.size() + 1;  // + the "\n" framing
                    });

  // Push instants, stamped by the producer right before each push; the
  // ring's release/acquire publish makes reading them from the service
  // side safe once the row arrived.
  std::vector<Clock::time_point> pushed(rows.size());
  const Clock::time_point t0 = Clock::now();
  std::thread producer([&] {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      pushed[i] = Clock::now();
      svc.push(rows[i]);
    }
    svc.close();
  });

  // Drive poll() manually so each batch's rows get their absorption
  // stamp: latency = push -> the poll that ingested the row returned.
  std::vector<double> latency_us(rows.size(), 0.0);
  std::size_t seen = 0;
  while (svc.poll(store.tables())) {
    const Clock::time_point now = Clock::now();
    for (; seen < svc.ingested(); ++seen)
      latency_us[seen] =
          std::chrono::duration<double, std::micro>(now - pushed[seen])
              .count();
  }
  producer.join();
  out.wall_s = seconds_since(t0);

  out.events = svc.grid_sim().simulator().executed();
  out.events_per_sec = out.wall_s > 0 ? out.events / out.wall_s : 0.0;
  out.jobs_per_sec = out.wall_s > 0 ? rows.size() / out.wall_s : 0.0;
  out.records_emitted = svc.records_emitted();
  out.sink_bytes = sink_bytes;
  if (!latency_us.empty()) {
    out.ingest_mean_latency_us =
        std::accumulate(latency_us.begin(), latency_us.end(), 0.0) /
        latency_us.size();
    std::vector<double> sorted = latency_us;
    std::sort(sorted.begin(), sorted.end());
    out.ingest_p99_latency_us = sorted[sorted.size() * 99 / 100];
  }
  return out;
}

struct CheckpointPhase {
  bool digests_match = false;
  std::uint64_t checkpoint_bytes = 0;
  double checkpoints_per_sec = 0.0;
  double restore_wall_s = 0.0;
  std::uint64_t digest = 0;
};

CheckpointPhase run_checkpoint_phase(const JobStore& store,
                                     const std::vector<HotJob>& rows) {
  CheckpointPhase out;
  const GridSimOptions opts = checkpoint_options();

  // Reference 1: the batch engine on the same store.
  GridSim batch(bench_grid(), opts);
  batch.submit_store(store);
  const std::uint64_t batch_digest =
      digest_grid_result(batch, batch.run());

  StreamGridSim::Options sopts;
  sopts.ring_capacity = rows.size() + 1;
  sopts.batch = 256;

  // Reference 2: uninterrupted streaming.
  StreamGridSim whole(bench_grid(), opts, sopts, nullptr);
  whole.push_n(rows.data(), rows.size());
  whole.close();
  const std::uint64_t whole_digest =
      digest_grid_result(whole.grid_sim(), whole.serve(store.tables()));

  // Candidate: ingest half, checkpoint, restore into a fresh service,
  // re-feed the suffix, drain.
  const std::size_t cut = rows.size() / 2;
  StreamGridSim first(bench_grid(), opts, sopts, nullptr);
  first.push_n(rows.data(), cut);
  while (first.ingested() < cut) first.poll(store.tables());

  const Clock::time_point save0 = Clock::now();
  std::vector<unsigned char> blob = first.checkpoint();
  int save_iters = 1;
  while (seconds_since(save0) < 0.05) {
    blob = first.checkpoint();
    ++save_iters;
  }
  const double save_wall = seconds_since(save0);
  out.checkpoint_bytes = blob.size();
  out.checkpoints_per_sec = save_wall > 0 ? save_iters / save_wall : 0.0;

  StreamGridSim second(bench_grid(), opts, sopts, nullptr);
  const Clock::time_point restore0 = Clock::now();
  second.restore(blob);
  out.restore_wall_s = seconds_since(restore0);
  second.push_n(rows.data() + cut, rows.size() - cut);
  second.close();
  const std::uint64_t split_digest =
      digest_grid_result(second.grid_sim(), second.serve(store.tables()));

  out.digest = batch_digest;
  out.digests_match =
      batch_digest == whole_digest && whole_digest == split_digest;
  if (!out.digests_match) {
    std::cerr << "DIGEST DIVERGENCE:\n"
              << "  batch               " << std::hex << batch_digest << "\n"
              << "  streaming           " << whole_digest << "\n"
              << "  checkpoint/restore  " << split_digest << std::dec << "\n";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  long jobs_arg = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs_arg = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_stream [--quick] [--jobs N] [--json PATH]\n";
      return 2;
    }
  }
  const std::size_t stream_jobs =
      jobs_arg > 0 ? static_cast<std::size_t>(jobs_arg)
                   : (quick ? 20000 : 200000);
  const std::size_t checkpoint_jobs = quick ? 4000 : 20000;

  std::cout << "=== E-STREAM: streaming service mode (" << stream_jobs
            << " jobs streamed, " << checkpoint_jobs
            << " through checkpoint/restore) ===\n\n";

  const JobStore stream_store = bench_trace(stream_jobs);
  const std::vector<HotJob> stream_rows = route_ordered_rows(stream_store, 8);
  const StreamPhase stream = run_stream_phase(stream_store, stream_rows);

  TextTable stream_table({"metric", "value"});
  stream_table.add_row({"wall_s", fmt(stream.wall_s, 3)});
  stream_table.add_row({"events", fmt(double(stream.events))});
  stream_table.add_row({"events_per_sec", fmt(stream.events_per_sec, 0)});
  stream_table.add_row({"jobs_per_sec", fmt(stream.jobs_per_sec, 0)});
  stream_table.add_row(
      {"ingest_mean_latency_us", fmt(stream.ingest_mean_latency_us, 1)});
  stream_table.add_row(
      {"ingest_p99_latency_us", fmt(stream.ingest_p99_latency_us, 1)});
  stream_table.add_row({"records_emitted", fmt(double(stream.records_emitted))});
  stream_table.add_row({"sink_bytes", fmt(double(stream.sink_bytes))});
  std::cout << "--- stream phase ---\n" << stream_table.to_string() << "\n";

  const JobStore cp_store = bench_trace(checkpoint_jobs);
  const std::vector<HotJob> cp_rows = route_ordered_rows(cp_store, 8);
  const CheckpointPhase cp = run_checkpoint_phase(cp_store, cp_rows);

  TextTable cp_table({"metric", "value"});
  cp_table.add_row({"digests_match", cp.digests_match ? "yes" : "NO"});
  cp_table.add_row({"checkpoint_bytes", fmt(double(cp.checkpoint_bytes))});
  cp_table.add_row({"checkpoints_per_sec", fmt(cp.checkpoints_per_sec, 1)});
  cp_table.add_row({"restore_wall_s", fmt(cp.restore_wall_s, 4)});
  std::cout << "--- checkpoint phase ---\n" << cp_table.to_string() << "\n";

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("bench").value("stream");
    w.key("quick").value(quick);
    w.key("clusters").value(8);
    w.key("stream");
    w.begin_object();
    w.key("jobs").value(static_cast<std::uint64_t>(stream_jobs));
    w.key("wall_s").value(stream.wall_s);
    w.key("events").value(stream.events);
    w.key("events_per_sec").value(stream.events_per_sec);
    w.key("jobs_per_sec").value(stream.jobs_per_sec);
    w.key("ingest_mean_latency_us").value(stream.ingest_mean_latency_us);
    w.key("ingest_p99_latency_us").value(stream.ingest_p99_latency_us);
    w.key("records_emitted").value(stream.records_emitted);
    w.key("sink_bytes").value(stream.sink_bytes);
    w.end_object();
    w.key("checkpoint");
    w.begin_object();
    w.key("jobs").value(static_cast<std::uint64_t>(checkpoint_jobs));
    w.key("digests_match").value(cp.digests_match);
    w.key("checkpoint_bytes").value(cp.checkpoint_bytes);
    w.key("checkpoints_per_sec").value(cp.checkpoints_per_sec);
    w.key("restore_wall_s").value(cp.restore_wall_s);
    w.end_object();
    w.end_object();
    write_file(json_path, w.str());
    std::cerr << "wrote " << json_path << "\n";
  }

  if (!cp.digests_match) {
    std::cerr << "FAIL: checkpoint/restore replay diverged from the "
                 "uninterrupted run\n";
    return 1;
  }
  std::cout << "checkpoint/restore replay bit-identical to batch and "
               "uninterrupted streaming\n";
  return 0;
}
