// Streaming service mode (sim/stream_sim.h): live ingestion over the
// bounded SPSC pipeline must replay BIT-IDENTICAL to the batch engine —
// the same pinned golden digests — including across a mid-stream
// checkpoint/restore split, under real producer-thread backpressure,
// and with the NDJSON sink observing every completion exactly once.
// Plus unit tests for the SPSC ring (core/spsc_ring.h) the service
// ingests through, including the push_n/pop_n bulk operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/spsc_ring.h"
#include "grid_golden_scenarios.h"
#include "sim/stream_sim.h"

namespace lgs {
namespace {

/// The golden workload as a store plus the exact order the batch engine
/// routes it: grouped by home cluster (community % n, store order
/// within each group), then put in the engine's own release order
/// (sort_route_order) — the order a live submission front-end would
/// naturally produce.
struct GoldenStream {
  JobStore store;
  std::vector<HotJob> feed;  ///< rows in batch route order
};

GoldenStream golden_stream(std::size_t clusters) {
  GoldenStream gs{to_job_store(golden_workload()), {}};
  ArenaVec<GridPending> pending;
  group_pending_by_home(gs.store, clusters, pending);
  ArenaVec<std::uint32_t> order;
  sort_route_order(gs.store, pending, order);
  gs.feed.reserve(order.size());
  for (const std::uint32_t i : order)
    gs.feed.push_back(gs.store[pending[i].index]);
  return gs;
}

/// Home rule of GridSim::submit_store: community % cluster count.
std::size_t home_of(const HotJob& h, std::size_t clusters) {
  return static_cast<std::size_t>(h.community < 0 ? 0 : h.community) %
         clusters;
}

/// Streaming-capable golden scenarios (kGlobalPlan needs the whole
/// trace up front and is rejected by begin_streaming).
std::vector<std::size_t> streamable_scenarios() { return {0, 1, 2}; }

TEST(StreamSim, MatchesBatchGoldenDigests) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const auto scenarios = golden_scenarios();
  const auto digests = golden_digests();
  const GoldenStream gs = golden_stream(4);
  for (const std::size_t i : streamable_scenarios()) {
    StreamGridSim::Options sopts;
    sopts.ring_capacity = gs.feed.size() + 1;
    sopts.batch = 37;  // odd batch: ingestion splits must not matter
    StreamGridSim svc(make_skewed_grid(4, 24, 2.0),
                      golden_options(scenarios[i]), sopts, nullptr);
    svc.push_n(gs.feed.data(), gs.feed.size());
    svc.close();
    const GridSimResult res = svc.serve(gs.store.tables());
    EXPECT_EQ(digest_grid_result(svc.grid_sim(), res), digests[i].digest)
        << scenarios[i].name;
  }
}

TEST(StreamSim, ReverseOrderedReleaseGroupsMatchBatchDigests) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const auto scenarios = golden_scenarios();
  const auto digests = golden_digests();
  const GoldenStream gs = golden_stream(4);
  // Runs of equal effective release, [begin, end) into the feed.
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t b = 0; b < gs.feed.size();) {
    const Time t = effective_grid_release(gs.feed[b].release);
    std::size_t e = b + 1;
    while (e < gs.feed.size() &&
           effective_grid_release(gs.feed[e].release) == t)
      ++e;
    groups.emplace_back(b, e);
    b = e;
  }
  ASSERT_GT(groups.size(), 1u);
  for (const std::size_t i : streamable_scenarios()) {
    // Every row is ingested before the clock moves, latest release
    // group first: routing still follows release order, with ties in
    // ingestion order, so the batch digest must come out.
    GridSim sim(make_skewed_grid(4, 24, 2.0), golden_options(scenarios[i]));
    sim.begin_streaming();
    for (auto g = groups.rbegin(); g != groups.rend(); ++g)
      for (std::size_t k = g->first; k < g->second; ++k)
        sim.ingest(gs.feed[k], gs.store.tables(), home_of(gs.feed[k], 4));
    const GridSimResult res = sim.finish_streaming();
    EXPECT_EQ(digest_grid_result(sim, res), digests[i].digest)
        << scenarios[i].name;
  }
}

TEST(StreamSim, LateRowRoutesAtTheStreamClock) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenStream gs = golden_stream(4);
  GridSim sim(make_skewed_grid(4, 24, 2.0),
              golden_options(golden_scenarios()[0]));  // isolated
  sim.begin_streaming();
  const Time t = 5.0;
  sim.advance_to(t);
  // An on-time row at the frontier, then a row released before it:
  // both route at the stream clock, in ingestion order.
  HotJob on_time = gs.feed[0];
  on_time.id = 1001;
  on_time.release = t;
  HotJob late = gs.feed[0];
  late.id = 1002;
  late.release = 1.0;
  sim.ingest(on_time, gs.store.tables(), 0);
  sim.ingest(late, gs.store.tables(), 0);
  sim.finish_streaming();
  const auto& recs = sim.cluster(0).local_records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].id, on_time.id);
  EXPECT_EQ(recs[1].id, late.id);
  EXPECT_EQ(recs[0].submit, t);
  EXPECT_EQ(recs[1].submit, t);
}

TEST(StreamSim, GlobalPlanRoutingIsRejected) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[3];
  ASSERT_EQ(sc.routing, GridRouting::kGlobalPlan);
  StreamGridSim svc(make_skewed_grid(4, 24, 2.0), golden_options(sc), {},
                    nullptr);
  const GoldenStream gs = golden_stream(4);
  svc.push(gs.feed[0]);
  EXPECT_THROW(svc.poll(gs.store.tables()), std::invalid_argument);
}

TEST(StreamSim, BackpressureUnderRealProducerThread) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const auto scenarios = golden_scenarios();
  const auto digests = golden_digests();
  const GoldenStream gs = golden_stream(4);
  StreamGridSim::Options sopts;
  sopts.ring_capacity = 4;  // tiny ring: the producer blocks constantly
  sopts.batch = 3;
  StreamGridSim svc(make_skewed_grid(4, 24, 2.0),
                    golden_options(scenarios[0]), sopts, nullptr);
  std::thread producer([&] {
    for (const HotJob& h : gs.feed) svc.push(h);
    svc.close();
  });
  const GridSimResult res = svc.serve(gs.store.tables());
  producer.join();
  EXPECT_EQ(digest_grid_result(svc.grid_sim(), res), digests[0].digest);
  EXPECT_EQ(svc.ingested(), gs.feed.size());
}

TEST(StreamSim, NdjsonSinkSeesEveryCompletionOnce) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  const GoldenStream gs = golden_stream(4);
  std::vector<std::string> lines;
  StreamGridSim::Options sopts;
  sopts.ring_capacity = gs.feed.size() + 1;
  sopts.metrics_interval = 5.0;
  StreamGridSim svc(make_skewed_grid(4, 24, 2.0), golden_options(sc), sopts,
                    [&](const std::string& line) { lines.push_back(line); });
  svc.push_n(gs.feed.data(), gs.feed.size());
  svc.close();
  svc.serve(gs.store.tables());

  std::size_t job_lines = 0, metrics_lines = 0;
  for (const std::string& line : lines) {
    // One self-contained JSON document per sink call: single-line,
    // object-framed, type-tagged.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.rfind("{\"type\":\"job\",", 0) == 0) {
      ++job_lines;
      EXPECT_NE(line.find("\"cluster\":"), std::string::npos);
      EXPECT_NE(line.find("\"finish\":"), std::string::npos);
    } else {
      ASSERT_EQ(line.rfind("{\"type\":\"metrics\",", 0), 0u) << line;
      ++metrics_lines;
      EXPECT_NE(line.find("\"pending_events\":"), std::string::npos);
    }
  }
  std::size_t total_records = 0;
  for (std::size_t c = 0; c < svc.grid_sim().cluster_count(); ++c)
    total_records += svc.grid_sim().cluster(c).local_records().size();
  EXPECT_EQ(job_lines, total_records);
  EXPECT_EQ(svc.records_emitted(), total_records);
  EXPECT_GT(metrics_lines, 0u);
}

TEST(StreamSim, MidStreamCheckpointRestoreIsBitIdentical) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const auto scenarios = golden_scenarios();
  const auto digests = golden_digests();
  const GoldenStream gs = golden_stream(4);
  const LightGrid grid = make_skewed_grid(4, 24, 2.0);

  for (const std::size_t i : streamable_scenarios()) {
    const GridSimOptions opts = golden_options(scenarios[i]);
    for (const std::size_t cut : {std::size_t{1}, gs.feed.size() / 3,
                                  2 * gs.feed.size() / 3}) {
      // Interrupted service: ingest the prefix, snapshot, abandon.
      std::vector<std::string> first_lines;
      StreamGridSim::Options sopts;
      sopts.ring_capacity = gs.feed.size() + 1;
      sopts.batch = 29;
      StreamGridSim first(grid, opts, sopts,
                          [&](const std::string& l) { first_lines.push_back(l); });
      first.push_n(gs.feed.data(), cut);
      while (first.ingested() < cut) first.poll(gs.store.tables());
      ASSERT_EQ(first.ingested(), cut);
      const std::vector<unsigned char> blob = first.checkpoint();

      // Restored service: re-feed the not-yet-ingested suffix and drain.
      std::vector<std::string> rest_lines;
      StreamGridSim second(grid, opts, sopts,
                           [&](const std::string& l) { rest_lines.push_back(l); });
      second.restore(blob);
      ASSERT_EQ(second.ingested(), cut);
      second.push_n(gs.feed.data() + cut, gs.feed.size() - cut);
      second.close();
      const GridSimResult res = second.serve(gs.store.tables());

      EXPECT_EQ(digest_grid_result(second.grid_sim(), res),
                digests[i].digest)
          << scenarios[i].name << " cut=" << cut;

      // The split emits every record exactly once across both halves.
      std::size_t total_records = 0;
      for (std::size_t c = 0; c < second.grid_sim().cluster_count(); ++c)
        total_records +=
            second.grid_sim().cluster(c).local_records().size();
      EXPECT_EQ(first_lines.size() + rest_lines.size(), total_records)
          << scenarios[i].name << " cut=" << cut;
    }
  }
}

TEST(StreamSim, LifecycleGuards) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  const GoldenStream gs = golden_stream(4);
  StreamGridSim svc(make_skewed_grid(4, 24, 2.0), golden_options(sc), {},
                    nullptr);
  EXPECT_THROW(svc.result(), std::logic_error);
  svc.close();
  svc.serve(gs.store.tables());
  EXPECT_TRUE(svc.done());
  EXPECT_THROW(svc.checkpoint(), std::logic_error);
  // A used service cannot be restored into.
  StreamGridSim other(make_skewed_grid(4, 24, 2.0), golden_options(sc), {},
                      nullptr);
  const std::vector<unsigned char> junk;
  EXPECT_THROW(svc.restore(junk), std::logic_error);
  // And a fresh one rejects garbage bytes outright.
  EXPECT_THROW(other.restore(junk), CheckpointError);
}

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

TEST(SpscRing, FifoOrderAndWraparound) {
  SpscRing<int> ring(4);  // rounds to 4: wraps many times below
  int next_out = 0, queued = 0;
  int out[4];
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ++queued;
    // Drain to a varying target occupancy (0..3) so the indices wrap at
    // every phase offset.
    while (queued > i % 4) {
      ASSERT_EQ(ring.pop_n(out, 1), 1u);
      EXPECT_EQ(out[0], next_out++);
      --queued;
    }
  }
  while (ring.pop_n(out, 1) == 1) EXPECT_EQ(out[0], next_out++);
  EXPECT_EQ(next_out, 1000);
}

TEST(SpscRing, TryPushFailsOnlyWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  int out;
  ASSERT_EQ(ring.pop_n(&out, 1), 1u);
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.try_push(3));
}

TEST(SpscRing, BulkPushPopWraparound) {
  SpscRing<int> ring(8);
  int in = 0, out = 0;
  int ibuf[5], obuf[8];
  // Varying batch sizes shift the ring offset every iteration, so the
  // two-segment memcpy split is exercised at every phase.
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(iter % 5);
    for (std::size_t i = 0; i < n; ++i) ibuf[i] = in++;
    ASSERT_EQ(ring.try_push_n(ibuf, n), n);
    ASSERT_EQ(ring.pop_n(obuf, 8), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(obuf[i], out++);
  }
  EXPECT_EQ(out, in);
  EXPECT_EQ(ring.pop_n(obuf, 8), 0u);
}

TEST(SpscRing, TryPushNPartialWhenNearlyFull) {
  SpscRing<int> ring(4);
  int buf[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push_n(buf, 6), 4u);  // partial: only 4 slots free
  EXPECT_EQ(ring.try_push_n(buf, 1), 0u);  // full
  int obuf[4];
  ASSERT_EQ(ring.pop_n(obuf, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(obuf[i], i);
}

TEST(SpscRing, WaitPopNDrainsResidueAfterClose) {
  SpscRing<int> ring(8);
  const int items[3] = {7, 8, 9};
  ring.push_n(items, 3);
  ring.close();  // close mid-batch: the residue must still drain
  int obuf[2];
  ASSERT_EQ(ring.wait_pop_n(obuf, 2), 2u);
  EXPECT_EQ(obuf[0], 7);
  EXPECT_EQ(obuf[1], 8);
  ASSERT_EQ(ring.wait_pop_n(obuf, 2), 1u);
  EXPECT_EQ(obuf[0], 9);
  EXPECT_EQ(ring.wait_pop_n(obuf, 2), 0u);  // closed AND drained
}

TEST(SpscRing, CrossThreadBulkStreamKeepsOrder) {
  constexpr int kItems = 60000;
  SpscRing<int> ring(64);
  std::thread producer([&ring] {
    int next = 0;
    int batch[17];
    while (next < kItems) {
      std::size_t n = 1 + static_cast<std::size_t>(next % 17);
      if (next + static_cast<int>(n) > kItems)
        n = static_cast<std::size_t>(kItems - next);
      for (std::size_t i = 0; i < n; ++i) batch[i] = next++;
      ring.push_n(batch, n);
    }
    ring.close();
  });
  int expected = 0;
  bool ordered = true;
  int buf[16];
  while (const std::size_t n = ring.wait_pop_n(buf, 16)) {
    for (std::size_t i = 0; i < n; ++i)
      ordered = ordered && (buf[i] == expected++);
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(expected, kItems);
}

TEST(SpscRing, CrossThreadStreamKeepsOrder) {
  constexpr int kItems = 50000;
  SpscRing<int> ring(64);
  std::thread producer([&ring] {
    for (int i = 0; i < kItems; ++i) ring.push(i);
    ring.close();
  });
  long long sum = 0;
  int expected = 0;
  bool ordered = true;
  int buf[16];
  while (const std::size_t n = ring.wait_pop_n(buf, 16)) {
    for (std::size_t i = 0; i < n; ++i) {
      ordered = ordered && (buf[i] == expected++);
      sum += buf[i];
    }
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(expected, kItems);
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems - 1) / 2);
}

}  // namespace
}  // namespace lgs
