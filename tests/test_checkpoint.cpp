// Checkpoint/restore: a batch replay snapshotted at time T and restored
// into a fresh engine must finish BIT-IDENTICAL to the uninterrupted
// run — the same pinned golden digests of tests/test_replay_golden.cpp,
// across all four routing modes, volatility churn and the best-effort
// layer.  Plus the rejections: truncation, corruption, version skew,
// config mismatch, element counts the blob cannot back, event keys no
// live run could leave pending, and table refs outside the pool.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "grid_golden_scenarios.h"
#include "sim/grid_sim.h"

namespace lgs {
namespace {

/// Checkpoint instants exercised per scenario: before the first event,
/// mid-churn, and late in the arrival window.
const Time kCheckpointTimes[] = {0.0, 0.75, 7.25, 21.5};

GridSim make_engine(const GoldenScenario& sc) {
  return GridSim(make_skewed_grid(4, 24, 2.0), golden_options(sc));
}

void submit_golden(GridSim& sim) {
  sim.submit_workloads(split_by_community(golden_workload(), 4));
}

TEST(Checkpoint, RunToResumeMatchesUninterruptedRun) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const auto scenarios = golden_scenarios();
  const auto digests = golden_digests();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    GridSim sim = make_engine(scenarios[i]);
    submit_golden(sim);
    sim.run_to(7.25);
    const GridSimResult res = sim.resume();
    EXPECT_EQ(digest_grid_result(sim, res), digests[i].digest)
        << scenarios[i].name;
  }
}

TEST(Checkpoint, RestoreReproducesGoldenDigests) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const auto scenarios = golden_scenarios();
  const auto digests = golden_digests();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (const Time t : kCheckpointTimes) {
      GridSim writer = make_engine(scenarios[i]);
      submit_golden(writer);
      writer.run_to(t);
      const std::vector<unsigned char> blob = writer.checkpoint();

      GridSim reader = make_engine(scenarios[i]);
      reader.restore(blob);
      const GridSimResult res = reader.resume();
      EXPECT_EQ(digest_grid_result(reader, res), digests[i].digest)
          << scenarios[i].name << " @ t=" << t;
    }
  }
}

TEST(Checkpoint, DoubleCheckpointIsStable) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  // checkpoint() is a const observation: two snapshots at the same
  // quiescent point are byte-identical, and a restored engine
  // re-snapshots to the same bytes.
  const GoldenScenario sc = golden_scenarios()[0];
  GridSim writer = make_engine(sc);
  submit_golden(writer);
  writer.run_to(7.25);
  const std::vector<unsigned char> a = writer.checkpoint();
  const std::vector<unsigned char> b = writer.checkpoint();
  EXPECT_EQ(a, b);

  GridSim reader = make_engine(sc);
  reader.restore(a);
  EXPECT_EQ(reader.checkpoint(), a);
}

TEST(Checkpoint, RejectsTruncatedSnapshot) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  GridSim writer = make_engine(sc);
  submit_golden(writer);
  writer.run_to(0.75);
  std::vector<unsigned char> blob = writer.checkpoint();
  blob.resize(blob.size() - 7);
  GridSim reader = make_engine(sc);
  EXPECT_THROW(reader.restore(blob), CheckpointError);
  blob.resize(4);  // shorter than the header
  EXPECT_THROW(reader.restore(blob), CheckpointError);
}

TEST(Checkpoint, RejectsCorruptedSnapshot) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  GridSim writer = make_engine(sc);
  submit_golden(writer);
  writer.run_to(0.75);
  std::vector<unsigned char> blob = writer.checkpoint();
  blob[blob.size() / 2] ^= 0x40;
  GridSim reader = make_engine(sc);
  EXPECT_THROW(reader.restore(blob), CheckpointError);
}

/// Overwrite the `bytes`-wide little-endian field at byte `offset` of a
/// snapshot and re-seal the FNV-1a trailer, so the mutation passes the
/// checksum and reaches the engine parsers — what a crafted or
/// bit-rotted blob can do.
void patch_field(std::vector<unsigned char>& blob, std::size_t offset,
                 std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    blob[offset + i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  const std::size_t body = blob.size() - 8;
  const std::uint64_t sum =
      checkpoint_fnv1a(kCheckpointFnvBasis, blob.data(), body);
  for (int i = 0; i < 8; ++i)
    blob[body + i] = static_cast<unsigned char>((sum >> (8 * i)) & 0xff);
}

void patch_u64(std::vector<unsigned char>& blob, std::size_t offset,
               std::uint64_t v) {
  patch_field(blob, offset, v, 8);
}

/// Byte offset of the next unread field of `r` inside `blob`.
std::size_t offset_of(const CheckpointReader& r,
                      const std::vector<unsigned char>& blob) {
  return blob.size() - 8 - r.remaining();
}

/// Skip a GridSim snapshot's header fields: engine tag, config digest,
/// the two mode flags, clock, next id and executed count.
void skip_gridsim_header(CheckpointReader& r) {
  r.str();
  r.u64();
  r.u8();
  r.u8();
  r.f64();
  r.u64();
  r.u64();
}

TEST(Checkpoint, RejectsHugeTablePoolCount) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  GridSim writer = make_engine(sc);
  submit_golden(writer);
  writer.run_to(7.25);
  std::vector<unsigned char> blob = writer.checkpoint();
  // The table-pool time count of the job store follows the header.
  CheckpointReader r(blob);
  skip_gridsim_header(r);
  const std::size_t at = offset_of(r, blob);
  ASSERT_EQ(at, 61u);
  patch_u64(blob, at, std::uint64_t{1} << 61);
  GridSim reader = make_engine(sc);
  EXPECT_THROW(reader.restore(blob), CheckpointError);
}

TEST(Checkpoint, RejectsHugeArrivalCounts) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  GridSim writer = make_engine(sc);
  submit_golden(writer);
  writer.run_to(7.25);
  const std::vector<unsigned char> blob = writer.checkpoint();
  // Walk to the arrival section's counts: pending table, plan, tail.
  CheckpointReader r(blob);
  skip_gridsim_header(r);
  JobStore scratch;
  load_job_store(r, scratch);
  std::vector<std::size_t> counts;
  counts.push_back(offset_of(r, blob));
  for (std::uint64_t n = r.u64(); n > 0; --n) r.u64();
  counts.push_back(offset_of(r, blob));
  for (std::uint64_t n = r.u64(); n > 0; --n) r.u32();
  counts.push_back(offset_of(r, blob));
  ASSERT_GT(r.u64(), 0u);  // arrivals are still unrouted at t = 7.25
  for (const std::size_t at : counts) {
    for (const std::uint64_t huge :
         {std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
      std::vector<unsigned char> bad = blob;
      patch_u64(bad, at, huge);
      GridSim reader = make_engine(sc);
      EXPECT_THROW(reader.restore(bad), CheckpointError)
          << "count at byte " << at << " = " << huge;
    }
  }
}

TEST(Checkpoint, RejectsPumpTimeInThePast) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  GridSim writer = make_engine(sc);
  submit_golden(writer);
  writer.run_to(7.25);
  std::vector<unsigned char> blob = writer.checkpoint();
  // Walk the arrival section (store, pending table, plan, unrouted tail,
  // migrations) to the pump's (id, time).
  CheckpointReader r(blob);
  skip_gridsim_header(r);
  JobStore scratch;
  load_job_store(r, scratch);
  for (std::uint64_t n = r.u64(); n > 0; --n) r.u64();
  for (std::uint64_t n = r.u64(); n > 0; --n) r.u32();
  std::uint64_t tail = r.u64();
  ASSERT_GT(tail, 0u);  // the pump is in flight at t = 7.25
  for (; tail > 0; --tail) r.u32();
  r.i64();
  r.u64();
  const double past = -1.0;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &past, sizeof bits);
  patch_u64(blob, offset_of(r, blob), bits);
  GridSim reader = make_engine(sc);
  EXPECT_THROW(reader.restore(blob), CheckpointError);
}

/// A snapshot whose job store holds one tabulated job (time table in
/// the pool), taken mid-run.
std::vector<unsigned char> table_job_snapshot(const GoldenScenario& sc) {
  GridSim writer = make_engine(sc);
  submit_golden(writer);
  writer.submit(0, Job::moldable(9001, ExecModel::table({4.0, 2.5, 2.0}), 1,
                                 3, /*release=*/1.0));
  writer.run_to(0.75);
  return writer.checkpoint();
}

TEST(Checkpoint, RejectsTableDescriptorOutsidePool) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  std::vector<unsigned char> blob = table_job_snapshot(sc);
  // The job store's pool: time count, times, descriptor count, then
  // (offset, length) per table.
  CheckpointReader r(blob);
  skip_gridsim_header(r);
  for (std::uint64_t n = r.u64(); n > 0; --n) r.f64();
  ASSERT_GE(r.u64(), 1u);
  const std::size_t at = offset_of(r, blob);
  for (const std::uint64_t desc :
       {std::uint64_t{1000} << 32, (std::uint64_t{1} << 32) | 0xfffffff0u,
        std::uint64_t{0}}) {
    std::vector<unsigned char> bad = blob;
    patch_u64(bad, at, desc);
    GridSim reader = make_engine(sc);
    EXPECT_THROW(reader.restore(bad), CheckpointError)
        << "descriptor (off, len) = " << (desc & 0xffffffffu) << ", "
        << (desc >> 32);
  }
}

/// Byte offset of the tabulated job's `exec_c` in `blob`'s job store
/// (its exec kind byte follows it); `*tables` receives the pool's table
/// count.
std::size_t table_row_offset(const std::vector<unsigned char>& blob,
                             std::uint64_t* tables) {
  CheckpointReader r(blob);
  skip_gridsim_header(r);
  for (std::uint64_t n = r.u64(); n > 0; --n) r.f64();
  *tables = r.u64();
  for (std::uint64_t n = *tables; n > 0; --n) r.u64();
  // Rows: five f64, four 32-bit fields, exec_c, exec kind, job kind.
  std::size_t table_ref = 0;
  for (std::uint64_t n = r.u64(); n > 0; --n) {
    for (int i = 0; i < 5; ++i) r.f64();
    for (int i = 0; i < 4; ++i) r.u32();
    const std::size_t at = offset_of(r, blob);
    r.u32();
    if (r.u8() == static_cast<std::uint8_t>(ExecKind::kTable)) table_ref = at;
    r.u8();
  }
  return table_ref;
}

TEST(Checkpoint, RejectsTableRefOutsidePool) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  std::vector<unsigned char> blob = table_job_snapshot(sc);
  std::uint64_t tables = 0;
  const std::size_t at = table_row_offset(blob, &tables);
  ASSERT_NE(at, 0u);
  patch_field(blob, at, tables, 4);
  GridSim reader = make_engine(sc);
  EXPECT_THROW(reader.restore(blob), CheckpointError);
}

TEST(Checkpoint, RejectsUnknownExecKind) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  std::vector<unsigned char> blob = table_job_snapshot(sc);
  std::uint64_t tables = 0;
  const std::size_t at = table_row_offset(blob, &tables);
  ASSERT_NE(at, 0u);
  patch_field(blob, at + 4, 200, 1);
  GridSim reader = make_engine(sc);
  EXPECT_THROW(reader.restore(blob), CheckpointError);
}

TEST(CheckpointFraming, CountBeyondPayloadRejected) {
  CheckpointWriter w;
  w.u64(3);
  w.f64(1.0);
  w.f64(2.0);
  w.f64(3.0);
  w.u64(4);
  w.f64(1.0);
  const std::vector<unsigned char> blob = w.finish();
  CheckpointReader r(blob);
  EXPECT_EQ(r.count(8), 3u);
  for (int i = 0; i < 3; ++i) r.f64();
  EXPECT_THROW(r.count(8), CheckpointError);
}

TEST(Checkpoint, RejectsVersionSkew) {
  // Hand-assemble an otherwise valid (checksummed) blob carrying a
  // future format version: the reader must refuse it outright.
  std::vector<unsigned char> blob(kCheckpointMagic,
                                  kCheckpointMagic + sizeof kCheckpointMagic);
  const std::uint32_t version = kCheckpointVersion + 1;
  for (int i = 0; i < 4; ++i)
    blob.push_back(static_cast<unsigned char>((version >> (8 * i)) & 0xff));
  const std::uint64_t sum =
      checkpoint_fnv1a(kCheckpointFnvBasis, blob.data(), blob.size());
  for (int i = 0; i < 8; ++i)
    blob.push_back(static_cast<unsigned char>((sum >> (8 * i)) & 0xff));
  EXPECT_THROW(CheckpointReader r(blob), CheckpointError);
}

TEST(Checkpoint, RejectsForeignBytes) {
  const std::string junk = "this is not a snapshot, not even close....";
  const std::vector<unsigned char> blob(junk.begin(), junk.end());
  EXPECT_THROW(CheckpointReader r(blob), CheckpointError);
}

TEST(Checkpoint, RejectsConfigMismatch) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  GridSim writer = make_engine(sc);
  submit_golden(writer);
  writer.run_to(0.75);
  const std::vector<unsigned char> blob = writer.checkpoint();

  GridSimOptions other = golden_options(sc);
  other.volatility_seed += 1;  // any config drift must be caught
  GridSim reader(make_skewed_grid(4, 24, 2.0), other);
  EXPECT_THROW(reader.restore(blob), CheckpointError);

  GridSim smaller(make_skewed_grid(3, 24, 2.0), golden_options(sc));
  EXPECT_THROW(smaller.restore(blob), CheckpointError);
}

TEST(Checkpoint, LifecycleGuards) {
  if (!rng_matches_reference_library()) GTEST_SKIP();
  const GoldenScenario sc = golden_scenarios()[0];
  GridSim sim = make_engine(sc);
  EXPECT_THROW(sim.checkpoint(), std::logic_error);
  EXPECT_THROW(sim.resume(), std::logic_error);
  submit_golden(sim);
  sim.run_to(0.75);
  const std::vector<unsigned char> blob = sim.checkpoint();
  // A used engine cannot be restored into.
  EXPECT_THROW(sim.restore(blob), std::logic_error);
  sim.resume();
}

TEST(CheckpointFraming, PrimitiveRoundTrip) {
  CheckpointWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(3.14159);
  w.f64(-0.0);
  w.str("hello snapshot");
  const unsigned char raw[3] = {1, 2, 3};
  w.bytes(raw, sizeof raw);
  const std::vector<unsigned char> blob = w.finish();

  CheckpointReader r(blob);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f64(), 3.14159);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // raw IEEE bits, not a text trip
  EXPECT_EQ(r.str(), "hello snapshot");
  unsigned char back[3] = {0, 0, 0};
  r.bytes(back, sizeof back);
  EXPECT_EQ(back[2], 3);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.u8(), CheckpointError);
}

TEST(CheckpointFraming, ByteRunLengthMismatchRejected) {
  CheckpointWriter w;
  const unsigned char raw[4] = {9, 9, 9, 9};
  w.bytes(raw, sizeof raw);
  const std::vector<unsigned char> blob = w.finish();
  CheckpointReader r(blob);
  unsigned char back[8];
  EXPECT_THROW(r.bytes(back, sizeof back), CheckpointError);
}

}  // namespace
}  // namespace lgs
