// JobStore: hot/cold SoA job storage — the trace representation of the
// arena-backed replay stack.
//
// The legacy `JobSet` (std::vector<Job>) stays the interchange type for
// the offline pt/ algorithms, but a fat Job embeds an ExecModel variant
// with a potentially heap-allocated table, so a million-job trace paid a
// million small allocations — and every deep copy across the grid stack
// (split_by_community, GridSim pending, per-cluster submitted) paid them
// again.  A JobStore keeps:
//
//   * a HOT slab: one 64-byte POD `HotJob` row per job, carrying every
//     field the dynamic engines touch per event (release, weight, due,
//     allotment range, community) plus a compact 24-byte ExecRef exec
//     handle — allocated from a replay arena when one is attached;
//   * a COLD slab: one shared TablePool holding all tabulated execution
//     times ({off,len} descriptors into one contiguous vector).
//
// The store is append-only.  `job(i)` materializes a fat Job on demand
// and `to_jobset()` converts wholesale — the bridge to pt/ code — while
// the engines read HotJob rows in place and evaluate through exec_time /
// exec_useful_limit, bit-identically to the fat path.
#pragma once

#include <cstdint>

#include "core/arena.h"
#include "core/exec_model.h"
#include "core/job.h"

namespace lgs {

/// One hot-slab row.  The ExecRef handle is stored flattened (exec_a /
/// exec_b / exec_c / exec_kind) so the row packs to exactly 64 bytes —
/// one cache line per job.  POD: rows are memcpy-safe and
/// arena-allocatable.
struct HotJob {
  Time release = 0.0;
  double weight = 1.0;
  Time due = kNoDueDate;
  double exec_a = 0.0;
  double exec_b = 0.0;
  JobId id = kInvalidJob;
  std::int32_t min_procs = 1;
  std::int32_t max_procs = 1;
  std::int32_t community = 0;
  std::uint32_t exec_c = 0;
  ExecKind exec_kind = ExecKind::kSeq;
  JobKind kind = JobKind::kMoldable;

  ExecRef exec_ref() const { return ExecRef{exec_a, exec_b, exec_c, exec_kind}; }
  void set_exec_ref(const ExecRef& r) {
    exec_a = r.a;
    exec_b = r.b;
    exec_c = r.c;
    exec_kind = r.kind;
  }
};
static_assert(sizeof(HotJob) == 64, "one cache line per hot job row");

class JobStore {
 public:
  /// Standalone store (hot slab on the global heap) — workload builders
  /// construct traces this way.
  JobStore() = default;
  /// Arena-backed store: the hot slab lives in `arena` and is released
  /// with it.  The cold TablePool stays on the heap (append-only, sized
  /// by distinct tables, not by jobs).
  explicit JobStore(ArenaRef arena) : hot_(ArenaAllocator<HotJob>(arena)) {}

  JobStore(JobStore&&) = default;
  JobStore& operator=(JobStore&&) = default;
  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  /// Append a fat Job (compacting its ExecModel into the slabs).
  void append(const Job& j);

  /// Append a rigid job directly: no ExecModel, no table — the constant
  /// duration lives inline in the ExecRef (kind kRigidConst).
  /// Bit-identical to append(Job::rigid(...)).
  void append_rigid(JobId id, int procs, Time duration, Time release = 0.0,
                    double weight = 1.0);

  std::size_t size() const { return hot_.size(); }
  bool empty() const { return hot_.empty(); }

  const HotJob& operator[](std::size_t i) const { return hot_[i]; }
  HotJob& operator[](std::size_t i) { return hot_[i]; }
  const TablePool& tables() const { return pool_; }

  void reserve(std::size_t n) { hot_.reserve(n); }

  /// Pass-2 arrival assignment in the trace generators mutates releases
  /// in place.
  void set_release(std::size_t i, Time r) { hot_[i].release = r; }

  /// Execution time of row `i` on k processors (bit-identical to
  /// Job::time on the fat equivalent, minus the range check the engines
  /// already guarantee).
  Time time(std::size_t i, int k) const {
    return exec_time(hot_[i].exec_ref(), pool_, k);
  }

  /// Fastest achievable time given at most m processors — Job::best_time.
  Time best_time(std::size_t i, int m) const;

  /// ExecModel::useful_limit through the compact handle.
  int useful_limit(std::size_t i, int limit) const {
    return exec_useful_limit(hot_[i].exec_ref(), pool_, limit);
  }

  /// Materialize row `i` as a fat Job (rebuilding its ExecModel).
  Job job(std::size_t i) const;

  /// Whole-store conversion — the JobSet view for offline pt/ algorithms
  /// and legacy call sites.
  JobSet to_jobset() const;

  /// Checkpoint surface (core/checkpoint): append one restored row
  /// verbatim (its exec_c already indexes this store's restored pool)
  /// and expose the pool for slab restoration.
  void append_raw(const HotJob& h) { hot_.push_back(h); }
  TablePool& mutable_tables() { return pool_; }

  /// Hot-slab footprint in bytes (capacity, the figure that lands in the
  /// arena or on the heap).
  std::size_t hot_bytes() const { return hot_.capacity() * sizeof(HotJob); }
  /// Cold-slab footprint in bytes.
  std::size_t cold_bytes() const { return pool_.bytes(); }

 private:
  ArenaVec<HotJob> hot_;
  TablePool pool_;
};

/// Build a store from a legacy JobSet (compacting every model).
JobStore to_job_store(const JobSet& jobs, ArenaRef arena = {});

// ---------------------------------------------------------------------------
// Checkpoint serialization helpers (core/checkpoint) shared by every
// engine that snapshots job rows.  All FIELD-WISE — HotJob and the pool
// descriptors carry padding, and raw struct dumps would embed
// nondeterministic bytes into a checksummed snapshot.
// ---------------------------------------------------------------------------

class CheckpointReader;
class CheckpointWriter;

/// Encoded size of one save_hot_job row (five f64, five 32-bit fields,
/// two u8) — the unit of the restore count guards.
inline constexpr std::size_t kHotJobCheckpointBytes = 5 * 8 + 5 * 4 + 2;

void save_hot_job(CheckpointWriter& w, const HotJob& h);
/// Throws CheckpointError on an unknown kind or a table ref outside
/// `tables` (the already-restored pool the row indexes into).
HotJob load_hot_job(CheckpointReader& r, const TablePool& tables);

void save_table_pool(CheckpointWriter& w, const TablePool& pool);
/// Restores into `pool` (dropping its previous slabs).  Throws
/// CheckpointError on a descriptor outside the restored times.
void load_table_pool(CheckpointReader& r, TablePool& pool);

/// Whole-store snapshot: pool + every hot row.
void save_job_store(CheckpointWriter& w, const JobStore& store);
/// Restore into an EMPTY store (throws CheckpointError otherwise).
void load_job_store(CheckpointReader& r, JobStore& store);

}  // namespace lgs
