#include "core/job_store.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"

namespace lgs {

void JobStore::append(const Job& j) {
  HotJob h;
  h.release = j.release;
  h.weight = j.weight;
  h.due = j.due;
  h.id = j.id;
  h.min_procs = j.min_procs;
  h.max_procs = j.max_procs;
  h.community = j.community;
  h.kind = j.kind;
  h.set_exec_ref(j.model.compact(pool_));
  hot_.push_back(h);
}

void JobStore::append_rigid(JobId id, int procs, Time duration, Time release,
                            double weight) {
  // Same validation ExecModel::table applies on the Job::rigid path.
  if (duration <= 0) throw std::invalid_argument("table times must be positive");
  if (procs < 1) throw std::invalid_argument("processor count must be >= 1");
  HotJob h;
  h.release = release;
  h.weight = weight;
  h.id = id;
  h.min_procs = procs;
  h.max_procs = procs;
  h.kind = JobKind::kRigid;
  h.exec_kind = ExecKind::kRigidConst;
  h.exec_a = duration;
  hot_.push_back(h);
}

Time JobStore::best_time(std::size_t i, int m) const {
  const HotJob& h = hot_[i];
  const int k = std::min(h.max_procs, m);
  return exec_time(h.exec_ref(), pool_, k);
}

Job JobStore::job(std::size_t i) const {
  const HotJob& h = hot_[i];
  Job j;
  j.id = h.id;
  j.kind = h.kind;
  j.release = h.release;
  j.weight = h.weight;
  j.due = h.due;
  j.min_procs = h.min_procs;
  j.max_procs = h.max_procs;
  j.community = h.community;
  j.model = ExecModel::from_ref(h.exec_ref(), pool_);
  return j;
}

JobSet JobStore::to_jobset() const {
  JobSet out;
  out.reserve(hot_.size());
  for (std::size_t i = 0; i < hot_.size(); ++i) out.push_back(job(i));
  return out;
}

JobStore to_job_store(const JobSet& jobs, ArenaRef arena) {
  JobStore store(arena);
  store.reserve(jobs.size());
  for (const Job& j : jobs) store.append(j);
  return store;
}

void save_hot_job(CheckpointWriter& w, const HotJob& h) {
  w.f64(h.release);
  w.f64(h.weight);
  w.f64(h.due);
  w.f64(h.exec_a);
  w.f64(h.exec_b);
  w.u32(h.id);
  w.i32(h.min_procs);
  w.i32(h.max_procs);
  w.i32(h.community);
  w.u32(h.exec_c);
  w.u8(static_cast<std::uint8_t>(h.exec_kind));
  w.u8(static_cast<std::uint8_t>(h.kind));
}

HotJob load_hot_job(CheckpointReader& r, const TablePool& tables) {
  HotJob h;
  h.release = r.f64();
  h.weight = r.f64();
  h.due = r.f64();
  h.exec_a = r.f64();
  h.exec_b = r.f64();
  h.id = r.u32();
  h.min_procs = r.i32();
  h.max_procs = r.i32();
  h.community = r.i32();
  h.exec_c = r.u32();
  const std::uint8_t exec_kind = r.u8();
  const std::uint8_t kind = r.u8();
  if (exec_kind > static_cast<std::uint8_t>(ExecKind::kRigidConst) ||
      kind > static_cast<std::uint8_t>(JobKind::kMalleable))
    throw CheckpointError("job row with an unknown exec or job kind");
  h.exec_kind = static_cast<ExecKind>(exec_kind);
  h.kind = static_cast<JobKind>(kind);
  if (h.exec_kind == ExecKind::kTable && h.exec_c >= tables.tables())
    throw CheckpointError("job row references an unknown time table");
  return h;
}

void save_table_pool(CheckpointWriter& w, const TablePool& pool) {
  const std::vector<Time>& times = pool.times_raw();
  w.u64(times.size());
  for (Time t : times) w.f64(t);
  w.u64(pool.tables());
  for (std::uint32_t ref = 0; ref < pool.tables(); ++ref) {
    w.u32(pool.off(ref));
    w.u32(pool.len(ref));
  }
}

void load_table_pool(CheckpointReader& r, TablePool& pool) {
  std::vector<Time> times(r.count(8));
  for (Time& t : times) t = r.f64();
  const std::uint64_t n_times = times.size();
  pool.restore_times(std::move(times));
  const std::uint64_t descs = r.count(8);
  for (std::uint64_t i = 0; i < descs; ++i) {
    const std::uint32_t off = r.u32();
    const std::uint32_t len = r.u32();
    // Every table is a non-empty run of the restored times.
    if (len == 0 || std::uint64_t{off} + len > n_times)
      throw CheckpointError("time table descriptor outside the pool");
    pool.restore_desc(off, len);
  }
}

void save_job_store(CheckpointWriter& w, const JobStore& store) {
  save_table_pool(w, store.tables());
  w.u64(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) save_hot_job(w, store[i]);
}

void load_job_store(CheckpointReader& r, JobStore& store) {
  if (!store.empty())
    throw CheckpointError("job store restore requires an empty store");
  load_table_pool(r, store.mutable_tables());
  const std::uint64_t n = r.count(kHotJobCheckpointBytes);
  store.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    store.append_raw(load_hot_job(r, store.tables()));
}

}  // namespace lgs
