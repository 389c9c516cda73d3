#include "sim/online_cluster.h"

#include <algorithm>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/profiler.h"

namespace lgs {

OnlineCluster::OnlineCluster(Simulator& sim, const Cluster& desc, Options opts,
                             ArenaRef arena)
    : sim_(sim),
      desc_(desc),
      opts_(std::move(opts)),
      qpolicy_(make_queue_policy(opts_.policy)),
      procs_total_(desc.processors()),
      queue_(arena),
      running_(ArenaAllocator<RunningLocal>(arena)),
      be_running_(ArenaAllocator<RunningBe>(arena)),
      records_(ArenaAllocator<LocalJobRecord>(arena)),
      submitted_(ArenaAllocator<HotJob>(arena)),
      dispatch_ctx_([this](std::vector<QueuedJobView>& queue,
                           std::vector<RunningJobView>& running) {
        fill_views(queue, running);
      }),
      wait_scratch_(ArenaAllocator<const RunningLocal*>(arena)) {
  if (procs_total_ < 1)
    throw std::invalid_argument("cluster without processors");
  capacity_ = procs_total_;
  free_ = procs_total_;
}

void OnlineCluster::reserve_submissions(std::size_t n) {
  records_.reserve(records_.size() + n);
  submitted_.reserve(submitted_.size() + n);
}

void OnlineCluster::set_capacity(int procs) {
  if (procs < 1 || procs > procs_total_)
    throw std::invalid_argument("capacity outside [1, processors()]");
  const int delta = procs - capacity_;
  capacity_ = procs;
  free_ += delta;
  ++volatility_.capacity_changes;
  // Shrinking may leave free_ negative: evict until consistent —
  // best-effort runs first (they are killable by design), then the most
  // recently started local jobs.
  while (free_ < 0 && !be_running_.empty()) kill_best_effort(1);
  while (free_ < 0) {
    if (running_.empty())
      throw std::logic_error("volatility eviction found nothing to evict");
    std::size_t victim = 0;
    Time latest = -kTimeInfinity;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      const Time started = records_[running_[i].record].start;
      if (started > latest) {
        latest = started;
        victim = i;
      }
    }
    const RunningLocal evicted = running_[victim];
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(victim));
    sim_.cancel(evicted.completion);
    free_ += evicted.procs;
    account(-evicted.procs, 0);
    ++volatility_.local_preemptions;
    volatility_.local_wasted +=
        static_cast<double>(evicted.procs) *
        (sim_.now() - records_[evicted.record].start);
    // Resubmit at the head of the queue; progress is lost (restart).
    Queued q{evicted.record, sim_.now(), 0};
    qpolicy_->on_completion(evicted.record);  // the run is gone
    qpolicy_->on_submit(view_of(q));
    queue_.push_front(q);
    queue_min_priority_ = std::min(queue_min_priority_, q.priority);
  }
  dispatch();
}

void OnlineCluster::set_besteffort_source(BestEffortSource source) {
  be_source_ = std::move(source);
  // New supply may fill currently idle processors.  The event id is
  // kept so a checkpoint taken before it fires can account for it.
  be_bootstrap_time_ = sim_.now();
  be_bootstrap_ = sim_.after(0.0, [this] { dispatch(); }, /*priority=*/1);
}

int OnlineCluster::allotment_for(const HotJob& h) const {
  const int hi = std::min<int>(h.max_procs, procs_total_);
  if (hi < h.min_procs)
    throw std::invalid_argument("job wider than the cluster");
  return std::max<int>(h.min_procs, exec_useful_limit(h.exec_ref(), pool_, hi));
}

void OnlineCluster::submit_local(const Job& j, int queue_priority) {
  // Compact the fat job into a 64-byte hot row (tables interned into
  // this cluster's pool) and run the hot path — the two entry points
  // are bit-identical by construction.
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
  submit_hot(h, queue_priority);
}

void OnlineCluster::submit_local(const HotJob& h, const TablePool& tables,
                                 int queue_priority) {
  HotJob local = h;
  // Re-intern table refs so the engine never dangles into the caller's
  // store; every other kind carries its parameters inline.
  if (local.exec_kind == ExecKind::kTable)
    local.exec_c = pool_.intern(tables.data(h.exec_c), tables.len(h.exec_c));
  submit_hot(local, queue_priority);
}

void OnlineCluster::submit_hot(const HotJob& h, int queue_priority) {
  LGS_PROF_COUNT("cluster.submits", 1);
  if (h.release > sim_.now() + kTimeEps) {
    // 64-byte POD capture — the deferred-release timer no longer copies
    // a fat Job into the event slot.
    sim_.at(h.release,
            [this, h, queue_priority] { submit_hot(h, queue_priority); },
            /*priority=*/-1);
    return;
  }
  LocalJobRecord rec;
  rec.id = h.id;
  rec.community = h.community;
  rec.submit = sim_.now();
  const int k = allotment_for(h);
  rec.procs = k;
  rec.best_duration =
      exec_time(h.exec_ref(), pool_, std::min<int>(h.max_procs, procs_total_)) /
      desc_.speed;
  records_.push_back(rec);
  submitted_.push_back(h);
  // Insert behind every queued job of equal or higher priority (the §1.2
  // priority files: strict priority between files, FCFS inside one).
  // Fast path: when no queued entry can have a lower priority than the
  // submission, the insertion point is provably the end — the scan (and
  // its O(queue) cost per submit) only runs for genuine multi-priority
  // interleavings.
  Queued entry{records_.size() - 1, sim_.now(), queue_priority};
  qpolicy_->on_submit(view_of(entry));
  if (queue_.empty() || queue_priority <= queue_min_priority_) {
    queue_.push_back(entry);
  } else {
    std::size_t pos = queue_.size();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].priority < queue_priority) {
        pos = i;
        break;
      }
    }
    queue_.insert(pos, entry);
  }
  queue_min_priority_ = std::min(queue_min_priority_, queue_priority);
  dispatch();
}

QueuedJobView OnlineCluster::view_of(const Queued& q) const {
  const HotJob& job = submitted_[q.record];
  QueuedJobView view;
  view.id = job.id;
  view.record = q.record;
  view.procs = records_[q.record].procs;
  view.duration = exec_time(job.exec_ref(), pool_, view.procs) / desc_.speed;
  view.submit = q.submit;
  view.priority = q.priority;
  return view;
}

void OnlineCluster::fill_views(std::vector<QueuedJobView>& queue,
                               std::vector<RunningJobView>& running) const {
  // Views materialize lazily from the *current* engine state, so the
  // filler is re-invoked after every pick without the engine having to
  // maintain a parallel copy.
  queue.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i)
    queue.push_back(view_of(queue_[i]));
  running.reserve(running_.size());
  for (const RunningLocal& r : running_)
    running.push_back(RunningJobView{r.record, r.procs, r.finish});
}

void OnlineCluster::refresh_dispatch_context() {
  DispatchContext& ctx = dispatch_ctx_;
  ctx.reset();
  ctx.now = sim_.now();
  ctx.free_procs = free_;
  ctx.killable_procs = killable_procs();
  ctx.capacity = capacity_;
  ctx.total_procs = procs_total_;
  ctx.speed = desc_.speed;
  ctx.head_procs =
      queue_.empty() ? 0 : records_[queue_.front().record].procs;
}

void OnlineCluster::account(int delta_local, int delta_be) {
  const Time now = sim_.now();
  const double span = now - last_change_;
  if (span > 0) {
    local_busy_integral_ += span * local_busy_now_;
    busy_integral_ += span * (local_busy_now_ + be_busy_now_);
  }
  last_change_ = now;
  local_busy_now_ += delta_local;
  be_busy_now_ += delta_be;
}

double OnlineCluster::busy_integral() const {
  const double span = sim_.now() - last_change_;
  return busy_integral_ + span * (local_busy_now_ + be_busy_now_);
}

double OnlineCluster::local_busy_integral() const {
  const double span = sim_.now() - last_change_;
  return local_busy_integral_ + span * local_busy_now_;
}

double OnlineCluster::expected_wait(int procs) const {
  LGS_PROF_COUNT("cluster.expected_wait_calls", 1);
  if (procs < 1)
    throw std::invalid_argument("expected_wait needs procs >= 1");
  // Wider than the volatility-shrunk capacity: the wait is unbounded
  // until nodes return — signal infinity so no exchange policy routes a
  // wide job into a crippled cluster (mirrors the too-small-cluster bid).
  if (procs > capacity_) return kTimeInfinity;
  double work = 0.0;  // processor-seconds of wall time still owed
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Queued& q = queue_[i];
    const HotJob& h = submitted_[q.record];
    work += static_cast<double>(records_[q.record].procs) *
            exec_time(h.exec_ref(), pool_,
                      std::min<int>(h.max_procs, procs_total_)) /
            desc_.speed;
  }
  for (const RunningLocal& r : running_)
    work += static_cast<double>(r.procs) *
            std::max(0.0, r.finish - sim_.now());
  const double backlog = work / capacity_;
  if (procs <= free_ + killable_procs()) return backlog;
  // Width term: a `procs`-wide job must wait for enough running local
  // jobs to finish before that many processors are simultaneously free
  // (best-effort runs are killable and therefore free on demand).  Walk
  // the completions in finish order (reused scratch: the exchange
  // policies call this per routed job).
  ArenaVec<const RunningLocal*>& by_finish = wait_scratch_;
  by_finish.clear();
  by_finish.reserve(running_.size());
  for (const RunningLocal& r : running_) by_finish.push_back(&r);
  std::sort(by_finish.begin(), by_finish.end(),
            [](const RunningLocal* a, const RunningLocal* b) {
              return a->finish < b->finish;
            });
  double width_wait = 0.0;
  int avail = free_ + killable_procs();
  for (const RunningLocal* r : by_finish) {
    avail += r->procs;
    width_wait = std::max(0.0, r->finish - sim_.now());
    if (avail >= procs) break;
  }
  return std::max(backlog, width_wait);
}

void OnlineCluster::kill_best_effort(int count) {
  for (int k = 0; k < count; ++k) {
    if (be_running_.empty()) throw std::logic_error("no best-effort to kill");
    std::size_t victim = 0;
    for (std::size_t i = 1; i < be_running_.size(); ++i) {
      const RunningBe& a = be_running_[i];
      const RunningBe& b = be_running_[victim];
      switch (opts_.kill_policy) {
        case KillPolicy::kYoungestFirst:
          if (a.start > b.start) victim = i;
          break;
        case KillPolicy::kOldestFirst:
          if (a.start < b.start) victim = i;
          break;
        case KillPolicy::kLongestRemaining:
          if (a.finish > b.finish) victim = i;
          break;
      }
    }
    const RunningBe be = be_running_[victim];
    be_running_.erase(be_running_.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    sim_.cancel(be.completion);
    account(0, -1);
    ++free_;
    ++be_stats_.killed;
    LGS_PROF_COUNT("cluster.be_kills", 1);
    be_stats_.wasted_time += sim_.now() - be.start;
    if (be_source_.on_kill) be_source_.on_kill(be.duration);
  }
}

void OnlineCluster::start_local(std::size_t queue_index) {
  const Queued q = queue_[queue_index];
  queue_.erase(queue_index);
  if (queue_.empty()) queue_min_priority_ = std::numeric_limits<int>::max();
  LocalJobRecord& rec = records_[q.record];
  const int k = rec.procs;
  if (k > free_ + killable_procs())
    throw std::logic_error("start_local without room");
  if (k > free_) kill_best_effort(k - free_);
  LGS_PROF_COUNT("cluster.starts", 1);
  const Time dur =
      exec_time(submitted_[q.record].exec_ref(), pool_, k) / desc_.speed;
  rec.start = sim_.now();
  rec.finish = sim_.now() + dur;
  free_ -= k;
  account(k, 0);
  const std::size_t record_index = q.record;
  const EventId completion = sim_.at(
      rec.finish, [this, record_index] { finish_local(record_index); });
  running_.push_back({q.record, k, rec.finish, completion});
}

void OnlineCluster::finish_local(std::size_t record_index) {
  const auto it = std::find_if(running_.begin(), running_.end(),
                               [&](const RunningLocal& r) {
                                 return r.record == record_index;
                               });
  if (it == running_.end())
    throw std::logic_error("completion for unknown local job");
  free_ += it->procs;
  account(-it->procs, 0);
  qpolicy_->on_completion(record_index);
  running_.erase(it);
  dispatch();
}

void OnlineCluster::dispatch() {
  LGS_PROF_COUNT("cluster.dispatch_cycles", 1);
  // Phase 1: local jobs, ordered by the injected queue policy.
  // Best-effort runs never block a local job — they are killable, so a
  // pick fits whenever free + killable >= procs.  One context serves
  // every pick of the cycle; on_started keeps it (and its lazily built
  // skyline) in sync, so policies never rebuild a Profile per event.
  if (!queue_.empty()) {
    // The zone opens only when there is queue work to order: an empty
    // cycle is a few nanoseconds and would be mostly zone overhead.
    LGS_PROF_ZONE("cluster.dispatch");
    LGS_PROF_HIGHWATER("cluster.queue_depth_highwater", queue_.size());
    refresh_dispatch_context();
    DispatchContext& ctx = dispatch_ctx_;
    while (!queue_.empty()) {
      const std::size_t pick = qpolicy_->pick_next(ctx);
      if (pick == kNoPick) break;
      if (pick >= queue_.size())
        throw std::logic_error("queue policy picked outside the queue");
      const QueuedJobView started = view_of(queue_[pick]);
      if (started.procs > free_ + killable_procs())
        throw std::logic_error("queue policy picked a job that does not fit");
      start_local(pick);
      // Keep the shared context current: profile updated incrementally,
      // views re-materialized on demand, scalars refreshed here.
      ctx.on_started(started);
      ctx.free_procs = free_;
      ctx.killable_procs = killable_procs();
      ctx.head_procs =
          queue_.empty() ? 0 : records_[queue_.front().record].procs;
    }
  }

  // Phase 2: fill remaining holes with best-effort runs (§5.2).
  if (be_source_.request && free_ > 0) {
    const std::vector<Time> grants = be_source_.request(free_);
    for (Time unit_duration : grants) {
      if (free_ <= 0) throw std::logic_error("best-effort overcommit");
      RunningBe be;
      be.start = sim_.now();
      be.duration = unit_duration;
      be.finish = sim_.now() + unit_duration / desc_.speed;
      --free_;
      account(0, 1);
      ++be_stats_.started;
      const Time finish = be.finish;
      be.completion =
          sim_.at(finish, [this, finish] { finish_besteffort(finish); });
      be_running_.push_back(be);
    }
  }
}

void OnlineCluster::finish_besteffort(Time finish) {
  const auto it = std::find_if(be_running_.begin(), be_running_.end(),
                               [&](const RunningBe& b) {
                                 return almost_equal(b.finish, finish);
                               });
  if (it == be_running_.end())
    throw std::logic_error("completion for unknown best-effort run");
  const double wall = it->finish - it->start;
  be_running_.erase(it);
  ++free_;
  account(0, -1);
  ++be_stats_.completed;
  be_stats_.completed_time += wall;
  if (be_source_.on_done) be_source_.on_done();
  dispatch();
}

// ---------------------------------------------------------------------------
// Checkpoint/restore.
//
// Everything is serialized FIELD-WISE (never struct memcpy): HotJob and
// LocalJobRecord carry padding bytes, and a raw dump would embed
// nondeterministic padding into a checksummed blob.
// ---------------------------------------------------------------------------

void OnlineCluster::save_checkpoint(
    CheckpointWriter& w, const std::unordered_set<EventId>& pending) const {
  save_table_pool(w, pool_);

  w.u64(submitted_.size());
  for (const HotJob& h : submitted_) save_hot_job(w, h);

  w.u64(records_.size());
  for (const LocalJobRecord& rec : records_) {
    w.u32(rec.id);
    w.i32(rec.community);
    w.f64(rec.submit);
    w.f64(rec.start);
    w.f64(rec.finish);
    w.i32(rec.procs);
    w.f64(rec.best_duration);
  }

  w.u64(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Queued& q = queue_[i];
    w.u64(q.record);
    w.f64(q.submit);
    w.i32(q.priority);
  }
  w.i32(queue_min_priority_);

  w.u64(running_.size());
  for (const RunningLocal& r : running_) {
    w.u64(r.record);
    w.i32(r.procs);
    w.f64(r.finish);
    w.u64(r.completion);
  }

  w.u64(be_running_.size());
  for (const RunningBe& b : be_running_) {
    w.f64(b.start);
    w.f64(b.finish);
    w.f64(b.duration);
    w.u64(b.completion);
  }

  w.i32(capacity_);
  w.i32(free_);

  w.i64(be_stats_.started);
  w.i64(be_stats_.completed);
  w.i64(be_stats_.killed);
  w.f64(be_stats_.wasted_time);
  w.f64(be_stats_.completed_time);

  w.i64(volatility_.capacity_changes);
  w.i64(volatility_.local_preemptions);
  w.f64(volatility_.local_wasted);

  w.f64(busy_integral_);
  w.f64(local_busy_integral_);
  w.f64(last_change_);
  w.i32(local_busy_now_);
  w.i32(be_busy_now_);

  // The set_besteffort_source bootstrap: pending only when the snapshot
  // was taken before its (t=attach-time, priority 1) slot executed.
  const bool bootstrap_pending =
      be_bootstrap_ != 0 && pending.count(be_bootstrap_) != 0;
  w.u8(bootstrap_pending ? 1 : 0);
  w.u64(be_bootstrap_);
  w.f64(be_bootstrap_time_);

  std::vector<std::uint64_t> policy_words;
  qpolicy_->save_state(policy_words);
  w.u64(policy_words.size());
  for (std::uint64_t word : policy_words) w.u64(word);
}

void OnlineCluster::restore_checkpoint(CheckpointReader& r) {
  // Every count below is bounded by the bytes one entry encodes in
  // save_checkpoint (r.count), so a hostile count cannot allocate.
  load_table_pool(r, pool_);

  submitted_.clear();
  const std::uint64_t n_submitted = r.count(kHotJobCheckpointBytes);
  submitted_.reserve(n_submitted);
  for (std::uint64_t i = 0; i < n_submitted; ++i)
    submitted_.push_back(load_hot_job(r, pool_));

  records_.clear();
  const std::uint64_t n_records = r.count(44);
  records_.reserve(n_records);
  for (std::uint64_t i = 0; i < n_records; ++i) {
    LocalJobRecord rec;
    rec.id = r.u32();
    rec.community = r.i32();
    rec.submit = r.f64();
    rec.start = r.f64();
    rec.finish = r.f64();
    rec.procs = r.i32();
    rec.best_duration = r.f64();
    records_.push_back(rec);
  }

  queue_.clear();
  const std::uint64_t n_queue = r.count(20);
  for (std::uint64_t i = 0; i < n_queue; ++i) {
    Queued q;
    q.record = static_cast<std::size_t>(r.u64());
    q.submit = r.f64();
    q.priority = r.i32();
    if (q.record >= records_.size())
      throw CheckpointError("queued entry references unknown record");
    queue_.push_back(q);
    // The policy re-learns the queue through on_submit, in queue order —
    // the same calls a live engine made (modulo its own saved words).
    qpolicy_->on_submit(view_of(q));
  }
  queue_min_priority_ = r.i32();

  running_.clear();
  const std::uint64_t n_running = r.count(28);
  running_.reserve(n_running);
  for (std::uint64_t i = 0; i < n_running; ++i) {
    RunningLocal run;
    run.record = static_cast<std::size_t>(r.u64());
    run.procs = r.i32();
    run.finish = r.f64();
    run.completion = r.u64();
    if (run.record >= records_.size())
      throw CheckpointError("running entry references unknown record");
    running_.push_back(run);
    const std::size_t record_index = run.record;
    sim_.restore_event(run.finish, /*priority=*/0, run.completion,
                       [this, record_index] { finish_local(record_index); });
  }

  be_running_.clear();
  const std::uint64_t n_be = r.count(32);
  be_running_.reserve(n_be);
  for (std::uint64_t i = 0; i < n_be; ++i) {
    RunningBe be;
    be.start = r.f64();
    be.finish = r.f64();
    be.duration = r.f64();
    be.completion = r.u64();
    be_running_.push_back(be);
    const Time finish = be.finish;
    sim_.restore_event(be.finish, /*priority=*/0, be.completion,
                       [this, finish] { finish_besteffort(finish); });
  }

  capacity_ = r.i32();
  free_ = r.i32();

  be_stats_.started = static_cast<long>(r.i64());
  be_stats_.completed = static_cast<long>(r.i64());
  be_stats_.killed = static_cast<long>(r.i64());
  be_stats_.wasted_time = r.f64();
  be_stats_.completed_time = r.f64();

  volatility_.capacity_changes = static_cast<long>(r.i64());
  volatility_.local_preemptions = static_cast<long>(r.i64());
  volatility_.local_wasted = r.f64();

  busy_integral_ = r.f64();
  local_busy_integral_ = r.f64();
  last_change_ = r.f64();
  local_busy_now_ = r.i32();
  be_busy_now_ = r.i32();

  const bool bootstrap_pending = r.u8() != 0;
  be_bootstrap_ = r.u64();
  be_bootstrap_time_ = r.f64();
  if (bootstrap_pending) {
    if (!be_source_.request)
      throw CheckpointError(
          "snapshot has a pending best-effort bootstrap but the restored "
          "cluster has no source attached");
    sim_.restore_event(be_bootstrap_time_, /*priority=*/1, be_bootstrap_,
                       [this] { dispatch(); });
  }

  const std::uint64_t n_words = r.count(8);
  std::vector<std::uint64_t> policy_words(n_words);
  for (std::uint64_t i = 0; i < n_words; ++i) policy_words[i] = r.u64();
  qpolicy_->restore_state(policy_words.data(), policy_words.size());
}

void OnlineCluster::append_expected_event_ids(
    const std::unordered_set<EventId>& pending,
    std::vector<EventId>& out) const {
  for (const RunningLocal& r : running_) out.push_back(r.completion);
  for (const RunningBe& b : be_running_) out.push_back(b.completion);
  if (be_bootstrap_ != 0 && pending.count(be_bootstrap_) != 0)
    out.push_back(be_bootstrap_);
}

}  // namespace lgs
