// Minimal discrete-event simulation kernel (SimGrid-lite).
//
// The grid-level policies of §5.2 (centralized best-effort filling,
// decentralized load exchange) are dynamic: jobs arrive over time, grid
// jobs get killed and resubmitted.  This kernel provides the event queue
// those simulations run on: callbacks at simulated times, deterministic
// ordering (time, priority, insertion sequence), and event cancellation
// (needed to kill a best-effort job's completion event).
//
// Hot-path representation (the million-job replay bar of BENCH_scale):
// the priority queue holds trivially-copyable 24-byte entries, and the
// callback of each pending event lives in a slab of reusable *slots* —
// captures up to kInlineCallback bytes are stored inline in the slot,
// larger ones in pooled overflow blocks recycled through a free list.
// After the first few events warm the slab, at()/run() perform no heap
// allocation at all (slot count tracks the number of *concurrently*
// pending events, not the number of events ever scheduled).  The
// std::function-based kernel this replaces survives as the differential
// oracle in tests/reference_simulator.h.
//
// Memory: construct with an ArenaRef to place the queue, the slot slab
// chunks and the pooled overflow blocks in a per-replay arena (the
// allocation-lifetime contract of docs/ARCHITECTURE.md "Memory model");
// default-constructed simulators fall back to the heap and behave as
// before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/arena.h"
#include "core/types.h"

namespace lgs {

using EventId = std::uint64_t;

class Simulator {
 public:
  /// Captures up to this many bytes are stored inline in a slot.
  static constexpr std::size_t kInlineCallback = 48;
  /// Larger captures (up to this size) use pooled overflow blocks.
  static constexpr std::size_t kOverflowBlock = 512;

  Simulator() = default;
  /// Arena-backed kernel: event queue, slot slab and overflow pool live
  /// in `ref`'s arena (released with the replay, not event by event).
  explicit Simulator(ArenaRef ref)
      : ref_(ref),
        queue_(Later{}, ArenaVec<QEntry>(ArenaAllocator<QEntry>(ref))),
        slot_chunks_(ArenaAllocator<Slot*>(ref)),
        free_slots_(ArenaAllocator<std::uint32_t>(ref)),
        overflow_free_(ArenaAllocator<void*>(ref)) {}
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedule `cb` (any void() callable) at absolute time `t` (>= now).
  /// Events at equal times fire by increasing priority, then insertion
  /// order.
  template <class F>
  EventId at(Time t, F&& cb, int priority = 0) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "Simulator callbacks must be callable as void()");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned callback captures are not supported");
    if (t < now_ - kTimeEps)
      throw std::invalid_argument("cannot schedule an event in the past");
    const std::uint32_t slot_index = acquire_slot();
    Slot& slot = slot_at(slot_index);
    constexpr bool kInline = sizeof(Fn) <= kInlineCallback;
    try {
      if constexpr (kInline) {
        ::new (static_cast<void*>(slot.buf)) Fn(std::forward<F>(cb));
      } else {
        void* mem = acquire_overflow(sizeof(Fn));
        try {
          ::new (mem) Fn(std::forward<F>(cb));
        } catch (...) {
          release_overflow(mem, sizeof(Fn));
          throw;
        }
        slot.heap = mem;
      }
    } catch (...) {
      free_slots_.push_back(slot_index);
      throw;
    }
    slot.ops = &OpsFor<Fn, kInline>::value;
    const EventId id = next_id_++;
    try {
      queue_.push(QEntry{t, id, slot_index, priority});
    } catch (...) {
      release_slot(slot_index);  // destroy the payload, recycle the slot
      throw;
    }
    return id;
  }

  /// Schedule `cb` after a delay.
  template <class F>
  EventId after(Time delay, F&& cb, int priority = 0) {
    return at(now_ + delay, std::forward<F>(cb), priority);
  }

  /// Cancel a pending event (no-op if it already fired, or if `id` was
  /// never returned by at()/after() — ids of future events must not be
  /// pre-cancelled).  Cancels of already-consumed ids stay bounded even
  /// when the queue never drains (the streaming-mode shape): ids below
  /// the consumed-id watermark are rejected outright, and the set is
  /// pruned against the actual pending ids when it outgrows them, so
  /// repeated cancel-after-fire cannot grow it without bound.
  void cancel(EventId id) {
    if (id == 0 || id >= next_id_ || id < watermark_) return;
    cancelled_.insert(id);
    if (cancelled_.size() >= next_prune_) prune_cancellations();
  }

  /// Run until the queue drains (or `horizon` is reached, if finite).
  void run(Time horizon = kTimeInfinity);

  /// One live (not cancelled) pending event, as the introspection
  /// iterator reports it.  The callback payload stays opaque — owners of
  /// the event (the engines) know what they scheduled under each id.
  struct PendingEvent {
    Time t = 0.0;
    int priority = 0;
    EventId id = 0;
  };

  /// Const forward iterator over the live pending events, in HEAP order
  /// (an implementation detail — callers needing (t, priority, id) order
  /// must sort).  Entries whose id was cancelled are skipped, so the
  /// count seen equals the events a full drain would still execute.
  /// This is the serialization surface of core/checkpoint: an engine
  /// enumerates the pending set to prove every event is accounted for
  /// before writing a snapshot — and tests assert queue contents
  /// directly instead of via side effects.
  class PendingIterator {
   public:
    using value_type = PendingEvent;

    PendingEvent operator*() const {
      const QEntry& e = sim_->queue_.entries()[index_];
      return PendingEvent{e.t, e.priority, e.id};
    }
    PendingIterator& operator++() {
      ++index_;
      skip_cancelled();
      return *this;
    }
    bool operator==(const PendingIterator& o) const {
      return index_ == o.index_;
    }
    bool operator!=(const PendingIterator& o) const { return !(*this == o); }

   private:
    friend class Simulator;
    PendingIterator(const Simulator* sim, std::size_t index)
        : sim_(sim), index_(index) {
      skip_cancelled();
    }
    void skip_cancelled() {
      const auto& entries = sim_->queue_.entries();
      while (index_ < entries.size() &&
             sim_->cancelled_.count(entries[index_].id) > 0)
        ++index_;
    }
    const Simulator* sim_;
    std::size_t index_;
  };

  struct PendingRange {
    PendingIterator begin_, end_;
    PendingIterator begin() const { return begin_; }
    PendingIterator end() const { return end_; }
  };

  /// Live pending events (cancelled entries excluded), heap order.
  PendingRange pending_events() const {
    return PendingRange{PendingIterator(this, 0),
                        PendingIterator(this, queue_.entries().size())};
  }

  /// Live pending events, counted through the same filter.
  std::size_t pending_count() const {
    std::size_t n = 0;
    for ([[maybe_unused]] const PendingEvent& e : pending_events()) ++n;
    return n;
  }

  /// The id the next at()/after() call will hand out (snapshot field:
  /// restoring it replays the uninterrupted run's id sequence, which is
  /// what keeps same-instant tie-breaks bit-identical after a restore).
  EventId next_event_id() const { return next_id_; }

  /// Checkpoint-restore entry point: drop EVERY pending event (payloads
  /// destroyed, slots recycled) and all cancellations, pin the clock to
  /// `now` and the id sequence to `next_id` (>= every id about to be
  /// re-scheduled), and restore the executed-event count.  Followed by
  /// one restore_event() per serialized pending event.
  void reset_for_restore(Time now, EventId next_id, std::uint64_t executed);

  /// Re-schedule a serialized pending event under its ORIGINAL id (must
  /// be < next_event_id(); only valid after reset_for_restore).  The
  /// (t, priority, id) queue key is reproduced exactly, so the restored
  /// run pops events in the uninterrupted run's order.
  template <class F>
  void restore_event(Time t, int priority, EventId id, F&& cb) {
    if (id == 0 || id >= next_id_)
      throw std::invalid_argument("restore_event id outside [1, next_id)");
    if (t < now_ - kTimeEps)
      throw std::invalid_argument("restore_event in the past");
    const EventId keep_next = next_id_;
    next_id_ = id;  // let at() assign exactly `id`
    try {
      at(t, std::forward<F>(cb), priority);
    } catch (...) {
      next_id_ = keep_next;
      throw;
    }
    next_id_ = keep_next;
    watermark_ = std::min(watermark_, id);
  }

  /// Advance the clock to exactly `t` (>= now), executing every pending
  /// event strictly ordered before the queue position (t,
  /// before_priority): all events at earlier times, plus events at `t`
  /// whose priority is < before_priority.  Events at (t, >=
  /// before_priority) stay pending, and now() == t afterwards even if
  /// nothing fired.  This is the quiescence primitive of GridSim's
  /// partial runs: run_to() stops between instants (INT_MIN) for a
  /// checkpoint, and the streaming advance_to() stops just ahead of the
  /// arrival pump's position in the tie-break order (time, priority,
  /// insertion id), so rows ingested later still route at that instant.
  void run_until(Time t, int before_priority);

  /// Number of events executed so far (for the micro bench).
  std::uint64_t executed() const { return executed_; }

  /// Cancellations not yet matched against a popped event.  Bounded by
  /// O(pending events + prune threshold) even without a drain: ids are
  /// erased when their event pops, ids below the consumed-id watermark
  /// are never admitted, the set is pruned against the pending ids when
  /// it outgrows them, and it is flushed whenever the queue drains.
  std::size_t pending_cancellations() const { return cancelled_.size(); }

  /// Lower bound on live event ids: every id below it has been consumed
  /// (fired or cancelled), so cancelling it is an immediate no-op.
  /// Advanced opportunistically on in-order pops, exactly on drain and
  /// at each cancellation prune.
  EventId consumed_watermark() const { return watermark_; }

  /// Callback slots ever created — tracks the peak number of
  /// *concurrently* pending events, not the events ever scheduled
  /// (tests/bench assert this stays flat across million-event replays).
  std::size_t slot_capacity() const { return slot_count_; }

  /// Pooled overflow blocks ever allocated (captures past
  /// kInlineCallback bytes); recycled through a free list, so this too
  /// tracks concurrency, not event count.
  std::size_t overflow_blocks_allocated() const { return overflow_blocks_; }

 private:
  /// Per-callback-type dispatch table (static storage, one per type).
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    std::size_t size;     ///< sizeof the stored callable
    bool inline_stored;   ///< payload lives in Slot::buf, not Slot::heap
  };
  template <class Fn, bool Inline>
  struct OpsFor {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops value{&invoke, &destroy, sizeof(Fn), Inline};
  };

  /// One slab slot: the callback payload of one pending event.  Slots
  /// live in fixed-size chunks (stable addresses; grows chunk by chunk
  /// from ref_) and are recycled through free_slots_.
  struct Slot {
    const Ops* ops = nullptr;
    void* heap = nullptr;
    alignas(std::max_align_t) unsigned char buf[kInlineCallback];
  };

  /// Priority-queue entry: trivially copyable (heap sift operations
  /// never touch the callback payload) and packed to 24 bytes — the
  /// field order avoids alignment padding.
  struct QEntry {
    Time t;
    EventId id;
    std::uint32_t slot;
    int priority;
  };
  static_assert(sizeof(QEntry) == 24, "QEntry must stay padding-free");
  struct Later {
    bool operator()(const QEntry& a, const QEntry& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.id > b.id;
    }
  };
  /// priority_queue with its container exposed: the cancellation pruner
  /// needs to enumerate the pending ids (read-only, heap order is fine).
  struct EventQueue : std::priority_queue<QEntry, ArenaVec<QEntry>, Later> {
    using priority_queue::priority_queue;
    const ArenaVec<QEntry>& entries() const { return c; }
  };

  /// Slots per slab chunk.  64 slots x 64 bytes of Slot ≈ 4 KiB chunks.
  static constexpr std::size_t kSlotChunk = 64;

  /// Pop + execute the queue head (shared body of run/run_until).
  void step();
  /// Drained-queue bookkeeping shared by run/run_until: flush the
  /// cancellation set and jump the consumed-id watermark.
  void note_if_drained();

  std::uint32_t acquire_slot();
  /// Destroy the payload of `index` and recycle slot + overflow block.
  void release_slot(std::uint32_t index);
  /// Drop cancelled ids that no longer match any pending event and
  /// advance the consumed-id watermark to the smallest pending id.
  /// Amortized O(1) per cancel: runs only when the set doubled since the
  /// last prune, costs O(pending + cancelled) when it does.
  void prune_cancellations();
  Slot& slot_at(std::uint32_t i) {
    return slot_chunks_[i / kSlotChunk][i % kSlotChunk];
  }
  void* acquire_overflow(std::size_t size);
  void release_overflow(void* mem, std::size_t size);

  /// Cancellation-set prune trigger (see prune_cancellations).
  static constexpr std::size_t kMinPrune = 64;

  ArenaRef ref_;
  Time now_ = 0.0;
  EventId next_id_ = 1;
  EventId watermark_ = 1;  ///< every id below this has been consumed
  std::size_t next_prune_ = kMinPrune;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
  std::unordered_set<EventId> cancelled_;
  ArenaVec<Slot*> slot_chunks_;
  std::size_t slot_count_ = 0;  ///< slots constructed across all chunks
  ArenaVec<std::uint32_t> free_slots_;
  ArenaVec<void*> overflow_free_;
  std::size_t overflow_blocks_ = 0;
};

}  // namespace lgs
