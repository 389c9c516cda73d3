#include "sim/simulator.h"

#include <algorithm>

#include "core/profiler.h"

namespace lgs {

Simulator::~Simulator() {
  // Destroy the payload of every still-pending event, then the recycled
  // overflow blocks and the slot chunks (deallocate is a no-op when an
  // arena owns them — the replay lifetime releases everything at once).
  while (!queue_.empty()) {
    release_slot(queue_.top().slot);
    queue_.pop();
  }
  for (void* mem : overflow_free_)
    ref_.deallocate(mem, kOverflowBlock, alignof(std::max_align_t));
  for (Slot* chunk : slot_chunks_)
    ref_.deallocate(chunk, kSlotChunk * sizeof(Slot), alignof(Slot));
}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if (slot_count_ == slot_chunks_.size() * kSlotChunk) {
    Slot* chunk = static_cast<Slot*>(
        ref_.allocate(kSlotChunk * sizeof(Slot), alignof(Slot)));
    for (std::size_t i = 0; i < kSlotChunk; ++i) ::new (chunk + i) Slot;
    slot_chunks_.push_back(chunk);
    // Cold branch: slot growth tracks peak concurrently-pending events.
    LGS_PROF_HIGHWATER("sim.slots_highwater", slot_count_ + kSlotChunk);
  }
  return static_cast<std::uint32_t>(slot_count_++);
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slot_at(index);
  void* payload = slot.ops->inline_stored ? static_cast<void*>(slot.buf)
                                          : slot.heap;
  slot.ops->destroy(payload);
  if (!slot.ops->inline_stored) release_overflow(slot.heap, slot.ops->size);
  slot.ops = nullptr;
  slot.heap = nullptr;
  free_slots_.push_back(index);
}

void* Simulator::acquire_overflow(std::size_t size) {
  if (size <= kOverflowBlock) {
    if (!overflow_free_.empty()) {
      void* mem = overflow_free_.back();
      overflow_free_.pop_back();
      return mem;
    }
    ++overflow_blocks_;
    return ref_.allocate(kOverflowBlock, alignof(std::max_align_t));
  }
  // Oversized capture: plain heap allocation even when arena-backed (no
  // such callback is on a hot path, and an unbounded capture must not
  // bloat the replay arena; the pooled classes cover every engine
  // callback).
  return ::operator new(size);
}

void Simulator::release_overflow(void* mem, std::size_t size) {
  if (size <= kOverflowBlock)
    overflow_free_.push_back(mem);
  else
    ::operator delete(mem);
}

void Simulator::prune_cancellations() {
  // Exact membership pass: keep only cancellations that still match a
  // pending event.  Everything else targets a consumed id and can never
  // match again.  The pending ids are enumerated straight off the heap's
  // container (order irrelevant).
  std::unordered_set<EventId> pending;
  pending.reserve(queue_.entries().size());
  EventId min_pending = next_id_;
  for (const QEntry& e : queue_.entries()) {
    pending.insert(e.id);
    min_pending = std::min(min_pending, e.id);
  }
  for (auto it = cancelled_.begin(); it != cancelled_.end();) {
    if (pending.count(*it) == 0)
      it = cancelled_.erase(it);
    else
      ++it;
  }
  // Every id below the smallest pending one has been consumed.
  watermark_ = std::max(watermark_, min_pending);
  next_prune_ = std::max(kMinPrune, 2 * cancelled_.size());
}

void Simulator::step() {
  const QEntry top = queue_.top();
  queue_.pop();
  // In-order consumption (the common case: timers fire roughly in
  // schedule order) advances the watermark for free.
  if (top.id == watermark_) ++watermark_;
  if (cancelled_.erase(top.id) > 0) {
    release_slot(top.slot);
    LGS_PROF_COUNT("sim.cancelled_skips", 1);
    return;
  }
  now_ = top.t;
  ++executed_;
  LGS_PROF_COUNT("sim.events", 1);
  // The slot reference stays valid while the callback schedules new
  // events (slots live in fixed chunks: growth never relocates).  The
  // payload is destroyed only after the call returns.
  Slot& slot = slot_at(top.slot);
  void* payload = slot.ops->inline_stored ? static_cast<void*>(slot.buf)
                                          : slot.heap;
  try {
    slot.ops->invoke(payload);
  } catch (...) {
    release_slot(top.slot);
    throw;
  }
  release_slot(top.slot);
}

void Simulator::note_if_drained() {
  // A drained queue means every surviving cancellation targets an event
  // that already fired (or never existed): flush them — and every id so
  // far is consumed, so the watermark jumps to next_id_.
  if (queue_.empty()) {
    cancelled_.clear();
    watermark_ = next_id_;
    next_prune_ = kMinPrune;
  }
}

void Simulator::reset_for_restore(Time now, EventId next_id,
                                  std::uint64_t executed) {
  while (!queue_.empty()) {
    release_slot(queue_.top().slot);
    queue_.pop();
  }
  cancelled_.clear();
  next_prune_ = kMinPrune;
  now_ = now;
  next_id_ = next_id;
  // restore_event lowers this to the smallest re-scheduled id; with no
  // pending events every id below next_id has been consumed.
  watermark_ = next_id;
  executed_ = executed;
}

void Simulator::run(Time horizon) {
  LGS_PROF_ZONE("sim.run");
  while (!queue_.empty() && queue_.top().t <= horizon) step();
  note_if_drained();
  if (now_ < horizon && horizon != kTimeInfinity) now_ = horizon;
}

void Simulator::run_until(Time t, int before_priority) {
  if (t < now_ - kTimeEps)
    throw std::invalid_argument("run_until cannot rewind the clock");
  LGS_PROF_ZONE("sim.run");
  while (!queue_.empty()) {
    const QEntry& top = queue_.top();
    // Exact queue-order comparison (no epsilons): identical to the Later
    // tie-break, so the stop position matches the serial pump's slot.
    if (!(top.t < t || (top.t == t && top.priority < before_priority))) break;
    step();
  }
  note_if_drained();
  if (t > now_) now_ = t;
}

}  // namespace lgs
