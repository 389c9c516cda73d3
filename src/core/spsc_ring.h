// Bounded lock-free single-producer/single-consumer ring (the ingest
// queue between a producer thread and the streaming service of
// sim/stream_sim.h).
//
// One producer thread pushes, one consumer thread pops in batches; the
// two never share an index: each side owns its own atomic position and
// keeps a cached copy of the other side's, so the hot path is a
// store-release on the own index and an occasional load-acquire of the
// opposite one (the classic Lamport queue with index caching, cf. the
// SPSC/SPMC queues in lock-free work-distribution libraries).
// `close()` publishes "no more items": a consumer blocked in
// wait_pop_n() drains the residue and then observes end-of-stream.
//
// The element type must be trivially copyable — slots are raw copies,
// never constructed or destroyed, so a crossed slot is published by the
// index store alone.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>

namespace lgs {

template <class T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscRing slots are raw copies; T must be trivially copyable");

 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    mask_ = cap - 1;
    buf_ = std::make_unique<T[]>(cap);
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // ---- producer side -----------------------------------------------------

  /// Non-blocking push; false when the ring is full.
  bool try_push(const T& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    buf_[tail & mask_] = v;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Blocking push: spin-yield until the consumer makes room.  The
  /// producer must not call this after close().
  void push(const T& v) {
    while (!try_push(v)) std::this_thread::yield();
  }

  /// Bulk push: copy up to `n` items in at most two memcpy segments
  /// (wrap-around split) and publish them with ONE release store —
  /// amortizing the atomic traffic that per-item try_push pays on every
  /// element.  Returns the number actually pushed (0 when full).
  std::size_t try_push_n(const T* items, std::size_t n) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = capacity() - (tail - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - (tail - head_cache_);
    }
    const std::size_t count = std::min(n, free);
    if (count == 0) return 0;
    const std::size_t start = tail & mask_;
    const std::size_t first = std::min(count, capacity() - start);
    std::memcpy(buf_.get() + start, items, first * sizeof(T));
    if (count > first)
      std::memcpy(buf_.get(), items + first, (count - first) * sizeof(T));
    tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  /// Blocking bulk push: spin-yield until all `n` items are in.  The
  /// producer must not call this after close().
  void push_n(const T* items, std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      const std::size_t pushed = try_push_n(items + done, n - done);
      if (pushed == 0) std::this_thread::yield();
      done += pushed;
    }
  }

  /// Publish end-of-stream (producer side, after the last push).
  void close() { closed_.store(true, std::memory_order_release); }

  // ---- consumer side -----------------------------------------------------

  /// Bulk pop: copy up to `max_n` available items into `out` (two
  /// memcpy segments on wrap-around) and consume them with ONE release
  /// store.  Returns the number popped (0 when currently empty).
  std::size_t pop_n(T* out, std::size_t max_n) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = tail_cache_ - head;
    if (avail < max_n) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
    }
    const std::size_t count = std::min(max_n, avail);
    if (count == 0) return 0;
    const std::size_t start = head & mask_;
    const std::size_t first = std::min(count, capacity() - start);
    std::memcpy(out, buf_.get() + start, first * sizeof(T));
    if (count > first)
      std::memcpy(out + first, buf_.get(), (count - first) * sizeof(T));
    head_.store(head + count, std::memory_order_release);
    return count;
  }

  /// Blocking bulk pop: spin-yield until at least one item arrives or
  /// the producer closed the stream.  Returns the number popped; 0 means
  /// closed AND drained (end-of-stream).
  std::size_t wait_pop_n(T* out, std::size_t max_n) {
    for (;;) {
      if (const std::size_t n = pop_n(out, max_n)) return n;
      // Re-check after the close flag: items pushed between the empty
      // poll and the close must not be dropped.
      if (closed_.load(std::memory_order_acquire)) return pop_n(out, max_n);
      std::this_thread::yield();
    }
  }

 private:
  std::unique_ptr<T[]> buf_;
  std::size_t mask_ = 0;
  /// Producer-owned: its index, plus a cached copy of the consumer's.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  /// Consumer-owned mirror image.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace lgs
