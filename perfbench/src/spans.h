// In-memory span recorder of the benchmark's traced runs.
//
// Spans go around the benchmark's own calls into each engine layer
// (trace generation, submit, run, push, poll, the NDJSON sink, checkpoint
// and restore); nothing is recorded inside the library.  A recorder
// belongs to ONE thread: the service thread and the producer thread each
// keep their own, and parent ids are local to a recorder.  Spans stay in
// memory until the run ends and are written out once (write_tsv).
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover — the split a layer table needs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using SpanClock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int parent = -1;  ///< index in the same recorder, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals clipped to its own.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Aggregate over spans called `name`, optionally only those that have an
/// ancestor called `under`.
struct SpanTotals {
  std::size_t count = 0;
  double wall_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and costs one branch per span.
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Open a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int begin(const char* name);
  void end(int id);
  void rename(int id, const char* name);

  const std::vector<Span>& spans() const { return spans_; }
  SpanTotals totals(const std::string& name, const char* under = nullptr) const;
  /// One line per span: id, parent, name, start, end, self (ns), with
  /// start times relative to the recorder's first span.
  std::string to_tsv(const std::string& thread) const;

  /// Record an already-measured interval (lets tests build fixed trees).
  int add(const std::string& name, int parent, std::int64_t start_ns,
          std::int64_t end_ns);

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  /// self_times_ns(spans_), computed once the spans stop changing.
  mutable std::vector<std::int64_t> self_cache_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), id_(rec.begin(name)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void rename(const char* name) { rec_.rename(id_, name); }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
