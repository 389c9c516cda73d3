#include "spans.h"

#include <algorithm>
#include <sstream>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SpanClock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const int c : children[i]) {
      const std::int64_t lo = std::max(s.start_ns, spans[c].start_ns);
      const std::int64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

int SpanRecorder::begin(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const std::int64_t t = now_ns();
  spans_.push_back(Span{name, parent, t, t});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close innermost-first; tolerate an out-of-order end by
  // unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void SpanRecorder::rename(int id, const char* name) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].name = name;
  self_cache_.clear();
}

int SpanRecorder::add(const std::string& name, int parent,
                      std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{name, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

SpanTotals SpanRecorder::totals(const std::string& name,
                                const char* under) const {
  SpanTotals out;
  if (self_cache_.size() != spans_.size()) self_cache_ = self_times_ns(spans_);
  const std::vector<std::int64_t>& self = self_cache_;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    if (under != nullptr) {
      int p = spans_[i].parent;
      while (p >= 0 && spans_[static_cast<std::size_t>(p)].name != under)
        p = spans_[static_cast<std::size_t>(p)].parent;
      if (p < 0) continue;
    }
    const double d = spans_[i].duration_ns() * 1e-9;
    ++out.count;
    out.wall_s += d;
    out.self_s += self[i] * 1e-9;
    out.durations_s.push_back(d);
  }
  return out;
}

std::string SpanRecorder::to_tsv(const std::string& thread) const {
  std::ostringstream os;
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << thread << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
       << (s.start_ns - t0) << '\t' << (s.end_ns - t0) << '\t' << self[i]
       << '\n';
  }
  return os.str();
}

}  // namespace perfbench
