#include "core/exec_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lgs {

ExecModel ExecModel::sequential(Time t) {
  if (t <= 0) throw std::invalid_argument("sequential time must be positive");
  return ExecModel(Seq{t});
}

ExecModel ExecModel::amdahl(Time t1, double serial_fraction) {
  if (t1 <= 0) throw std::invalid_argument("t1 must be positive");
  if (serial_fraction < 0.0 || serial_fraction > 1.0)
    throw std::invalid_argument("serial fraction must be in [0,1]");
  return ExecModel(Amdahl{t1, serial_fraction});
}

ExecModel ExecModel::power_law(Time t1, double alpha) {
  if (t1 <= 0) throw std::invalid_argument("t1 must be positive");
  if (alpha <= 0.0 || alpha > 1.0)
    throw std::invalid_argument("alpha must be in (0,1]");
  return ExecModel(Power{t1, alpha});
}

ExecModel ExecModel::comm_penalty(Time t1, double overhead_per_proc) {
  if (t1 <= 0) throw std::invalid_argument("t1 must be positive");
  if (overhead_per_proc < 0)
    throw std::invalid_argument("overhead must be non-negative");
  // Unclamped curve t1/k + c(k-1) is minimized near k* = sqrt(t1/c).
  int best_k = 1;
  if (overhead_per_proc > 0) {
    const double kstar = std::sqrt(t1 / overhead_per_proc);
    const int lo = std::max(1, static_cast<int>(std::floor(kstar)));
    const int hi = lo + 1;
    const auto value = [&](int k) {
      return t1 / k + overhead_per_proc * (k - 1);
    };
    best_k = value(lo) <= value(hi) ? lo : hi;
  } else {
    best_k = std::numeric_limits<int>::max();
  }
  return ExecModel(CommPenalty{t1, overhead_per_proc, best_k});
}

ExecModel ExecModel::table(std::vector<Time> times) {
  if (times.empty()) throw std::invalid_argument("empty time table");
  for (Time t : times)
    if (t <= 0) throw std::invalid_argument("table times must be positive");
  // Prefix-min monotonization: using k processors can always emulate using
  // fewer, so the effective time is the best over all counts <= k.
  for (std::size_t i = 1; i < times.size(); ++i)
    times[i] = std::min(times[i], times[i - 1]);
  return ExecModel(Table{std::move(times)});
}

Time ExecModel::time(int k) const {
  if (k < 1) throw std::invalid_argument("processor count must be >= 1");
  return std::visit(
      [k](const auto& m) -> Time {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Seq>) {
          return m.t;
        } else if constexpr (std::is_same_v<T, Amdahl>) {
          return m.t1 * (m.f + (1.0 - m.f) / k);
        } else if constexpr (std::is_same_v<T, Power>) {
          return m.t1 / std::pow(static_cast<double>(k), m.alpha);
        } else if constexpr (std::is_same_v<T, CommPenalty>) {
          const int kk = std::min(k, m.best_k);
          return m.t1 / kk + m.c * (kk - 1);
        } else {
          const auto& tab = m.times;
          const std::size_t idx =
              std::min<std::size_t>(static_cast<std::size_t>(k), tab.size());
          return tab[idx - 1];
        }
      },
      rep_);
}

int ExecModel::useful_limit(int limit) const {
  if (limit < 1) throw std::invalid_argument("limit must be >= 1");
  return std::visit(
      [limit](const auto& m) -> int {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Seq>) {
          return 1;
        } else if constexpr (std::is_same_v<T, Amdahl>) {
          return m.f < 1.0 ? limit : 1;
        } else if constexpr (std::is_same_v<T, Power>) {
          return limit;
        } else if constexpr (std::is_same_v<T, CommPenalty>) {
          return std::min(limit, m.best_k);
        } else {
          // First index achieving the (monotone) table minimum.
          const auto& tab = m.times;
          const std::size_t n =
              std::min<std::size_t>(tab.size(), static_cast<std::size_t>(limit));
          const Time best = tab[n - 1];
          for (std::size_t i = 0; i < n; ++i)
            if (tab[i] <= best) return static_cast<int>(i + 1);
          return static_cast<int>(n);
        }
      },
      rep_);
}

bool ExecModel::is_sequential() const {
  return std::holds_alternative<Seq>(rep_);
}

std::uint32_t TablePool::intern(const Time* times, std::size_t n) {
  Desc d;
  d.off = static_cast<std::uint32_t>(times_.size());
  d.len = static_cast<std::uint32_t>(n);
  times_.insert(times_.end(), times, times + n);
  descs_.push_back(d);
  return static_cast<std::uint32_t>(descs_.size() - 1);
}

ExecRef ExecModel::compact(TablePool& pool) const {
  return std::visit(
      [&pool](const auto& m) -> ExecRef {
        using T = std::decay_t<decltype(m)>;
        ExecRef r;
        if constexpr (std::is_same_v<T, Seq>) {
          r.kind = ExecKind::kSeq;
          r.a = m.t;
        } else if constexpr (std::is_same_v<T, Amdahl>) {
          r.kind = ExecKind::kAmdahl;
          r.a = m.t1;
          r.b = m.f;
        } else if constexpr (std::is_same_v<T, Power>) {
          r.kind = ExecKind::kPower;
          r.a = m.t1;
          r.b = m.alpha;
        } else if constexpr (std::is_same_v<T, CommPenalty>) {
          r.kind = ExecKind::kCommPenalty;
          r.a = m.t1;
          r.b = m.c;
          r.c = static_cast<std::uint32_t>(m.best_k);
        } else {
          // A one-entry table is constant in k (min(k, 1) == 1 for every
          // admissible k): no pool entry needed.  This is the shape every
          // rigid job takes.
          if (m.times.size() == 1) {
            r.kind = ExecKind::kRigidConst;
            r.a = m.times[0];
          } else {
            r.kind = ExecKind::kTable;
            r.c = pool.intern(m.times.data(), m.times.size());
          }
        }
        return r;
      },
      rep_);
}

ExecModel ExecModel::from_ref(const ExecRef& ref, const TablePool& pool) {
  switch (ref.kind) {
    case ExecKind::kSeq:
      return sequential(ref.a);
    case ExecKind::kAmdahl:
      return amdahl(ref.a, ref.b);
    case ExecKind::kPower:
      return power_law(ref.a, ref.b);
    case ExecKind::kCommPenalty:
      // comm_penalty recomputes best_k from (t1, c) with the same
      // deterministic formula that produced ref.c, so the rebuilt model
      // is identical.
      return comm_penalty(ref.a, ref.b);
    case ExecKind::kTable: {
      const Time* t = pool.data(ref.c);
      // table() re-monotonizes; the pool holds already-monotone times,
      // so the pass is an identity.
      return table(std::vector<Time>(t, t + pool.len(ref.c)));
    }
    case ExecKind::kRigidConst:
      return table(std::vector<Time>(1, ref.a));
  }
  throw std::invalid_argument("bad ExecRef kind");
}

Time exec_time(const ExecRef& ref, const TablePool& pool, int k) {
  if (k < 1) throw std::invalid_argument("processor count must be >= 1");
  switch (ref.kind) {
    case ExecKind::kSeq:
      return ref.a;
    case ExecKind::kAmdahl:
      return ref.a * (ref.b + (1.0 - ref.b) / k);
    case ExecKind::kPower:
      return ref.a / std::pow(static_cast<double>(k), ref.b);
    case ExecKind::kCommPenalty: {
      const int kk = std::min(k, static_cast<int>(ref.c));
      return ref.a / kk + ref.b * (kk - 1);
    }
    case ExecKind::kTable: {
      const std::size_t idx = std::min<std::size_t>(
          static_cast<std::size_t>(k), pool.len(ref.c));
      return pool.data(ref.c)[idx - 1];
    }
    case ExecKind::kRigidConst:
      return ref.a;
  }
  throw std::invalid_argument("bad ExecRef kind");
}

int exec_useful_limit(const ExecRef& ref, const TablePool& pool, int limit) {
  if (limit < 1) throw std::invalid_argument("limit must be >= 1");
  switch (ref.kind) {
    case ExecKind::kSeq:
      return 1;
    case ExecKind::kAmdahl:
      return ref.b < 1.0 ? limit : 1;
    case ExecKind::kPower:
      return limit;
    case ExecKind::kCommPenalty:
      return std::min(limit, static_cast<int>(ref.c));
    case ExecKind::kTable: {
      const Time* tab = pool.data(ref.c);
      const std::size_t n = std::min<std::size_t>(
          pool.len(ref.c), static_cast<std::size_t>(limit));
      const Time best = tab[n - 1];
      for (std::size_t i = 0; i < n; ++i)
        if (tab[i] <= best) return static_cast<int>(i + 1);
      return static_cast<int>(n);
    }
    case ExecKind::kRigidConst:
      return 1;
  }
  throw std::invalid_argument("bad ExecRef kind");
}

}  // namespace lgs
