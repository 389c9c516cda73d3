// Execution-time models for Parallel Tasks.
//
// The PT model (paper §2.2, §4) folds all communication costs into a global
// penalty on the parallel execution time p_j(k).  The moldable algorithms of
// §4 additionally assume *monotony*:
//   - p_j(k) is non-increasing in the number of processors k, and
//   - the work  W_j(k) = k * p_j(k)  is non-decreasing in k.
// Analytic models here are monotone by construction (communication-penalty
// models are clamped at their optimum processor count), so the canonical
// allotment used by the MRT algorithm is always well defined.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "core/types.h"

namespace lgs {

class TablePool;
struct ExecRef;

/// Parallel execution-time model: maps a processor count k >= 1 to a time.
///
/// Value type; cheap to copy for the analytic variants.  Construct through
/// the named factories.
class ExecModel {
 public:
  /// Strictly sequential task: p(1) = t and no speedup whatsoever.
  static ExecModel sequential(Time t);

  /// Amdahl's law: p(k) = t1 * (f + (1 - f)/k), serial fraction f in [0,1].
  static ExecModel amdahl(Time t1, double serial_fraction);

  /// Power-law speedup: p(k) = t1 / k^alpha, alpha in (0, 1].
  /// alpha = 1 is perfect (linear) speedup.
  static ExecModel power_law(Time t1, double alpha);

  /// Communication-penalty model: p(k) = t1/k + overhead * (k - 1),
  /// clamped at the processor count minimizing it so the model stays
  /// monotone (adding processors never hurts, it just stops helping).
  static ExecModel comm_penalty(Time t1, double overhead_per_proc);

  /// Tabulated model: times[k-1] is the execution time on k processors.
  /// The table is prefix-min monotonized; for k beyond the table the last
  /// (best) value is used.
  static ExecModel table(std::vector<Time> times);

  /// Execution time on k >= 1 processors (monotone non-increasing).
  Time time(int k) const;

  /// Work (processor-time area) on k processors: k * time(k).
  double work(int k) const { return static_cast<double>(k) * time(k); }

  /// Sequential time p(1).
  Time seq_time() const { return time(1); }

  /// Smallest processor count achieving the minimum execution time; adding
  /// processors beyond this is pure waste.  Returns `limit` if the model
  /// keeps improving through `limit` processors.
  int useful_limit(int limit) const;

  /// True for the strictly sequential variant.
  bool is_sequential() const;

  /// Compact this model into a 24-byte POD handle for the hot job slab
  /// (see ExecRef).  Table variants intern their times into `pool`;
  /// analytic variants carry their parameters inline and leave the pool
  /// untouched.  The handle evaluates bit-identically to this model.
  ExecRef compact(TablePool& pool) const;

  /// Rebuild a full ExecModel from a compact handle — the bridge back to
  /// the offline `pt/` algorithms, which keep consuming fat Jobs.
  static ExecModel from_ref(const ExecRef& ref, const TablePool& pool);

 private:
  struct Seq {
    Time t;
  };
  struct Amdahl {
    Time t1;
    double f;
  };
  struct Power {
    Time t1;
    double alpha;
  };
  struct CommPenalty {
    Time t1;
    double c;
    int best_k;  // argmin of the unclamped curve
  };
  struct Table {
    std::vector<Time> times;  // prefix-min monotonized
  };
  using Rep = std::variant<Seq, Amdahl, Power, CommPenalty, Table>;

  /// Construct the variant straight from its alternative: no temporary
  /// Rep is moved from (gcc 12 flags that move's inactive vector member
  /// as maybe-uninitialized).
  template <class Alt>
  explicit ExecModel(Alt alt) : rep_(std::move(alt)) {}
  Rep rep_;
};

// ---------------------------------------------------------------------------
// Compact exec-model handles: the hot/cold split of the arena refactor.
//
// The fat ExecModel embeds a std::vector for the Table variant, which is
// what made `Job` heap-allocate per job (a rigid job's constant "table"
// used to be `procs` identical entries).  The replay stack instead stores
// a 24-byte POD `ExecRef` per job in the hot slab and keeps all table
// payloads in one shared cold `TablePool`.  Evaluation (`exec_time`,
// `exec_useful_limit`) reuses the exact arithmetic of ExecModel::time /
// ::useful_limit, so replays stay bit-identical to the fat path.

/// Discriminator for ExecRef.  kRigidConst is the compact form of a
/// rigid job's constant one-entry table: time(k) == a for every k,
/// useful_limit == 1 — no pool entry needed at all.
enum class ExecKind : std::uint8_t {
  kSeq,
  kAmdahl,
  kPower,
  kCommPenalty,
  kTable,
  kRigidConst,
};

/// 24-byte POD exec-model handle stored inline in the hot job slab.
/// Parameter packing mirrors the ExecModel variants:
///   kSeq         a = t
///   kAmdahl      a = t1, b = serial fraction f
///   kPower       a = t1, b = alpha
///   kCommPenalty a = t1, b = overhead c, c = best_k
///   kTable       c = TablePool descriptor index
///   kRigidConst  a = constant duration
struct ExecRef {
  double a = 0.0;
  double b = 0.0;
  std::uint32_t c = 0;
  ExecKind kind = ExecKind::kSeq;
};
static_assert(sizeof(ExecRef) == 24, "ExecRef is sized for the 64B hot row");

/// Cold slab of tabulated execution times: one contiguous times vector
/// plus {offset, length} descriptors.  Append-only; owned by a JobStore
/// and shared by every ExecRef of kind kTable in that store.
class TablePool {
 public:
  /// Intern a (already monotonized) time table; returns the descriptor
  /// index an ExecRef carries in `c`.
  std::uint32_t intern(const Time* times, std::size_t n);

  const Time* data(std::uint32_t ref) const {
    return times_.data() + descs_[ref].off;
  }
  std::uint32_t len(std::uint32_t ref) const { return descs_[ref].len; }

  std::size_t tables() const { return descs_.size(); }
  std::size_t bytes() const {
    return times_.capacity() * sizeof(Time) + descs_.capacity() * sizeof(Desc);
  }

  // Checkpoint surface (core/checkpoint): the slabs are dumped and
  // restored verbatim — intern() is append-only, so a restored pool
  // keeps handing out the exact descriptor indices and offsets the
  // uninterrupted run would have.
  /// The flat time slab (serialized raw; offsets index into it).
  const std::vector<Time>& times_raw() const { return times_; }
  /// Offset of descriptor `ref` into times_raw().
  std::uint32_t off(std::uint32_t ref) const { return descs_[ref].off; }
  /// Drop everything and install a restored time slab (descriptors
  /// follow via restore_desc, in index order).
  void restore_times(std::vector<Time> times) {
    times_ = std::move(times);
    descs_.clear();
  }
  /// Append descriptor (off, len) verbatim — bypasses intern's copy.
  void restore_desc(std::uint32_t off, std::uint32_t len) {
    descs_.push_back(Desc{off, len});
  }

 private:
  struct Desc {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };
  std::vector<Desc> descs_;
  std::vector<Time> times_;
};

/// Execution time on k >= 1 processors — bit-identical to
/// ExecModel::time on the model the ref was compacted from.
Time exec_time(const ExecRef& ref, const TablePool& pool, int k);

/// Smallest processor count achieving the minimum time — bit-identical
/// to ExecModel::useful_limit.
int exec_useful_limit(const ExecRef& ref, const TablePool& pool, int limit);

inline bool exec_is_sequential(const ExecRef& ref) {
  return ref.kind == ExecKind::kSeq;
}

}  // namespace lgs
