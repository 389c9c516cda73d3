// Self-tests of the benchmark's own support code: the percentile helper,
// span self times and failure accounting.  Plain main(), exit 1 on any
// failed expectation.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void percentile_helper() {
  // At least 10 samples beyond the reported percentile.
  expect(perfbench::tail_percentile(19) == 0.0, "19 samples: no tail");
  expect(perfbench::tail_percentile(20) == 50.0, "20 samples: p50");
  expect(perfbench::tail_percentile(99) == 50.0, "99 samples: p50");
  expect(perfbench::tail_percentile(100) == 90.0, "100 samples: p90");
  expect(perfbench::tail_percentile(999) == 90.0, "999 samples: p90");
  expect(perfbench::tail_percentile(1000) == 99.0, "1000 samples: p99");
  expect(perfbench::tail_percentile(10000) == 99.9, "10k samples: p99.9");
  expect(perfbench::tail_percentile(100000) == 99.99, "100k: p99.99");
  expect(perfbench::tail_percentile(10000000) == 99.999, "10M: p99.999");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  expect(perfbench::percentile(v, 50.0) == 50.0, "nearest-rank p50");
  expect(perfbench::percentile(v, 99.0) == 99.0, "nearest-rank p99");
  expect(perfbench::percentile(v, 100.0) == 100.0, "p100 is the max");
  expect(perfbench::percentile({}, 50.0) == 0.0, "empty input");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median");
}

void nested_self_time() {
  perfbench::SpanRecorder rec;
  // root [0,100) has children a [10,40) and b [30,60) (overlapping, so
  // the union counts once) and c [90,120) (clipped to the root);
  // a has a child [15,25).
  const int root = rec.add("root", -1, 0, 100);
  const int a = rec.add("a", root, 10, 40);
  rec.add("b", root, 30, 60);
  rec.add("c", root, 90, 120);
  rec.add("a1", a, 15, 25);
  const std::vector<std::int64_t> self = perfbench::self_times_ns(rec.spans());
  expect(self[0] == 100 - 50 - 10, "root self = duration - union of children");
  expect(self[1] == 30 - 10, "a self");
  expect(self[2] == 30, "leaf b self = duration");
  expect(self[4] == 10, "leaf a1 self = duration");

  const perfbench::SpanTotals t = rec.totals("a1", "root");
  expect(t.count == 1 && std::fabs(t.self_s - 10e-9) < 1e-15,
         "totals under an ancestor");
  expect(rec.totals("a1", "b").count == 0, "totals outside an ancestor");

  // Live recording nests by the open-span stack.
  perfbench::SpanRecorder live(true);
  {
    perfbench::ScopedSpan outer(live, "poll");
    perfbench::ScopedSpan inner(live, "sink");
  }
  expect(live.spans().size() == 2 && live.spans()[1].parent == 0,
         "sink nests under poll");
  const std::vector<std::int64_t> ls = perfbench::self_times_ns(live.spans());
  expect(ls[0] == live.spans()[0].duration_ns() - live.spans()[1].duration_ns(),
         "live parent self time");
  perfbench::SpanRecorder off(false);
  { perfbench::ScopedSpan s(off, "x"); }
  expect(off.spans().empty(), "disabled recorder records nothing");
}

void failure_accounting() {
  perfbench::Tally t;
  t.add("clean", 1000, 1000, {});
  expect(t.attempted() == 1000 && t.failed() == 0 && t.clean(), "clean pass");
  t.add("lossy", 500, 490, {});
  expect(t.failed() == 10, "lost jobs count as failed");
  // A forced digest mismatch fails every job of its pass, even though
  // every job completed.
  const std::string d = perfbench::digest_problem("replay", 0x1234, 0x1235);
  expect(!d.empty(), "mismatch is reported");
  expect(perfbench::digest_problem("replay", 7, 7).empty(), "match is clean");
  t.add("mismatch", 2000, 2000, {d});
  expect(t.attempted() == 3500 && t.failed() == 2010, "mismatch fails all");
  expect(!t.clean(), "run with a mismatch is not clean");
  expect(std::fabs(t.failed_frac() - 2010.0 / 3500.0) < 1e-12, "failed_frac");
  expect(t.problems().size() == 2, "one problem line per failure");
  expect(perfbench::Tally().failed_frac() == 1.0,
         "nothing attempted counts as failed");
}

}  // namespace

int main() {
  percentile_helper();
  nested_self_time();
  failure_accounting();
  if (failures == 0) std::puts("perfbench selftest: all checks passed");
  return failures == 0 ? 0 : 1;
}
