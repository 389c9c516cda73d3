#include "grid/besteffort.h"

#include <algorithm>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/profiler.h"

namespace lgs {

CentralServer::CentralServer(const std::vector<ParametricBag>& bags) {
  for (const ParametricBag& bag : bags) {
    for (int i = 0; i < bag.runs; ++i) pending_.push_back(bag.run_time);
    total_runs_ += bag.runs;
  }
}

BestEffortSource CentralServer::make_source() {
  BestEffortSource src;
  src.request = [this](int max_runs) {
    std::vector<Time> grants;
    while (static_cast<int>(grants.size()) < max_runs && !pending_.empty()) {
      grants.push_back(pending_.front());
      pending_.pop_front();
    }
    return grants;
  };
  src.on_kill = [this](Time duration) {
    pending_.push_front(duration);
    ++resubmissions_;
    LGS_PROF_COUNT("grid.be_resubmits", 1);
  };
  src.on_done = [this] { ++completed_; };
  return src;
}

void CentralServer::save_checkpoint(CheckpointWriter& w) const {
  w.u64(pending_.size());
  for (Time t : pending_) w.f64(t);
  w.i64(total_runs_);
  w.i64(completed_);
  w.i64(resubmissions_);
}

void CentralServer::restore_checkpoint(CheckpointReader& r) {
  pending_.clear();
  const std::uint64_t n = r.count(8);
  for (std::uint64_t i = 0; i < n; ++i) pending_.push_back(r.f64());
  total_runs_ = static_cast<long>(r.i64());
  completed_ = static_cast<long>(r.i64());
  resubmissions_ = static_cast<long>(r.i64());
}

namespace {

/// One full simulation pass; returns the clusters (owning pointers kept
/// alive by the caller's vector) after the event queue drains.
struct Pass {
  Simulator sim;
  std::vector<std::unique_ptr<OnlineCluster>> clusters;
};

void run_pass(Pass& pass, const LightGrid& grid,
              const std::vector<JobSet>& local_per_cluster,
              CentralServer* server, OnlineCluster::Options opts) {
  for (std::size_t i = 0; i < grid.clusters.size(); ++i) {
    pass.clusters.push_back(
        std::make_unique<OnlineCluster>(pass.sim, grid.clusters[i], opts));
    if (server != nullptr)
      pass.clusters.back()->set_besteffort_source(server->make_source());
  }
  for (std::size_t i = 0; i < local_per_cluster.size(); ++i) {
    if (i >= pass.clusters.size())
      throw std::invalid_argument("more workloads than clusters");
    for (const Job& j : local_per_cluster[i])
      pass.clusters[i]->submit_local(j);
  }
  pass.sim.run();
}

bool same_local_records(const std::vector<std::unique_ptr<OnlineCluster>>& a,
                        const std::vector<std::unique_ptr<OnlineCluster>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a[i]->local_records();
    const auto& rb = b[i]->local_records();
    if (ra.size() != rb.size()) return false;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      if (ra[k].id != rb[k].id || !almost_equal(ra[k].submit, rb[k].submit) ||
          !almost_equal(ra[k].start, rb[k].start) ||
          !almost_equal(ra[k].finish, rb[k].finish))
        return false;
    }
  }
  return true;
}

}  // namespace

CentralizedResult run_centralized(const LightGrid& grid,
                                  const std::vector<JobSet>& local_per_cluster,
                                  const std::vector<ParametricBag>& bags,
                                  OnlineCluster::Options cluster_opts) {
  // Pass A: grid jobs enabled.
  CentralServer server(bags);
  Pass with_grid;
  run_pass(with_grid, grid, local_per_cluster, &server, cluster_opts);

  // Pass B: the baseline without grid jobs, for the non-disturbance check.
  Pass baseline;
  run_pass(baseline, grid, local_per_cluster, nullptr, cluster_opts);

  CentralizedResult res;
  res.horizon = with_grid.sim.now();
  res.grid_runs_total = server.total_runs();
  res.grid_runs_completed = server.completed();
  res.grid_resubmissions = server.resubmissions();
  res.local_unaffected =
      same_local_records(with_grid.clusters, baseline.clusters);

  for (std::size_t i = 0; i < with_grid.clusters.size(); ++i) {
    const OnlineCluster& c = *with_grid.clusters[i];
    ClusterOutcome out;
    out.id = c.id();
    out.be = c.besteffort_stats();
    double wait = 0.0, slow = 0.0;
    for (const LocalJobRecord& r : c.local_records()) {
      wait += r.wait();
      slow += r.slowdown();
    }
    const double n = std::max<std::size_t>(1, c.local_records().size());
    out.local_mean_wait = wait / n;
    out.local_mean_slowdown = slow / n;
    const double denom = c.processors() * std::max(res.horizon, kTimeEps);
    out.utilization_local = c.local_busy_integral() / denom;
    out.utilization_total = c.busy_integral() / denom;
    res.clusters.push_back(out);
  }
  return res;
}

}  // namespace lgs
