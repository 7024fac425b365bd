#include "core/comm_unified.hpp"

namespace msptrsv::core {

UnifiedComm::UnifiedComm(sim::Interconnect& net, const sim::CostModel& cost,
                         int num_gpus, index_t n, index_t batch_width)
    : cost_(cost), um_(net, cost, num_gpus) {
  in_degree_region_ = um_.create_region(n, sizeof(index_t));
  // One left-sum partial per RHS of the fused batch: pages (and the bytes
  // their migrations move) are batch_width values wide.
  left_sum_region_ =
      um_.create_region(n, static_cast<double>(batch_width) * sizeof(value_t));
}

UpdateTiming UnifiedComm::push_update(int src_gpu, int dst_gpu, index_t dep,
                                      sim_time_t issue, bool is_final) {
  if (src_gpu == dst_gpu) {
    // Device-local d-arrays: device-scope atomic pair; the local waiter
    // observes it after L2 propagation + half a poll iteration.
    const sim_time_t done = issue + cost_.atomic_local_us;
    return {done, done + cost_.local_visibility_us};
  }
  // System-wide atomics to s.left_sum[dep] / s.in_degree[dep]: the writing
  // warp proceeds once the requests are queued to the fabric; the page
  // migrations they trigger land on the page timelines.
  const sim_time_t producer_done = issue + cost_.atomic_system_us;
  sim_time_t t = um_.access(left_sum_region_, dep, src_gpu, issue);
  t = um_.access(in_degree_region_, dep, src_gpu, t);
  // The dependent's busy-wait loop polls s.in_degree[dep] and pulls the
  // page back to its own GPU (the return half of the thrashing ping-pong),
  // rate-limited by the fault service time. The final update books that
  // pull; earlier updates become visible with whichever pull follows them.
  sim_time_t visible;
  if (is_final) {
    visible = um_.poll_read(in_degree_region_, dep, dst_gpu, t) +
              0.5 * cost_.poll_quantum_us;
  } else {
    visible = um_.poll_visibility(in_degree_region_, dep, dst_gpu, t) +
              0.5 * cost_.poll_quantum_us;
  }
  return {producer_done, visible};
}

sim_time_t UnifiedComm::gather_before_solve(int gpu, index_t comp,
                                            std::span<const int> remote_gpus,
                                            sim_time_t start) {
  // The lock-wait exit re-reads s.in_degree[comp] (always, per Algorithm 2
  // line 17) ...
  sim_time_t t1 = um_.poll_read(in_degree_region_, comp, gpu, start);
  // ... and the solve reads s.left_sum[comp], which the last remote writer
  // may still own.
  sim_time_t t = t1;
  if (!remote_gpus.empty()) {
    t = um_.poll_read(left_sum_region_, comp, gpu, t1);
  }
  return t + cost_.atomic_local_us;
}

void UnifiedComm::fill_report(sim::RunReport& report) const {
  const sim::UnifiedMemoryStats& s = um_.stats();
  report.solver_name = "sptrsv-unified";
  report.page_faults = s.faults;
  report.page_migrations = s.migrations;
  report.page_migrated_bytes = s.migrated_bytes;
  report.page_faults_per_gpu = s.faults_per_gpu;
  report.page_pins = s.pins;
  report.direct_remote_accesses = s.direct_remote_accesses;
}

}  // namespace msptrsv::core
