// Multi-GPU engine semantics: dispatch-order slot admission, kernel launch
// serialization, communication accounting, report invariants.
#include <gtest/gtest.h>

#include "core/comm_nvshmem.hpp"
#include "core/comm_unified.hpp"
#include "core/mg_engine.hpp"
#include "core/plan.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "sparse/generators.hpp"
#include "support/contracts.hpp"

namespace msptrsv::core {
namespace {

sim::RunReport run_nvshmem(const sparse::CscMatrix& l,
                           const sparse::Partition& p, const sim::Machine& m,
                           NvshmemCommOptions options = {}) {
  sim::Interconnect net(m.topology, m.cost);
  NvshmemComm comm(net, m.cost, p.num_gpus(), l.rows, options);
  return run_mg_engine(l, p, m, net, comm);
}

sim::RunReport run_unified(const sparse::CscMatrix& l,
                           const sparse::Partition& p, const sim::Machine& m) {
  sim::Interconnect net(m.topology, m.cost);
  UnifiedComm comm(net, m.cost, p.num_gpus(), l.rows);
  return run_mg_engine(l, p, m, net, comm);
}

// The engine is a pure cost model; a simulated backend's x comes from its
// plan. Solves `b` through the registry backend `key` on machine `m`.
std::vector<value_t> plan_x(const sparse::CscMatrix& l, const char* key,
                            const sim::Machine& m,
                            const std::vector<value_t>& b) {
  SolveOptions options = registry::options_for(key).value();
  options.machine = m;
  return SolverPlan::analyze(l, options).value().solve(b).value().x;
}

TEST(MgEngine, ChainMakespanReflectsSequentialVisibility) {
  // A pure chain on one GPU: makespan >= n * (solve + local visibility).
  const index_t n = 2000;
  const sparse::CscMatrix l = sparse::gen_chain(n);
  const std::vector<value_t> b(static_cast<std::size_t>(n), 1.0);
  const sim::Machine m = sim::Machine::dgx1(1);
  const sim::RunReport r = run_nvshmem(l, sparse::Partition::block(n, 1), m);
  const double per_hop = m.cost.solve_base_us + m.cost.local_visibility_us;
  EXPECT_GE(r.solve_us, 0.9 * n * per_hop);
  EXPECT_EQ(plan_x(l, "mg-shmem", m, b), solve_lower_serial(l, b));
}

TEST(MgEngine, DiagonalMatrixIsThroughputBound) {
  // No dependencies: time ~ n / (gpus * warp_slots) waves.
  const index_t n = 60000;
  const sparse::CscMatrix l = sparse::gen_diagonal(n);
  const sim::Machine m = sim::Machine::dgx1(4);
  const sim::RunReport r = run_nvshmem(l, sparse::Partition::block(n, 4), m);
  const double waves =
      static_cast<double>(n) / (4.0 * m.cost.warp_slots_per_gpu);
  EXPECT_GE(r.solve_us, waves * m.cost.solve_base_us);
  EXPECT_EQ(r.remote_updates, 0u);
}

TEST(MgEngine, KernelLaunchOverheadScalesWithTaskCount) {
  const index_t n = 4000;
  const sparse::CscMatrix l = sparse::gen_diagonal(n);
  const sim::Machine m = sim::Machine::dgx1(2);
  const sim::RunReport few =
      run_nvshmem(l, sparse::Partition::round_robin_tasks(n, 2, 2), m);
  const sim::RunReport many =
      run_nvshmem(l, sparse::Partition::round_robin_tasks(n, 2, 256), m);
  EXPECT_EQ(few.kernel_launches, 4u);
  EXPECT_EQ(many.kernel_launches, 512u);
  // 256 serialized launches delay the last task by ~256 * launch_us.
  EXPECT_GT(many.solve_us, few.solve_us + 200.0 * m.cost.kernel_launch_us);
}

TEST(MgEngine, BlockPartitionShowsUnidirectionalWaiting) {
  // With block distribution the last GPU's busy time starts late; the task
  // pool spreads early work to every GPU. Compare idle skew.
  const sparse::CscMatrix l = sparse::gen_layered_dag(24000, 60, 120000, 0.2, 9);
  const sim::Machine m = sim::Machine::dgx1(4);
  const sim::RunReport block =
      run_nvshmem(l, sparse::Partition::block(l.rows, 4), m);
  const sim::RunReport tasks =
      run_nvshmem(l, sparse::Partition::round_robin_tasks(l.rows, 4, 8), m);
  EXPECT_LT(tasks.solve_us, block.solve_us);
  EXPECT_LE(tasks.load_imbalance(), block.load_imbalance());
}

TEST(MgEngine, RemoteUpdateCountMatchesPartitionPrediction) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(6000, 30, 30000, 0.4, 5);
  const sparse::Partition p = sparse::Partition::block(l.rows, 4);
  const sim::RunReport r = run_nvshmem(l, p, sim::Machine::dgx1(4));
  EXPECT_EQ(r.remote_updates,
            static_cast<std::uint64_t>(p.count_remote_updates(l)));
  EXPECT_EQ(r.local_updates + r.remote_updates,
            static_cast<std::uint64_t>(l.nnz() - l.rows));
}

TEST(MgEngine, AnalysisPhaseChargedWhenRequested) {
  const sparse::CscMatrix l = sparse::gen_banded(3000, 6, 0.5, 3);
  const sparse::Partition p = sparse::Partition::block(l.rows, 2);
  const sim::Machine m = sim::Machine::dgx1(2);

  sim::Interconnect net1(m.topology, m.cost);
  NvshmemComm c1(net1, m.cost, 2, l.rows);
  EngineOptions with;
  const sim::RunReport a = run_mg_engine(l, p, m, net1, c1, with);

  sim::Interconnect net2(m.topology, m.cost);
  NvshmemComm c2(net2, m.cost, 2, l.rows);
  EngineOptions without;
  without.include_analysis = false;
  const sim::RunReport c = run_mg_engine(l, p, m, net2, c2, without);

  EXPECT_GT(a.analysis_us, 0.0);
  EXPECT_DOUBLE_EQ(c.analysis_us, 0.0);
  EXPECT_DOUBLE_EQ(a.solve_us, c.solve_us);
}

TEST(MgEngine, UnifiedCommBooksFaultsNvshmemBooksGets) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(8000, 40, 40000, 0.2, 7);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 4));
  const sparse::Partition p = sparse::Partition::block(l.rows, 4);
  const sim::Machine m = sim::Machine::dgx1(4);
  const sim::RunReport u = run_unified(l, p, m);
  const sim::RunReport s = run_nvshmem(l, p, m);
  EXPECT_GT(u.page_faults, 0u);
  EXPECT_EQ(u.nvshmem_gets, 0u);
  EXPECT_GT(s.nvshmem_gets, 0u);
  EXPECT_EQ(s.page_faults, 0u);
  // Both plans (block partition over the same machine) compute the right
  // answer: the serial reference's, bit for bit.
  const std::vector<value_t> gold = solve_lower_serial(l, b);
  EXPECT_EQ(plan_x(l, "mg-unified", m, b), gold);
  EXPECT_EQ(plan_x(l, "mg-shmem", m, b), gold);
}

TEST(MgEngine, SymmetricHeapSizeMatchesTwoArraysPerPe) {
  const index_t n = 5000;
  const sim::Machine m = sim::Machine::dgx1(4);
  sim::Interconnect net(m.topology, m.cost);
  NvshmemComm comm(net, m.cost, 4, n);
  EXPECT_DOUBLE_EQ(comm.symmetric_heap_bytes(),
                   n * (sizeof(value_t) + sizeof(index_t)));
}

TEST(MgEngine, RejectsMismatchedPartition) {
  const sparse::CscMatrix l = sparse::gen_chain(100);
  const sparse::Partition p = sparse::Partition::block(99, 2);
  const sim::Machine m = sim::Machine::dgx1(2);
  sim::Interconnect net(m.topology, m.cost);
  NvshmemComm comm(net, m.cost, 2, 100);
  EXPECT_THROW(run_mg_engine(l, p, m, net, comm),
               support::PreconditionError);
}

TEST(MgEngine, RejectsPartitionWiderThanMachine) {
  const sparse::CscMatrix l = sparse::gen_chain(100);
  const sparse::Partition p = sparse::Partition::block(100, 4);
  const sim::Machine m = sim::Machine::dgx1(2);
  sim::Interconnect net(m.topology, m.cost);
  NvshmemComm comm(net, m.cost, 4, 100);
  EXPECT_THROW(run_mg_engine(l, p, m, net, comm),
               support::PreconditionError);
}

}  // namespace
}  // namespace msptrsv::core
