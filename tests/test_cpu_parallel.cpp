// Real-thread host backends under true concurrency: correctness across
// repeated runs, thread counts and matrix shapes. Both schedules -- the
// level barrier (cpu-levelset) and the task claim (cpu-taskgraph) -- run
// through SolverPlan, the way every caller reaches them.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/msptrsv.hpp"

namespace msptrsv::core {
namespace {

SolverPlan host_plan(const sparse::CscMatrix& l, const std::string& key,
                     int threads) {
  SolveOptions o = registry::options_for(key).value();
  o.cpu_threads = threads;
  auto plan = SolverPlan::analyze(l, o);
  EXPECT_TRUE(plan.ok()) << plan.message();
  return std::move(plan.value());
}

class CpuParallelThreads
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(CpuParallelThreads, MatchesSerial) {
  const auto [key, threads] = GetParam();
  const sparse::CscMatrix l = sparse::gen_layered_dag(3000, 60, 15000, 0.4, 3);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 1));
  const std::vector<value_t> gold = solve_lower_serial(l, b);
  const std::vector<value_t> x = host_plan(l, key, threads).solve(b).value().x;
  EXPECT_LT(max_relative_difference(x, gold), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, CpuParallelThreads,
    ::testing::Combine(::testing::Values("cpu-levelset", "cpu-taskgraph"),
                       ::testing::Values(1, 2, 3, 4, 8)));

TEST(CpuParallel, TaskClaimSurvivesRowGranularDags) {
  // Worst case for busy-wait scheduling: one task per row of every wide
  // level (block_rows = 1), so thousands of claimants spin on thousands
  // of cross-task edges with more tasks than threads. The ascending claim
  // must not deadlock, and repeated generations on the same workspace
  // must keep their delivery targets straight.
  const sparse::CscMatrix l = sparse::gen_rmat_lower(10, 6000, 17);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 4));
  const sparse::LevelAnalysis levels = sparse::analyze_levels(l);
  const sparse::TaskGraph graph =
      sparse::coarsen_levels(l, levels, {.narrow_width = 1, .block_rows = 1});
  ASSERT_GT(graph.num_tasks, l.rows / 2);
  const sparse::CsrMatrix rows = sparse::csr_from_csc(l);
  const std::vector<value_t> gold = solve_lower_serial(l, b);
  SolveWorkspace ws(4);
  std::vector<value_t> first;
  for (int run = 0; run < 10; ++run) {
    std::vector<value_t> x(b.size());
    ASSERT_TRUE(solve_lower_taskgraph_fused(graph, rows, b, 1, ws, x));
    EXPECT_LT(max_relative_difference(x, gold), 1e-10) << "run " << run;
    if (run == 0) first = x;
    EXPECT_EQ(x, first) << "run " << run;
  }
}

TEST(CpuParallel, RepeatedRunsAreConsistentUnderRaces) {
  // The pull-based gather fixes the summation order, so every run of
  // every schedule returns the same bits.
  const sparse::CscMatrix l = sparse::gen_rmat_lower(10, 6000, 17);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 4));
  for (const char* key : {"cpu-levelset", "cpu-taskgraph"}) {
    const SolverPlan plan = host_plan(l, key, 4);
    const std::vector<value_t> first = plan.solve(b).value().x;
    EXPECT_LT(relative_residual(l, first, b), 1e-11) << key;
    for (int run = 0; run < 10; ++run) {
      EXPECT_EQ(plan.solve(b).value().x, first) << key << " run " << run;
    }
  }
}

TEST(CpuParallel, HandlesSingleLevelAndSingleChain) {
  for (const char* key : {"cpu-levelset", "cpu-taskgraph"}) {
    {
      const sparse::CscMatrix l = sparse::gen_diagonal(100);
      const std::vector<value_t> b(100, 2.0);
      const std::vector<value_t> x = host_plan(l, key, 3).solve(b).value().x;
      EXPECT_LT(max_relative_difference(x, solve_lower_serial(l, b)), 1e-12)
          << key;
    }
    {
      const sparse::CscMatrix l = sparse::gen_chain(5000);
      const std::vector<value_t> b =
          sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 3));
      const std::vector<value_t> x = host_plan(l, key, 4).solve(b).value().x;
      EXPECT_LT(max_relative_difference(x, solve_lower_serial(l, b)), 1e-10)
          << key;
    }
  }
}

TEST(CpuParallel, DefaultThreadCountWorks) {
  const sparse::CscMatrix l = sparse::gen_banded(1000, 6, 0.5, 7);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 5));
  for (const char* key : {"cpu-levelset", "cpu-taskgraph"}) {
    const std::vector<value_t> x = host_plan(l, key, 0).solve(b).value().x;
    EXPECT_LT(relative_residual(l, x, b), 1e-11) << key;
  }
}

}  // namespace
}  // namespace msptrsv::core
