// Simulated backends pinned numerically and by timing.
//
// Every simulated backend costs its execution as a pure model and takes
// its numerics from the serial reference sweep, so its x must be the
// serial plan's x bit for bit -- lower and upper, fused and looped, at
// every batch width. The multi-GPU cost model itself is pinned by exact
// golden figures: any change to an event, launch, gather, update message
// or comm-policy counter moves one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

std::vector<value_t> batch_for(const sparse::CscMatrix& l, index_t num_rhs,
                               std::uint64_t seed0) {
  std::vector<value_t> batch;
  for (index_t j = 0; j < num_rhs; ++j) {
    const std::vector<value_t> bj = sparse::gen_rhs_for_solution(
        l, sparse::gen_solution(l.rows, seed0 + static_cast<std::uint64_t>(j)));
    batch.insert(batch.end(), bj.begin(), bj.end());
  }
  return batch;
}

core::SolverPlan plan_for(const sparse::CscMatrix& m, bool upper,
                          const core::SolveOptions& opt) {
  auto plan = upper ? core::SolverPlan::analyze_upper(m, opt)
                    : core::SolverPlan::analyze(m, opt);
  EXPECT_TRUE(plan.ok()) << plan.message();
  return std::move(plan.value());
}

TEST(SimBackends, XIsBitwiseTheSerialPlansOnEveryWidthAndFactor) {
  const sparse::CscMatrix lower =
      sparse::gen_layered_dag(900, 24, 5400, 0.5, 77);
  const sparse::CscMatrix upper = sparse::transpose(lower);
  for (const bool is_upper : {false, true}) {
    const sparse::CscMatrix& m = is_upper ? upper : lower;
    const core::SolverPlan serial =
        plan_for(m, is_upper, core::registry::options_for("serial").value());
    for (const char* key : {"gpu-levelset", "mg-unified", "mg-unified-task",
                            "mg-shmem", "mg-zerocopy"}) {
      for (const bool fuse : {true, false}) {
        core::SolveOptions opt = core::registry::options_for(key).value();
        opt.fuse_batch = fuse;
        const core::SolverPlan sim = plan_for(m, is_upper, opt);
        for (const index_t k : {1, 4, 16}) {
          const std::vector<value_t> b = batch_for(m, k, 500);
          const auto want = serial.solve_batch(b, k);
          const auto got = sim.solve_batch(b, k);
          ASSERT_TRUE(want.ok()) << want.message();
          ASSERT_TRUE(got.ok()) << key << ": " << got.message();
          EXPECT_EQ(got.value().x, want.value().x)
              << key << (is_upper ? " upper" : " lower")
              << (fuse ? " fused" : " looped") << " k=" << k;
        }
      }
    }
  }
}

struct Golden {
  const char* key;
  index_t k;
  double solve_us;
  std::uint64_t link_messages;
  double link_bytes;
  std::uint64_t kernel_launches;
  std::uint64_t remote_updates;
  std::uint64_t page_faults;
  std::uint64_t nvshmem_gets;
};

// Recorded from the engine that still carried the numerics inside its
// event schedule (fused solve_batch; rhs j built from gen_solution seed
// 40 + j). Exact: the cost model is deterministic, no tolerance applies.
constexpr Golden kGolden[] = {
    {"mg-unified", 1, 568.23309999999958, 649, 2658304, 4, 3861, 649, 0},
    {"mg-unified", 4, 576.70311999999967, 645, 2641920, 4, 3861, 645, 0},
    {"mg-unified", 16, 603.05239999999992, 693, 2838528, 4, 3861, 693, 0},
    {"mg-unified-task", 1, 1025.1152000000006, 2270, 9297920, 32, 6883, 2270,
     0},
    {"mg-unified-task", 4, 1068.4308000000003, 2278, 9330688, 32, 6883, 2278,
     0},
    {"mg-unified-task", 16, 1025.88816, 2346, 9609216, 32, 6883, 2346, 0},
    {"mg-shmem", 1, 89.527899999999889, 4434, 26604, 4, 3861, 0, 4434},
    {"mg-shmem", 4, 91.280559999999895, 4434, 79812, 4, 3861, 0, 4434},
    {"mg-shmem", 16, 98.769199999999984, 4434, 292644, 4, 3861, 0, 4434},
    {"mg-zerocopy", 1, 100.38761999999977, 8938, 53628, 32, 6883, 0, 8938},
    {"mg-zerocopy", 4, 101.95511999999974, 8938, 160884, 32, 6883, 0, 8938},
    {"mg-zerocopy", 16, 108.69487999999983, 8938, 589908, 32, 6883, 0, 8938},
};

TEST(SimBackends, MultiGpuCostModelMatchesGoldenFigures) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(2400, 30, 12000, 0.4, 21);
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.key) + " k=" + std::to_string(g.k));
    const core::SolverPlan plan =
        plan_for(l, false, core::registry::options_for(g.key).value());
    const auto r = plan.solve_batch(batch_for(l, g.k, 40), g.k);
    ASSERT_TRUE(r.ok()) << r.message();
    const sim::RunReport& rep = r.value().report;
    EXPECT_EQ(rep.solve_us, g.solve_us);
    EXPECT_EQ(rep.link_messages, g.link_messages);
    EXPECT_EQ(rep.link_bytes, g.link_bytes);
    EXPECT_EQ(rep.kernel_launches, g.kernel_launches);
    EXPECT_EQ(rep.remote_updates, g.remote_updates);
    EXPECT_EQ(rep.page_faults, g.page_faults);
    EXPECT_EQ(rep.nvshmem_gets, g.nvshmem_gets);
  }
}

}  // namespace
}  // namespace msptrsv
