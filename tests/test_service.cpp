// The multi-tenant solve service contract:
//
//  * every answered request is bit-for-bit what a direct plan.solve /
//    plan.solve_batch would have produced, no matter how the dispatcher
//    coalesced it into fused batches;
//  * a burst of k same-plan single-RHS submits executes as at most
//    ceil(k / max_coalesce) fused solve_batch dispatches (observable in
//    ServiceStats);
//  * past the admission bound, submits fail FAST with typed kOverloaded --
//    never block, never vanish;
//  * plans served through the service run their kernels on the shared
//    worker pool and own zero threads, idle or busy;
//  * the whole thing survives N client threads x M plans of mixed
//    single/batch traffic (run under the ASan/UBSan CI config like every
//    other test).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

using service::ServiceOptions;
using service::ServiceStatsSnapshot;
using service::SolveService;

sparse::CscMatrix service_matrix(std::uint64_t seed) {
  return sparse::gen_layered_dag(400, 14, 2200, 0.5, seed);
}

std::vector<value_t> rhs_for(const sparse::CscMatrix& l, std::uint64_t seed) {
  return sparse::gen_rhs_for_solution(l,
                                      sparse::gen_solution(l.rows, seed));
}

TEST(SolveService, SingleSubmitMatchesDirectSolveBitForBit) {
  const sparse::CscMatrix l = service_matrix(7);
  const std::vector<value_t> b = rhs_for(l, 1);

  SolveService svc;
  const auto plan = svc.plan_for(l, "cpu-taskgraph");
  ASSERT_TRUE(plan.ok()) << plan.message();

  const std::vector<value_t> want = plan->solve(b).value().x;
  auto fut = svc.submit(*plan, b);
  SolveService::Reply r = fut.get();
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value().x, want);
  // Served plans gang on the shared pool: zero owned threads, ever.
  EXPECT_TRUE(plan->options().use_shared_pool);
  EXPECT_EQ(plan->owned_thread_count(), 0u);
  EXPECT_GE(plan->workspace_count(), 1u);
}

TEST(SolveService, BurstCoalescesIntoFusedBatches) {
  const sparse::CscMatrix l = service_matrix(11);
  constexpr int kBurst = 16;
  constexpr index_t kWidth = 8;

  ServiceOptions opt;
  opt.max_coalesce = kWidth;
  // Generous window: while it is open only the width trigger can ripen a
  // group, so a fast burst is GUARANTEED to fuse (the remainder, if any,
  // waits the window out).
  opt.coalesce_window = std::chrono::microseconds(300000);
  SolveService svc(opt);

  const auto plan = svc.plan_for(l, "cpu-levelset");
  ASSERT_TRUE(plan.ok()) << plan.message();

  std::vector<std::vector<value_t>> rhs;
  std::vector<std::vector<value_t>> want;
  for (int j = 0; j < kBurst; ++j) {
    rhs.push_back(rhs_for(l, 100 + static_cast<std::uint64_t>(j)));
    want.push_back(plan->solve(rhs.back()).value().x);
  }

  std::vector<std::future<SolveService::Reply>> futures;
  for (int j = 0; j < kBurst; ++j) {
    futures.push_back(svc.submit(*plan, rhs[static_cast<std::size_t>(j)]));
  }
  for (int j = 0; j < kBurst; ++j) {
    SolveService::Reply r = futures[static_cast<std::size_t>(j)].get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, want[static_cast<std::size_t>(j)])
        << "coalesced result " << j << " diverged from direct plan.solve";
  }

  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(s.rejected, 0u);
  // The acceptance bound: k singles in <= ceil(k/width) fused dispatches.
  EXPECT_LE(s.batches,
            static_cast<std::uint64_t>((kBurst + kWidth - 1) / kWidth));
  EXPECT_GE(s.coalesced_rhs, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(s.mean_coalesce_width, 1.0);
  // Width-8 dispatches land in the 5-8 bucket.
  EXPECT_GT(s.coalesce_hist[3], 0u);
  EXPECT_GT(s.p50_latency_us, 0.0);
  EXPECT_GE(s.p99_latency_us, s.p50_latency_us);
  ASSERT_EQ(s.per_plan.size(), 1u);
  EXPECT_EQ(s.per_plan[0].plan, plan->state_id());
  EXPECT_EQ(s.per_plan[0].solves, static_cast<std::uint64_t>(kBurst));
}

TEST(SolveService, OverloadRejectsFastWithTypedBackpressure) {
  const sparse::CscMatrix l = service_matrix(13);

  ServiceOptions opt;
  opt.max_pending_rhs = 2;
  // Window long enough that the queue is still full when the third
  // submit probes the overload path, even on a preempted CI box.
  opt.coalesce_window = std::chrono::microseconds(400000);
  opt.max_coalesce = 32;
  SolveService svc(opt);

  const auto plan = svc.plan_for(l, "serial");
  ASSERT_TRUE(plan.ok()) << plan.message();
  const std::vector<value_t> b = rhs_for(l, 3);
  const std::vector<value_t> want = plan->solve(b).value().x;

  auto f1 = svc.submit(*plan, b);
  auto f2 = svc.submit(*plan, b);
  // Queue is at max_pending_rhs and the window keeps it unripe: the third
  // submit must come back kOverloaded IMMEDIATELY (the future is ready).
  auto f3 = svc.submit(*plan, b);
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  SolveService::Reply rejected = f3.get();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status(), core::SolveStatus::kOverloaded);

  // Wrong-length batches reject on shape before touching the queue.
  auto bad = svc.submit_batch(*plan, b, 2);
  EXPECT_EQ(bad.get().status(), core::SolveStatus::kShapeMismatch);

  // A batch wider than the whole admission bound can never be served:
  // permanent kShapeMismatch, not "retry later" (which would loop a
  // well-behaved client forever).
  std::vector<value_t> wide;
  for (int j = 0; j < 3; ++j) wide.insert(wide.end(), b.begin(), b.end());
  auto never = svc.submit_batch(*plan, wide, 3);
  EXPECT_EQ(never.get().status(), core::SolveStatus::kShapeMismatch);

  // The admitted pair still completes correctly (coalesced or not).
  EXPECT_EQ(f1.get().value().x, want);
  EXPECT_EQ(f2.get().value().x, want);

  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_GE(s.peak_queue_depth, 2u);
}

TEST(SolveService, ContendedMixedTrafficStaysBitExact) {
  // N client threads x M plans, mixed single and batch submits, all
  // racing one service. Every reply must be bit-for-bit the direct
  // plan.solve / solve_batch result -- while ASan/TSan-style tooling
  // (the sanitize CI job) watches the queue, dispatcher, shared pool,
  // and stats for races.
  constexpr int kClients = 6;
  constexpr int kItersPerClient = 8;
  constexpr index_t kBatchRhs = 3;
  const char* kBackends[] = {"serial", "cpu-levelset", "cpu-taskgraph"};

  ServiceOptions opt;
  opt.coalesce_window = std::chrono::microseconds(100);
  SolveService svc(opt);

  struct Tenant {
    core::SolverPlan plan;
    std::vector<value_t> b;
    std::vector<value_t> batch;
    std::vector<value_t> want_single;
    std::vector<value_t> want_batch;
  };
  std::vector<Tenant> tenants;
  for (std::size_t m = 0; m < 3; ++m) {
    const sparse::CscMatrix l = service_matrix(40 + m);
    auto plan = svc.plan_for(l, kBackends[m]);
    ASSERT_TRUE(plan.ok()) << plan.message();
    std::vector<value_t> b = rhs_for(l, 50 + m);
    std::vector<value_t> batch;
    for (index_t j = 0; j < kBatchRhs; ++j) {
      const std::vector<value_t> col = rhs_for(l, 60 + m * 7 + static_cast<std::size_t>(j));
      batch.insert(batch.end(), col.begin(), col.end());
    }
    Tenant t{*plan, b, batch, plan->solve(b).value().x,
             plan->solve_batch(batch, kBatchRhs).value().x};
    tenants.push_back(std::move(t));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int it = 0; it < kItersPerClient; ++it) {
        Tenant& t = tenants[static_cast<std::size_t>((c + it) % 3)];
        if ((c + it) % 2 == 0) {
          SolveService::Reply r = svc.submit(t.plan, t.b).get();
          if (!r.ok()) {
            failures.fetch_add(1);
          } else if (r.value().x != t.want_single) {
            mismatches.fetch_add(1);
          }
        } else {
          SolveService::Reply r =
              svc.submit_batch(t.plan, t.batch, kBatchRhs).get();
          if (!r.ok()) {
            failures.fetch_add(1);
          } else if (r.value().x != t.want_batch) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "service replies diverged from direct plan solves under contention";

  const ServiceStatsSnapshot s = svc.stats();
  const std::uint64_t total_rhs = static_cast<std::uint64_t>(kClients) *
                                  kItersPerClient / 2 *
                                  (1 + static_cast<std::uint64_t>(kBatchRhs));
  EXPECT_EQ(s.submitted, total_rhs);
  EXPECT_EQ(s.completed, total_rhs);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.per_plan.size(), 3u);
  // No tenant owns kernel threads: everything ganged on the shared pool.
  for (const Tenant& t : tenants) {
    EXPECT_EQ(t.plan.owned_thread_count(), 0u);
  }
}

TEST(SolveService, PlanForIsAnalyzeOnFirstUse) {
  const sparse::CscMatrix l = service_matrix(21);
  SolveService svc;

  const auto first = svc.plan_for(l, "cpu-taskgraph");
  ASSERT_TRUE(first.ok());
  const auto second = svc.plan_for(l, "cpu-taskgraph");
  ASSERT_TRUE(second.ok());
  // Same symbolic state: submits through either copy coalesce together.
  EXPECT_EQ(first->state_id(), second->state_id());
  const core::PlanCache::Stats cs = svc.plan_cache().stats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits, 1u);

  // Unknown keys surface the registry's typed error.
  EXPECT_EQ(svc.plan_for(l, "no-such-backend").status(),
            core::SolveStatus::kUnknownBackend);
}

TEST(SolveService, PresetConstructionServesSimulatedBackends) {
  const sparse::CscMatrix l = service_matrix(23);
  SolveService svc;
  const auto plan = svc.plan_for_preset(l, "dgx1x8");
  ASSERT_TRUE(plan.ok()) << plan.message();
  EXPECT_EQ(plan->options().machine.num_gpus(), 8);
  EXPECT_TRUE(plan->options().use_shared_pool);

  const std::vector<value_t> b = rhs_for(l, 5);
  const std::vector<value_t> want = plan->solve(b).value().x;
  EXPECT_EQ(svc.submit(*plan, b).get().value().x, want);
}

TEST(SolveService, DestructorDrainsEverythingAdmitted) {
  const sparse::CscMatrix l = service_matrix(29);
  std::vector<std::future<SolveService::Reply>> futures;
  const std::vector<value_t> b = rhs_for(l, 9);
  std::vector<value_t> want;
  {
    ServiceOptions opt;
    opt.coalesce_window = std::chrono::microseconds(50000);
    SolveService svc(opt);
    const auto plan = svc.plan_for(l, "cpu-levelset");
    ASSERT_TRUE(plan.ok());
    want = plan->solve(b).value().x;
    for (int j = 0; j < 6; ++j) futures.push_back(svc.submit(*plan, b));
    // Service dies here with requests possibly still queued.
  }
  for (auto& f : futures) {
    SolveService::Reply r = f.get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, want);
  }
}

// ---- priorities, deadlines, packing ---------------------------------------

TEST(SolveServiceScheduling, HighPriorityDispatchesBeforeBackground) {
  // A background group waits background_window_scale x window for company;
  // a high-priority group ripens immediately. Submit background FIRST,
  // then high: high must complete while background is still queued.
  const sparse::CscMatrix la = service_matrix(61);
  const sparse::CscMatrix lb = service_matrix(62);

  ServiceOptions opt;
  opt.coalesce_window = std::chrono::milliseconds(250);
  opt.background_window_scale = 4.0;  // background ripens after 1 s
  std::vector<std::future<SolveService::Reply>> bg;
  std::vector<value_t> bg_want, hi_want;
  {
    SolveService svc(opt);
    const auto plan_bg = svc.plan_for(la, "cpu-taskgraph");
    const auto plan_hi = svc.plan_for(lb, "cpu-taskgraph");
    ASSERT_TRUE(plan_bg.ok());
    ASSERT_TRUE(plan_hi.ok());
    const std::vector<value_t> b_bg = rhs_for(la, 1);
    const std::vector<value_t> b_hi = rhs_for(lb, 2);
    bg_want = plan_bg->solve(b_bg).value().x;
    hi_want = plan_hi->solve(b_hi).value().x;

    bg.push_back(svc.submit(*plan_bg, b_bg,
                            {.priority = service::Priority::kBackground}));
    auto hi = svc.submit(*plan_hi, b_hi,
                         {.priority = service::Priority::kHigh});
    SolveService::Reply r = hi.get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, hi_want);
    // The background request is still waiting out its (much longer)
    // window when the high one has already been answered.
    EXPECT_NE(bg.front().wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "background ripened before its scaled window -- priority "
           "scheduling is not separating the classes";

    const ServiceStatsSnapshot s = svc.stats();
    const auto& hi_cls =
        s.per_class[static_cast<std::size_t>(service::Priority::kHigh)];
    const auto& bg_cls =
        s.per_class[static_cast<std::size_t>(service::Priority::kBackground)];
    EXPECT_EQ(hi_cls.submitted, 1u);
    EXPECT_EQ(hi_cls.completed, 1u);
    EXPECT_GT(hi_cls.p50_latency_us, 0.0);
    EXPECT_EQ(bg_cls.submitted, 1u);
    EXPECT_EQ(bg_cls.completed, 0u);
    EXPECT_EQ(bg_cls.queue_depth, 1u);
    // Destruction switches the queue to drain mode: the background
    // request is answered without waiting out its window.
  }
  SolveService::Reply r = bg.front().get();
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value().x, bg_want);
}

TEST(SolveServiceScheduling, WeightedAgingLetsBackgroundWinEventually) {
  // Direct queue test of the weighted-wait rule: a fresh high group beats
  // a fresh background group, but a background group that has waited much
  // longer than the weight ratio outranks a fresh high group -- bounded
  // delay in BOTH directions, the starvation-freedom argument.
  const sparse::CscMatrix l = service_matrix(63);
  const auto plan_a = core::registry::analyze_cached(l, "serial");
  const sparse::CscMatrix l2 = service_matrix(64);
  const auto plan_b = core::registry::analyze_cached(l2, "serial");
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  const std::vector<value_t> rhs_a = rhs_for(l, 1);
  const std::vector<value_t> rhs_b = rhs_for(l2, 2);

  using service::PoppedDispatch;
  using service::QueueOptions;
  using service::RequestQueue;
  using service::SolveRequest;
  const auto request = [&](const core::SolverPlan& plan,
                           const std::vector<value_t>& rhs,
                           service::Priority p,
                           std::chrono::milliseconds age =
                               std::chrono::milliseconds(0)) {
    SolveRequest r{plan,
                   rhs,
                   1,
                   p,
                   std::chrono::steady_clock::time_point::max(),
                   {},
                   std::chrono::steady_clock::now() - age};
    return r;
  };

  QueueOptions qo;
  qo.window = std::chrono::microseconds(0);  // everything ripens instantly
  qo.pack_max_groups = 1;                    // isolate the selection rule
  {
    RequestQueue q(qo);
    // Aged background first, fresh high second. The age is BACKDATED into
    // the submit timestamp instead of slept through: the selection rule
    // reads submitted-at, so the test is instant and immune to scheduler
    // jitter inflating (or deflating) a real sleep.
    q.push(request(*plan_a, rhs_a, service::Priority::kBackground,
                   std::chrono::milliseconds(60)));
    q.push(request(*plan_b, rhs_b, service::Priority::kHigh));
    // 60 ms * weight 1 far exceeds ~0 ms * weight 16: background wins.
    PoppedDispatch d = q.pop_dispatch();
    ASSERT_EQ(d.groups.size(), 1u);
    EXPECT_EQ(d.groups[0].front().priority, service::Priority::kBackground);
    q.shutdown();
  }
  {
    RequestQueue q(qo);
    // Both fresh: high wins on weight.
    q.push(request(*plan_a, rhs_a, service::Priority::kBackground));
    q.push(request(*plan_b, rhs_b, service::Priority::kHigh));
    PoppedDispatch d = q.pop_dispatch();
    ASSERT_EQ(d.groups.size(), 1u);
    EXPECT_EQ(d.groups[0].front().priority, service::Priority::kHigh);
    EXPECT_EQ(q.depth_rhs(service::Priority::kBackground), 1u);
    EXPECT_EQ(q.depth_rhs(service::Priority::kHigh), 0u);
    q.shutdown();
  }
}

TEST(SolveServiceScheduling, HighPriorityStreamSurvivesBackgroundFlood) {
  // Starvation-freedom under load: background clients flood the service
  // while one high-priority client streams closed-loop. Every high
  // request must complete, and the high class's tail latency must stay
  // far below the background class's (whose window wait is by design).
  const sparse::CscMatrix l_hi = service_matrix(65);
  const sparse::CscMatrix l_bg = service_matrix(66);

  ServiceOptions opt;
  opt.coalesce_window = std::chrono::milliseconds(5);
  opt.background_window_scale = 4.0;  // background floor: 20 ms of wait
  opt.max_pending_rhs = 256;
  SolveService svc(opt);
  const auto plan_hi = svc.plan_for(l_hi, "cpu-taskgraph");
  const auto plan_bg = svc.plan_for(l_bg, "cpu-taskgraph");
  ASSERT_TRUE(plan_hi.ok());
  ASSERT_TRUE(plan_bg.ok());
  const std::vector<value_t> b_hi = rhs_for(l_hi, 3);
  const std::vector<value_t> b_bg = rhs_for(l_bg, 4);
  const std::vector<value_t> want_hi = plan_hi->solve(b_hi).value().x;

  std::atomic<bool> stop{false};
  std::vector<std::thread> flood;
  for (int c = 0; c < 3; ++c) {
    flood.emplace_back([&] {
      while (!stop.load()) {
        auto f = svc.submit(*plan_bg, b_bg,
                            {.priority = service::Priority::kBackground});
        f.wait();  // closed loop, but the class keeps the queue primed
      }
    });
  }

  constexpr int kHighRequests = 40;
  int wrong = 0;
  for (int i = 0; i < kHighRequests; ++i) {
    SolveService::Reply r =
        svc.submit(*plan_hi, b_hi, {.priority = service::Priority::kHigh})
            .get();
    if (!r.ok() || r.value().x != want_hi) ++wrong;
  }
  stop.store(true);
  for (std::thread& th : flood) th.join();
  svc.drain();

  EXPECT_EQ(wrong, 0);
  const ServiceStatsSnapshot s = svc.stats();
  const auto& hi =
      s.per_class[static_cast<std::size_t>(service::Priority::kHigh)];
  const auto& bg =
      s.per_class[static_cast<std::size_t>(service::Priority::kBackground)];
  EXPECT_EQ(hi.completed, static_cast<std::uint64_t>(kHighRequests));
  EXPECT_GT(bg.completed, 0u);
  // The background class pays its scaled window by design; the high class
  // must not be dragged up to it (generous factor for noisy CI boxes).
  EXPECT_LT(hi.p99_latency_us, bg.p99_latency_us)
      << "high-priority p99 " << hi.p99_latency_us
      << " us did not stay below background p99 " << bg.p99_latency_us
      << " us under a background flood";
}

TEST(SolveServiceScheduling, QueuePacksRipeSmallGroupsIntoOneDispatch) {
  // Deterministic cross-plan packing at the queue level: several narrow
  // groups of small plans, drained -- one pop must carry them all as
  // sibling sub-batches of a single dispatch.
  using service::PoppedDispatch;
  using service::QueueOptions;
  using service::RequestQueue;
  using service::SolveRequest;

  constexpr int kTenants = 5;
  std::vector<core::SolverPlan> plans;
  std::vector<std::vector<value_t>> rhs;
  for (int t = 0; t < kTenants; ++t) {
    const sparse::CscMatrix l = service_matrix(70 + static_cast<std::uint64_t>(t));
    auto plan = core::registry::analyze_cached(l, "serial");
    ASSERT_TRUE(plan.ok());
    rhs.push_back(rhs_for(l, static_cast<std::uint64_t>(t)));
    plans.push_back(*plan);
  }

  QueueOptions qo;
  qo.window = std::chrono::seconds(60);  // nothing ripens naturally
  qo.pack_max_groups = 8;
  qo.pack_narrow_width = 4;
  qo.pack_small_rows = 4096;  // the 400-row test plans qualify
  RequestQueue q(qo);
  for (int t = 0; t < kTenants; ++t) {
    SolveRequest r{plans[static_cast<std::size_t>(t)],
                   rhs[static_cast<std::size_t>(t)],
                   1,
                   service::Priority::kNormal,
                   std::chrono::steady_clock::time_point::max(),
                   {},
                   std::chrono::steady_clock::now()};
    ASSERT_TRUE(q.push(std::move(r)));
  }
  EXPECT_EQ(q.depth_rhs(), static_cast<std::size_t>(kTenants));
  q.shutdown();  // drain mode: every group is ripe NOW
  PoppedDispatch d = q.pop_dispatch();
  ASSERT_EQ(d.groups.size(), static_cast<std::size_t>(kTenants))
      << "drain pop should pack every ripe small tenant into one dispatch";
  for (const auto& g : d.groups) {
    EXPECT_EQ(g.size(), 1u);
  }
  EXPECT_EQ(q.depth_rhs(), 0u);
  EXPECT_TRUE(q.pop_dispatch().groups.empty());  // drained exit signal
}

TEST(SolveServiceScheduling, PackedDispatchAnswersBitForBit) {
  // Service-level packed execution: requests against several small plans
  // queued behind a never-ripening window are drain-packed by the
  // destructor into sibling sub-batches on one claimed gang. Every reply
  // must be bit-for-bit the direct plan.solve answer.
  constexpr int kTenants = 6;
  std::vector<sparse::CscMatrix> factors;
  std::vector<std::vector<value_t>> rhs, want;
  std::vector<std::future<SolveService::Reply>> futures;
  {
    ServiceOptions opt;
    opt.coalesce_window = std::chrono::seconds(60);
    opt.pack_max_groups = 8;
    opt.pack_narrow_width = 4;
    opt.pack_small_rows = 4096;
    SolveService svc(opt);
    for (int t = 0; t < kTenants; ++t) {
      factors.push_back(service_matrix(80 + static_cast<std::uint64_t>(t)));
      const auto plan = svc.plan_for(factors.back(), "cpu-taskgraph");
      ASSERT_TRUE(plan.ok());
      rhs.push_back(rhs_for(factors.back(), static_cast<std::uint64_t>(t)));
      want.push_back(plan->solve(rhs.back()).value().x);
      futures.push_back(svc.submit(*plan, rhs.back()));
    }
    // Destructor: drain mode packs all six tenants into ~one dispatch.
  }
  for (int t = 0; t < kTenants; ++t) {
    SolveService::Reply r = futures[static_cast<std::size_t>(t)].get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, want[static_cast<std::size_t>(t)])
        << "packed sibling " << t << " diverged from direct plan.solve";
  }
}

TEST(SolveServiceScheduling, PackedDispatchShowsUpInStats) {
  // Live (non-drain) packing: small tenants submitted back-to-back under
  // one window ripen together and at least one pool dispatch must carry
  // several plans. (Timing-lenient: only >= 1 packed dispatch is
  // asserted; bit-exactness is covered by the drain test above.)
  constexpr int kTenants = 6;
  ServiceOptions opt;
  opt.coalesce_window = std::chrono::milliseconds(100);
  opt.pack_max_groups = 8;
  SolveService svc(opt);

  std::vector<sparse::CscMatrix> factors;
  std::vector<core::SolverPlan> plans;
  std::vector<std::vector<value_t>> rhs;
  for (int t = 0; t < kTenants; ++t) {
    factors.push_back(service_matrix(90 + static_cast<std::uint64_t>(t)));
    const auto plan = svc.plan_for(factors.back(), "cpu-taskgraph");
    ASSERT_TRUE(plan.ok());
    plans.push_back(*plan);
    rhs.push_back(rhs_for(factors.back(), static_cast<std::uint64_t>(t)));
  }
  std::vector<std::future<SolveService::Reply>> futures;
  for (int t = 0; t < kTenants; ++t) {
    futures.push_back(svc.submit(plans[static_cast<std::size_t>(t)],
                                 rhs[static_cast<std::size_t>(t)]));
  }
  for (auto& f : futures) {
    SolveService::Reply r = f.get();
    ASSERT_TRUE(r.ok()) << r.message();
  }
  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_GE(s.packed_dispatches, 1u)
      << "six simultaneous tiny tenants produced no packed dispatch";
  EXPECT_GE(s.packed_plans, 2u);
  std::uint64_t packed_hist_total = 0;
  for (std::uint64_t b : s.packed_hist) packed_hist_total += b;
  EXPECT_GE(packed_hist_total, 1u);
}

TEST(SolveServiceScheduling, DeadlineShedsWhenExecutionStartsLate) {
  // A request whose start-by deadline passes while its dispatch waits
  // behind a busy pool is shed with typed kDeadlineExceeded -- not solved
  // late, not dropped silently. Deterministic: the service's dispatch
  // pool has ONE worker, occupied by a sleeper when the request arrives.
  const sparse::CscMatrix l = service_matrix(95);
  core::SharedWorkerPool pool(1);
  ServiceOptions opt;
  opt.coalesce_window = std::chrono::microseconds(0);
  opt.pool = &pool;
  {
    SolveService svc(opt);
    const auto plan = svc.plan_for(l, "serial");
    ASSERT_TRUE(plan.ok());
    const std::vector<value_t> b = rhs_for(l, 6);
    const std::vector<value_t> want = plan->solve(b).value().x;

    // Occupy the only dispatch worker -- and WAIT until it is actually
    // running: an unstarted blocker still in the queue would let the
    // (urgent) dispatch overtake it and execute in time. The blocker is
    // GATED, not slept: it holds the worker until this thread releases it
    // below, which happens only once the deadline has provably passed --
    // so the test cannot flake in either direction (a fixed sleep both
    // wastes wall-clock and loses the race on a stalled machine).
    std::atomic<bool> blocking{false};
    std::atomic<bool> release{false};
    pool.submit([&blocking, &release] {
      blocking.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    while (!blocking.load()) std::this_thread::yield();
    auto doomed = svc.submit(
        *plan, b,
        {.priority = service::Priority::kHigh,
         .deadline = std::chrono::milliseconds(20)});
    // The service stamped the deadline no earlier than our pre-submit
    // clock and no later than now; sleeping until now+deadline+margin
    // therefore provably passes it before the worker frees up.
    std::this_thread::sleep_until(std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(25));
    release.store(true);
    SolveService::Reply r = doomed.get();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status(), core::SolveStatus::kDeadlineExceeded);

    // A generous deadline on a free pool completes normally.
    auto fine = svc.submit(*plan, b,
                           {.deadline = std::chrono::seconds(30)});
    SolveService::Reply ok = fine.get();
    ASSERT_TRUE(ok.ok()) << ok.message();
    EXPECT_EQ(ok.value().x, want);

    const ServiceStatsSnapshot s = svc.stats();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(
        s.per_class[static_cast<std::size_t>(service::Priority::kHigh)].shed,
        1u);
    EXPECT_EQ(s.completed, 1u);
  }  // service destroyed before `pool` (ServiceOptions::pool contract)
}

TEST(SolveServiceScheduling, ShardedDispatchersStayBitExact) {
  // Multiple dispatcher shards: plans hash onto independent queues, all
  // replies stay bit-for-bit, and per-plan coalescing still works (same
  // plan always lands on the same shard).
  constexpr int kClients = 4;
  constexpr int kIters = 10;
  ServiceOptions opt;
  opt.dispatch_shards = 4;
  opt.coalesce_window = std::chrono::microseconds(100);
  SolveService svc(opt);
  EXPECT_EQ(svc.shard_count(), 4);

  std::vector<sparse::CscMatrix> factors;
  std::vector<core::SolverPlan> plans;
  std::vector<std::vector<value_t>> rhs, want;
  for (int t = 0; t < 5; ++t) {
    factors.push_back(service_matrix(100 + static_cast<std::uint64_t>(t)));
    const auto plan = svc.plan_for(factors.back(), "cpu-levelset");
    ASSERT_TRUE(plan.ok());
    plans.push_back(*plan);
    rhs.push_back(rhs_for(factors.back(), static_cast<std::uint64_t>(t)));
    want.push_back(plan->solve(rhs.back()).value().x);
  }

  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t t = static_cast<std::size_t>((c + i) % 5);
        SolveService::Reply r = svc.submit(plans[t], rhs[t]).get();
        if (!r.ok() || r.value().x != want[t]) bad.fetch_add(1);
      }
    });
  }
  for (std::thread& th : clients) th.join();
  EXPECT_EQ(bad.load(), 0);
  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kClients * kIters));
}

TEST(ServiceStatsTest, LatencyRingSizeIsAConstructorParameter) {
  // The quantile window is configurable (and clamped to a sane floor):
  // the documented fix for the fixed-4096-sample limitation.
  service::ServiceStats tiny(1);  // clamped up to 16
  EXPECT_EQ(tiny.latency_ring_capacity(), 16u);
  service::ServiceStats stats(64);
  EXPECT_EQ(stats.latency_ring_capacity(), 64u);
  // Overflow the ring: quantiles reflect only the most recent window.
  for (int i = 0; i < 1000; ++i) {
    stats.on_complete(nullptr, 10, 1, true, service::Priority::kNormal,
                      100.0);
  }
  const ServiceStatsSnapshot s = stats.snapshot();
  EXPECT_EQ(s.completed, 1000u);
  EXPECT_DOUBLE_EQ(s.p50_latency_us, 100.0);
  EXPECT_DOUBLE_EQ(
      s.per_class[static_cast<std::size_t>(service::Priority::kNormal)]
          .p50_latency_us,
      100.0);
}

// ---- shared worker pool ----------------------------------------------------

TEST(SharedWorkerPool, GangReservationCapsConcurrentClaims) {
  // Two overlapping gangs on an 8-worker pool: the second claim is capped
  // at its equal share (8 / 2 active = 4 parties) even though it asked for
  // everything. Claimable-now semantics are untouched -- nothing blocks.
  core::SharedWorkerPool pool(8);
  ASSERT_TRUE(pool.gang_reservation());

  std::atomic<bool> a_inside{false};
  std::atomic<bool> b_done{false};
  std::atomic<int> b_parties{0};
  std::thread holder([&] {
    pool.run_gang(
        7, [](int) {},
        [&](int tid, int) {
          if (tid == 0) {
            a_inside.store(true);
            while (!b_done.load()) std::this_thread::yield();
          }
        });
  });
  while (!a_inside.load()) std::this_thread::yield();
  // Gang A is active: B's ask of 7 extras is capped to 3 (4 parties).
  const int parties = pool.run_gang(
      7, [](int) {}, [&](int, int) { b_parties.fetch_add(1); });
  b_done.store(true);
  holder.join();
  EXPECT_LE(parties, 4);
  EXPECT_GE(parties, 1);
  EXPECT_EQ(b_parties.load(), parties);
  EXPECT_GE(pool.stats().gang_capped, 1u);
  EXPECT_EQ(pool.active_gangs(), 0);

  // The toggle restores greedy claims for A/B comparisons.
  pool.set_gang_reservation(false);
  EXPECT_FALSE(pool.gang_reservation());
  const int solo = pool.run_gang(7, [](int) {}, [](int, int) {});
  EXPECT_GE(solo, 1);
}


TEST(SharedWorkerPool, TasksRunAndStealAcrossDeques) {
  core::SharedWorkerPool pool(4);
  constexpr int kTasks = 64;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.stats().tasks_run < static_cast<std::uint64_t>(kTasks) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(pool.stats().tasks_run, static_cast<std::uint64_t>(kTasks));
}

TEST(SharedWorkerPool, GangsShrinkInsteadOfDeadlocking) {
  core::SharedWorkerPool pool(2);
  // Ask for far more members than exist: the gang must run anyway with
  // whatever was idle (possibly just the caller) and report the width.
  std::atomic<int> ran{0};
  const int parties = pool.run_gang(
      16, [](int) {}, [&](int tid, int p) {
        EXPECT_LT(tid, p);
        ran.fetch_add(1);
      });
  EXPECT_GE(parties, 1);
  EXPECT_LE(parties, 3);
  EXPECT_EQ(ran.load(), parties);
  EXPECT_GE(pool.stats().gangs, 1u);

  // Concurrent gang openers from foreign threads never deadlock even
  // when they collectively want every worker several times over.
  std::vector<std::thread> openers;
  std::atomic<int> total{0};
  for (int i = 0; i < 4; ++i) {
    openers.emplace_back([&] {
      for (int it = 0; it < 20; ++it) {
        pool.run_gang(
            8, [](int) {}, [&](int, int) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& th : openers) th.join();
  EXPECT_GE(total.load(), 4 * 20);  // at least the callers themselves ran
}

TEST(SharedWorkerPool, SharedPlansHoldZeroOwnedThreads) {
  const sparse::CscMatrix l = service_matrix(31);
  core::SolveOptions opt =
      core::registry::service_options("cpu-taskgraph").value();
  const auto plan = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->owned_thread_count(), 0u);
  const std::vector<value_t> b = rhs_for(l, 2);

  // Same bits as an owned-pool plan, before and after solving.
  core::SolveOptions owned = core::registry::options_for("cpu-taskgraph").value();
  const auto baseline = core::SolverPlan::analyze(l, owned);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(plan->solve(b).value().x, baseline->solve(b).value().x);

  EXPECT_GE(plan->workspace_count(), 1u);
  EXPECT_EQ(plan->owned_thread_count(), 0u)
      << "a shared-pool plan must never spawn per-workspace threads";
  // The owned-pool baseline really does own threads after its first
  // solve (unless the machine reports a single hardware thread).
  if (core::resolve_cpu_threads(0) > 1) {
    EXPECT_GT(baseline->owned_thread_count(), 0u);
  }
}

TEST(SharedWorkerPool, OwnedPoolsAreLazyUntilFirstSolve) {
  const sparse::CscMatrix l = service_matrix(37);
  core::SolveOptions opt = core::registry::options_for("cpu-levelset").value();
  const auto plan = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(plan.ok());
  // Analyzed-but-never-solved plans hold zero threads (the idle-tenant
  // guarantee: a service caching hundreds of plans costs no threads).
  EXPECT_EQ(plan->owned_thread_count(), 0u);
  const std::vector<value_t> b = rhs_for(l, 4);
  ASSERT_TRUE(plan->solve(b).ok());
  if (core::resolve_cpu_threads(0) > 1) {
    EXPECT_GT(plan->owned_thread_count(), 0u);
  }
}

}  // namespace
}  // namespace msptrsv
