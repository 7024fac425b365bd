// Workload `churn`: a stream of distinct factors, each analyzed,
// serialized, restored into a second plan (the cross-process warm start,
// kept in memory so disk I/O stays out) and solved 8 times on the restored
// plan. This is the write side of `core` -- level analysis, coarsening,
// the autotuner, the blob codec, first-solve workspace and thread creation
// -- where `solve` exercises only the read side.
//
// Factors alternate between two structure classes (a layered DAG of about
// 20k rows and a grid2d of about 150^2) with seeds derived from the
// workload seed. Factor generation is excluded from every timing.
#include <array>

#include "core/plan.hpp"
#include "core/registry.hpp"
#include "harness.hpp"
#include "sparse/generators.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/task_graph.hpp"

namespace perfbench {
namespace {

namespace core = msptrsv::core;
namespace sparse = msptrsv::sparse;

constexpr int kGangCap = 2;
constexpr int kSolvesPerFactor = 8;
constexpr std::array<const char*, 2> kClasses = {"layered", "grid2d"};

sparse::CscMatrix make_factor(std::uint64_t fseed, int cls, bool tiny) {
  if (cls == 0) {
    const index_t n = (tiny ? 2000 : 20000) + static_cast<index_t>(fseed % 512);
    return sparse::gen_layered_dag(n, tiny ? 20 : 50,
                                   10 * static_cast<msptrsv::offset_t>(n), 0.3,
                                   fseed);
  }
  const index_t base = tiny ? 40 : 140;
  const index_t nx = base + static_cast<index_t>(fseed % 21);
  const index_t ny = base + static_cast<index_t>((fseed >> 8) % 21);
  return sparse::gen_grid2d_lower(nx, ny);
}

struct ClassTimes {
  std::vector<double> setup_us;  // analyze + serialize + deserialize
  std::vector<double> first_us;  // analyze start -> first solution
  std::vector<double> factor_us;  // analyze start -> last solution
};

}  // namespace

void run_churn(Report& report, Tracer& tracer) {
  const Args& args = report.args();
  core::SolveOptions opts = core::registry::options_for("auto").value();
  opts.cpu_threads = kGangCap;

  std::vector<double> analyze_levels_us, coarsen_us, serialize_us,
      deserialize_us, blob_bytes, first_solve_us, steady_solve_us;
  std::map<std::string, int> pick_counts;
  std::uint64_t next_factor = 0;

  // One timed stream of factors; traced, it also collects the per-layer
  // samples. Factor seeds continue across calls, so no factor repeats.
  auto stream = [&](Tracer& tr, double budget_s) {
    std::array<ClassTimes, 2> times;
    report.arm_corruption();
    TimedLoop loop;
    loop.pause();
    for (std::uint64_t i = next_factor;; ++i) {
      // Stop only after a whole pair, so both classes weigh alike.
      if (i % 2 == 0 && loop.expired(budget_s)) {
        next_factor = i;
        break;
      }
      const int cls = static_cast<int>(i % 2);
      const std::uint64_t fseed = mix_seed(args.seed, 1000 + i);
      const sparse::CscMatrix lower = make_factor(fseed, cls, args.tiny);
      const Manufactured in = manufacture(lower, 2, fseed);
      const std::size_t n = static_cast<std::size_t>(lower.rows);
      auto rhs = [&](const std::vector<value_t>& v, int j) {
        return std::span<const value_t>(v).subspan((j % 2) * n, n);
      };
      sparse::CscMatrix copy = lower;
      const char* cname = kClasses[static_cast<std::size_t>(cls)];

      loop.resume();
      const Clock::time_point t0 = Clock::now();
      auto plan = [&] {
        auto span = tr.span("core.analyze", cname);
        return core::SolverPlan::analyze(std::move(copy), opts);
      }();
      const Clock::time_point t1 = Clock::now();
      if (!plan.ok()) {
        loop.pause();
        report.attempted();
        report.failed(std::string(cname) + ": analyze: " + plan.message());
        continue;
      }
      auto blob = [&] {
        auto span = tr.span("core.serialize", cname);
        return plan->serialize();
      }();
      const Clock::time_point t2 = Clock::now();
      if (!blob.ok()) {
        loop.pause();
        report.attempted();
        report.failed(std::string(cname) + ": serialize: " + blob.message());
        continue;
      }
      auto restored = [&] {
        auto span = tr.span("core.deserialize", cname);
        return core::SolverPlan::deserialize(blob.value(), opts);
      }();
      const Clock::time_point t3 = Clock::now();
      if (!restored.ok()) {
        loop.pause();
        report.attempted();
        report.failed(std::string(cname) +
                      ": deserialize: " + restored.message());
        continue;
      }
      std::vector<core::Expected<core::SolveResult>> results;
      std::vector<double> solve_us;
      Clock::time_point first_done{};
      Clock::time_point last_done{};
      for (int j = 0; j < kSolvesPerFactor; ++j) {
        const Clock::time_point s0 = Clock::now();
        {
          auto span = tr.span("core.solve", cname);
          results.push_back(restored->solve(rhs(in.b, j)));
        }
        const Clock::time_point s1 = Clock::now();
        if (j == 0) first_done = s1;
        last_done = s1;
        solve_us.push_back(us_between(s0, s1));
      }
      loop.pause();

      // Checks (untimed): every solution against the manufactured one, and
      // the restored plan's first answer bit for bit against the plan it
      // was serialized from.
      report.attempted(3);
      bool ok = true;
      for (int j = 0; j < kSolvesPerFactor; ++j) {
        report.attempted();
        auto& r = results[static_cast<std::size_t>(j)];
        if (!r.ok()) {
          report.failed(std::string(cname) + ": solve: " + r.message());
          ok = false;
          continue;
        }
        ok &= report.check_close(r.value().x, rhs(in.x, j), cname);
      }
      auto reference = plan->solve(rhs(in.b, 0));
      if (!reference.ok() || !results[0].ok()) {
        report.failed(std::string(cname) + ": reference solve failed");
        ok = false;
      } else {
        ok &= report.check_equal(results[0].value().x, reference.value().x,
                                 std::string(cname) + " restored plan");
      }
      if (!ok) continue;
      loop.add_rhs(kSolvesPerFactor);

      ClassTimes& ct = times[static_cast<std::size_t>(cls)];
      ct.setup_us.push_back(us_between(t0, t3));
      ct.first_us.push_back(us_between(t0, first_done));
      ct.factor_us.push_back(us_between(t0, last_done));

      ++pick_counts[std::string(cname) + ":" + pick_of(plan.value()).str()];

      if (tr.on()) {
        serialize_us.push_back(us_between(t1, t2));
        deserialize_us.push_back(us_between(t2, t3));
        blob_bytes.push_back(static_cast<double>(blob.value().size()));
        first_solve_us.push_back(solve_us[0]);
        steady_solve_us.insert(steady_solve_us.end(), solve_us.begin() + 1,
                               solve_us.end());
        // Direct sparse-layer calls on the same factor (outside the loop's
        // clock): what analyze's level pass and coarsening cost alone.
        sparse::LevelAnalysis levels;
        Clock::time_point a0 = Clock::now();
        {
          auto span = tr.span("sparse.analyze_levels", cname);
          levels = sparse::analyze_levels(lower);
        }
        analyze_levels_us.push_back(us_between(a0, Clock::now()));
        a0 = Clock::now();
        {
          auto span = tr.span("sparse.coarsen_levels", cname);
          sparse::TaskGraph g = sparse::coarsen_levels(lower, levels);
          if (g.n != lower.rows) report.failed("coarsen_levels lost rows");
        }
        coarsen_us.push_back(us_between(a0, Clock::now()));
      }
    }
    loop.finish();

    EndToEnd e = loop_figures(loop);
    std::vector<double> first_p50;
    std::vector<double> all_first;
    double round_us = 0.0;
    for (const ClassTimes& ct : times) {
      round_us += median(ct.factor_us);
      e.setup_s += median(ct.setup_us) * 1e-6;
      first_p50.push_back(median(ct.first_us));
      all_first.insert(all_first.end(), ct.first_us.begin(),
                       ct.first_us.end());
    }
    e.rhs_per_s = round_us > 0.0
                      ? 1e6 * kSolvesPerFactor * times.size() / round_us
                      : 0.0;
    e.latency_p50_us = geomean(first_p50);
    e.latency_p99_us = quantile(all_first, 0.99);
    e.p99_samples = all_first.size();
    return e;
  };

  // Untimed warm-up factor: the process's one-time costs (the coarsener's
  // sync-cost calibration, allocator growth) land here, not on the first
  // timed factor.
  {
    auto warm = core::SolverPlan::analyze(
        make_factor(mix_seed(args.seed, 999), 0, args.tiny), opts);
    if (warm.ok()) {
      if (auto blob = warm->serialize(); blob.ok()) {
        (void)core::SolverPlan::deserialize(blob.value(), opts);
      }
    }
  }

  Tracer off(false);
  const EndToEnd e2e =
      stream(off, tracer.on() ? args.seconds / 2 : args.seconds);
  report.set_end_to_end(e2e);
  report.note("factors", static_cast<double>(next_factor));
  for (const auto& [key, count] : pick_counts) {
    report.note("picks." + key, static_cast<double>(count));
  }
  if (!tracer.on()) return;

  const EndToEnd traced = stream(tracer, args.seconds / 2);
  report.trace_overhead(e2e, traced);
  report.layer("sparse.analyze_levels_us", median(analyze_levels_us), "us");
  report.layer("sparse.coarsen_us", median(coarsen_us), "us");
  report.layer("core.serialize_us", median(serialize_us), "us");
  report.layer("core.deserialize_us", median(deserialize_us), "us");
  report.layer("core.blob_bytes", median(blob_bytes), "bytes");
  report.layer("core.first_solve_us", median(first_solve_us), "us");
  report.layer("core.steady_solve_us", median(steady_solve_us), "us");
}

}  // namespace perfbench
