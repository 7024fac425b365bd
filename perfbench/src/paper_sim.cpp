// Workload `paper-sim`: the reproduction itself. The paper's 4-GPU
// zero-copy (NVSHMEM + task pool) and Unified Memory designs run on the
// Fig. 10 matrix set, capped at 20k rows, with solve_batch at k = 4
// round-robin over (design, matrix) cells. This is the only workload that
// exercises `sim` and core's multi-GPU engine; the host kernels, service
// and net are idle. Simulated times and message counts are exact and must
// repeat call after call and run after run.
#include <algorithm>
#include <array>

#include "core/plan.hpp"
#include "core/registry.hpp"
#include "harness.hpp"
#include "sparse/suite.hpp"

namespace perfbench {
namespace {

namespace core = msptrsv::core;
namespace sparse = msptrsv::sparse;

constexpr index_t kBatch = 4;
constexpr std::array<const char*, 2> kDesigns = {"zerocopy", "unified"};
constexpr std::array<const char*, 2> kDesignKeys = {"mg-zerocopy",
                                                    "mg-unified"};

struct Cell {
  std::string design;
  std::string matrix;
  std::string tag;  // "<design>.<matrix>"
  const core::SolverPlan* plan = nullptr;
  const Manufactured* in = nullptr;
  std::vector<double> us;
  bool seen = false;
  double simulated_us = 0.0;
  std::uint64_t link_messages = 0;
};

}  // namespace

void run_paper_sim(Report& report, Tracer& tracer) {
  const Args& args = report.args();
  const index_t max_rows = args.tiny ? 1500 : 20000;
  const std::vector<std::string> names = sparse::fig10_matrix_names();

  std::vector<sparse::SuiteMatrix> matrices;
  std::vector<Manufactured> inputs;
  for (std::size_t i = 0; i < names.size(); ++i) {
    matrices.push_back(sparse::generate_suite_matrix(names[i], max_rows));
    const sparse::CscMatrix& lower = matrices.back().lower;
    inputs.push_back(manufacture(lower, kBatch, mix_seed(args.seed, 400 + i)));
    report.note("rows." + names[i], static_cast<double>(lower.rows));
  }

  // Set-up: per plan, the median of repeated fresh analyze calls.
  const int reps = args.tiny ? 2 : 5;
  EndToEnd e2e;
  std::vector<core::SolverPlan> plans;
  std::vector<Cell> cells;
  plans.reserve(kDesigns.size() * names.size());
  for (std::size_t d = 0; d < kDesigns.size(); ++d) {
    const core::SolveOptions opts =
        core::registry::options_for(kDesignKeys[d]).value();
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::vector<double> analyze_us;
      for (int rep = 0; rep < reps; ++rep) {
        sparse::CscMatrix copy = matrices[i].lower;
        const Clock::time_point t0 = Clock::now();
        auto plan = [&] {
          auto span = tracer.span("core.analyze", kDesigns[d] + names[i]);
          return core::SolverPlan::analyze(std::move(copy), opts);
        }();
        analyze_us.push_back(us_between(t0, Clock::now()));
        report.attempted();
        if (!plan.ok()) {
          report.failed(names[i] + ": analyze: " + plan.message());
          return;
        }
        if (rep == reps - 1) plans.push_back(std::move(plan.value()));
      }
      e2e.setup_s += median(analyze_us) * 1e-6;
      Cell c;
      c.design = kDesigns[d];
      c.matrix = names[i];
      c.tag = c.design + "." + c.matrix;
      c.in = &inputs[i];
      cells.push_back(std::move(c));
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].plan = &plans[i];

  // One checked batch: the solution against the manufactured one, and the
  // simulated time and link messages against the cell's first batch.
  auto run_cell = [&](Tracer& tr, Cell& c) {
    const Clock::time_point t0 = Clock::now();
    auto r = [&] {
      auto span = tr.span("core.solve_batch", c.tag);
      return c.plan->solve_batch(c.in->b, kBatch);
    }();
    const double us = us_between(t0, Clock::now());
    report.attempted(kBatch);
    if (!r.ok()) {
      report.failed(c.tag + ": " + r.message());
      return false;
    }
    if (!report.check_close(r.value().x, c.in->x, c.tag)) return false;
    const double sim_us = r.value().report.solve_us;
    const std::uint64_t msgs = r.value().report.link_messages;
    if (!c.seen) {
      c.seen = true;
      c.simulated_us = sim_us;
      c.link_messages = msgs;
    } else if (sim_us != c.simulated_us || msgs != c.link_messages) {
      report.failed(c.tag + ": simulated counts changed between batches");
      return false;
    }
    c.us.push_back(us);
    return true;
  };

  for (Cell& c : cells) run_cell(tracer, c);

  auto loop_once = [&](Tracer& tr, double budget_s) {
    for (Cell& c : cells) c.us.clear();
    report.arm_corruption();
    TimedLoop loop;
    while (!loop.expired(budget_s)) {
      for (Cell& c : cells) {
        if (run_cell(tr, c)) loop.add_rhs(kBatch);
      }
    }
    loop.finish();
    EndToEnd e = loop_figures(loop);
    e.setup_s = e2e.setup_s;
    std::vector<double> p50, p99;
    std::uint64_t min_samples = ~std::uint64_t{0};
    double round_us = 0.0;
    for (const Cell& c : cells) {
      round_us += median(c.us);
      p50.push_back(median(c.us));
      p99.push_back(quantile(c.us, 0.99));
      min_samples = std::min<std::uint64_t>(min_samples, c.us.size());
    }
    const double round_rhs = static_cast<double>(kBatch * cells.size());
    e.rhs_per_s = round_us > 0.0 ? 1e6 * round_rhs / round_us : 0.0;
    e.latency_p50_us = geomean(p50);
    e.latency_p99_us = geomean(p99);
    e.p99_samples = min_samples;
    return e;
  };

  Tracer off(false);
  const EndToEnd untraced =
      loop_once(off, tracer.on() ? args.seconds / 2 : args.seconds);
  report.set_end_to_end(untraced);

  std::vector<double> speedups;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Cell& z = cells[i];
    const Cell& u = cells[names.size() + i];
    if (z.simulated_us > 0.0) {
      speedups.push_back(u.simulated_us / z.simulated_us);
    }
    report.note("sim.simulated_us." + z.tag, z.simulated_us);
    report.note("sim.simulated_us." + u.tag, u.simulated_us);
  }
  report.note("sim.speedup_zerocopy_vs_unified", geomean(speedups));
  if (!tracer.on()) return;

  const EndToEnd traced = loop_once(tracer, args.seconds / 2);
  report.trace_overhead(untraced, traced);
  for (std::size_t d = 0; d < kDesigns.size(); ++d) {
    std::vector<double> p50;
    for (const Cell& c : cells) {
      if (c.design == kDesigns[d]) {
        p50.push_back(median(tracer.durations_us("core.solve_batch", c.tag)));
      }
    }
    report.layer(std::string("core.sim_solve_us.") + kDesigns[d], geomean(p50),
                 "us");
  }
  for (const Cell& c : cells) {
    report.layer("sim.simulated_us." + c.tag, c.simulated_us, "us");
    report.layer("sim.link_messages." + c.tag,
                 static_cast<double>(c.link_messages), "count");
  }
  report.layer("sim.speedup_zerocopy_vs_unified", geomean(speedups), "x");
}

}  // namespace perfbench
