// Workload `solve`: analyze once, solve many times, in process.
//
// The ROADMAP direction-1 panel (layered, 2D and 3D grids, chain-heavy and
// the powersim circuit analog), each planned with the "auto" preset at a
// gang cap of 2, solved at k = 1 and k = 16. Host kernels and the
// autotuner's pick do almost all the work; service, net and sim are idle.
// Cells (matrix x k) are visited round-robin so drift hits them alike, and
// every per-call median is taken per cell, never pooled across matrices.
#include <algorithm>
#include <thread>

#include "core/plan.hpp"
#include "core/plan_snapshot.hpp"
#include "core/registry.hpp"
#include "harness.hpp"
#include "sparse/generators.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/suite.hpp"
#include "sparse/task_graph.hpp"

namespace perfbench {
namespace {

using msptrsv::core::SolverPlan;
namespace sparse = msptrsv::sparse;
namespace core = msptrsv::core;

constexpr int kGangCap = 2;
constexpr index_t kWide = 16;

struct Matrix {
  std::string name;
  sparse::CscMatrix lower;
  Manufactured k1;
  Manufactured k16;
  SolverPlan* plan = nullptr;
  SolverPlan* serial = nullptr;
};

std::vector<Matrix> make_panel(std::uint64_t seed, bool tiny) {
  const std::vector<std::string>& names = solve_panel_names();
  std::vector<Matrix> panel(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) panel[i].name = names[i];
  if (tiny) {
    panel[0].lower = sparse::gen_layered_dag(4000, 20, 40000, 0.3, seed);
    panel[1].lower = sparse::gen_grid2d_lower(40, 40);
    panel[2].lower = sparse::gen_grid3d_lower(12, 12, 12);
    panel[3].lower = sparse::gen_chain_heavy(2, 80, 64, 2, seed);
    panel[4].lower = sparse::generate_suite_matrix("powersim", 3000).lower;
  } else {
    panel[0].lower = sparse::gen_layered_dag(40000, 60, 480000, 0.3, seed);
    panel[1].lower = sparse::gen_grid2d_lower(300, 300);
    panel[2].lower = sparse::gen_grid3d_lower(40, 40, 40);
    panel[3].lower = sparse::gen_chain_heavy(8, 400, 256, 4, seed);
    panel[4].lower = sparse::generate_suite_matrix("powersim", 40000).lower;
  }
  for (std::size_t i = 0; i < panel.size(); ++i) {
    panel[i].k1 = manufacture(panel[i].lower, 1, mix_seed(seed, 100 + i));
    panel[i].k16 = manufacture(panel[i].lower, kWide, mix_seed(seed, 200 + i));
  }
  return panel;
}

/// Bytes a k-wide solve must move at least once, computed from array
/// sizes (not measured): the factor's CSC arrays plus b read and x written.
double computed_bytes(const sparse::CscMatrix& l, index_t k) {
  const double nnz = static_cast<double>(l.nnz());
  const double n = static_cast<double>(l.rows);
  return nnz * (sizeof(value_t) + sizeof(index_t)) +
         (n + 1) * sizeof(msptrsv::offset_t) +
         2.0 * static_cast<double>(k) * n * sizeof(value_t);
}

/// STREAM triad a = b + s*c on `threads` threads, best of 5, in GB/s.
double triad_gbps(std::size_t elems, int threads) {
  std::vector<double> a(elems, 0.0), b(elems, 1.0), c(elems, 2.0);
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> gang;
    for (int t = 0; t < threads; ++t) {
      gang.emplace_back([&, t] {
        const std::size_t lo = elems * t / threads;
        const std::size_t hi = elems * (t + 1) / threads;
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    }
    for (std::thread& th : gang) th.join();
    best = std::min(best, seconds_since(t0));
  }
  if (a[elems / 2] != 7.0) return 0.0;
  return 3.0 * sizeof(double) * static_cast<double>(elems) / best / 1e9;
}

struct Cell {
  Matrix* m = nullptr;
  index_t k = 1;
  std::string tag;  // "<matrix>.k<k>"
  std::vector<double> us;
  std::vector<double> vs_serial;
  std::vector<double> claim, pack, kernel, unpack;
};

/// One solve call on `plan` for the cell, checked against the
/// manufactured solution. Returns the call's wall time in us (< 0 on error).
double solve_cell(Report& report, const SolverPlan& plan, Cell& cell,
                  core::SolveResult* keep) {
  const Manufactured& in = cell.k == 1 ? cell.m->k1 : cell.m->k16;
  const Clock::time_point t0 = Clock::now();
  auto r = cell.k == 1 ? plan.solve(in.b) : plan.solve_batch(in.b, cell.k);
  const Clock::time_point t1 = Clock::now();
  report.attempted(static_cast<std::uint64_t>(cell.k));
  if (!r.ok()) {
    report.failed(cell.tag + ": " + r.message());
    return -1.0;
  }
  if (!report.check_close(r.value().x, in.x, cell.tag)) return -1.0;
  if (keep != nullptr) *keep = std::move(r.value());
  return us_between(t0, t1);
}

/// The round-robin timed loop. Traced, it wraps each call in a span and
/// interleaves the serial plan call by call for the paired speedup.
EndToEnd run_loop(Report& report, Tracer& tracer, std::vector<Cell>& cells,
                  double budget_s) {
  for (Cell& c : cells) {
    c.us.clear();
  }
  report.arm_corruption();
  TimedLoop loop;
  while (!loop.expired(budget_s)) {
    for (Cell& c : cells) {
      core::SolveResult res;
      double us = 0.0;
      {
        auto span = tracer.span("core.solve", c.tag);
        us = solve_cell(report, *c.m->plan, c, &res);
      }
      if (us < 0.0) continue;
      loop.add_rhs(static_cast<std::uint64_t>(c.k));
      c.us.push_back(us);
      if (!tracer.on()) continue;
      if (c.k == kWide) {
        c.claim.push_back(res.phases.claim_us);
        c.pack.push_back(res.phases.pack_us);
        c.kernel.push_back(res.phases.kernel_us);
        c.unpack.push_back(res.phases.unpack_us);
      }
      // The paired serial call stays off the loop's clock, so the traced
      // figures compare with the untraced ones.
      loop.pause();
      double serial_us = 0.0;
      {
        auto span = tracer.span("core.solve.serial", c.tag);
        serial_us = solve_cell(report, *c.m->serial, c, nullptr);
      }
      loop.resume();
      if (serial_us > 0.0) c.vs_serial.push_back(serial_us / us);
    }
  }
  loop.finish();

  EndToEnd e = loop_figures(loop);
  std::vector<double> p50, p99;
  std::uint64_t min_samples = ~std::uint64_t{0};
  double round_rhs = 0.0;
  double round_us = 0.0;
  for (const Cell& c : cells) {
    round_rhs += static_cast<double>(c.k);
    round_us += median(c.us);
    p50.push_back(median(c.us));
    p99.push_back(quantile(c.us, 0.99));
    min_samples = std::min<std::uint64_t>(min_samples, c.us.size());
  }
  e.rhs_per_s = round_us > 0.0 ? 1e6 * round_rhs / round_us : 0.0;
  e.latency_p50_us = geomean(p50);
  e.latency_p99_us = geomean(p99);
  e.p99_samples = min_samples;
  return e;
}

}  // namespace

void run_solve(Report& report, Tracer& tracer) {
  const Args& args = report.args();
  std::vector<Matrix> panel = make_panel(args.seed, args.tiny);

  core::SolveOptions opts = core::registry::options_for("auto").value();
  opts.cpu_threads = kGangCap;
  const int reps = args.tiny ? 2 : 7;

  // Set-up: per plan, the median of `reps` fresh analyze calls; the last
  // plan is kept. Picks are recorded on every analyze, so a pick that
  // changes between analyses of one matrix shows as a flip.
  std::vector<SolverPlan> plans;
  std::vector<SolverPlan> serial_plans;
  plans.reserve(panel.size());
  serial_plans.reserve(panel.size());
  EndToEnd e2e;
  for (Matrix& m : panel) {
    std::vector<double> analyze_us;
    for (int rep = 0; rep < reps; ++rep) {
      sparse::CscMatrix copy = m.lower;
      const Clock::time_point t0 = Clock::now();
      auto plan = [&] {
        auto span = tracer.span("core.analyze", m.name);
        return SolverPlan::analyze(std::move(copy), opts);
      }();
      analyze_us.push_back(us_between(t0, Clock::now()));
      report.attempted();
      if (!plan.ok()) {
        report.failed(m.name + ": analyze: " + plan.message());
        return;
      }
      report.pick(m.name, pick_of(plan.value()));
      if (rep == reps - 1) plans.push_back(std::move(plan.value()));
    }
    e2e.setup_s += median(analyze_us) * 1e-6;
    if (tracer.on()) {
      report.layer("core.analyze_us." + m.name, median(analyze_us), "us");
    }
  }
  for (std::size_t i = 0; i < panel.size(); ++i) panel[i].plan = &plans[i];

  // Structure the autotuner saw, by direct calls on the sparse layer.
  index_t narrow_max = 0;
  for (Matrix& m : panel) {
    sparse::LevelAnalysis levels;
    {
      auto span = tracer.span("sparse.analyze_levels", m.name);
      levels = sparse::analyze_levels(m.lower);
    }
    const core::TunedDecision* tuned = m.plan->tuned();
    sparse::CoarsenOptions co;
    if (tuned != nullptr) co = tuned->coarsen;
    sparse::TaskGraph graph;
    {
      auto span = tracer.span("sparse.coarsen_levels", m.name);
      graph = sparse::coarsen_levels(m.lower, levels, co);
    }
    const index_t narrow =
        sparse::resolve_coarsen_options(co, levels).narrow_width;
    narrow_max = std::max(narrow_max, narrow);
    report.note("levels." + m.name, static_cast<double>(levels.num_levels));
    report.note("rows." + m.name, static_cast<double>(m.lower.rows));
    report.note("nnz." + m.name, static_cast<double>(m.lower.nnz()));
    if (tracer.on()) {
      report.layer("sparse.levels." + m.name,
                   static_cast<double>(levels.num_levels), "count");
      report.layer("sparse.tasks." + m.name,
                   static_cast<double>(graph.num_tasks), "count");
      report.layer("core.gang_width." + m.name,
                   static_cast<double>(m.plan->options().cpu_threads), "count");
    }
  }
  if (tracer.on()) {
    report.layer("sparse.narrow_width", static_cast<double>(narrow_max),
                 "count");
  }

  std::vector<Cell> cells;
  for (Matrix& m : panel) {
    for (index_t k : {index_t{1}, kWide}) {
      Cell c;
      c.m = &m;
      c.k = k;
      c.tag = m.name + ".k" + std::to_string(k);
      cells.push_back(std::move(c));
    }
  }

  // Checked warm-up: first solves create workspaces and gang threads.
  for (Cell& c : cells) solve_cell(report, *c.m->plan, c, nullptr);

  if (!tracer.on()) {
    EndToEnd out = run_loop(report, tracer, cells, args.seconds);
    out.setup_s = e2e.setup_s;
    report.set_end_to_end(out);
    return;
  }

  // Traced run: the untraced half gives this run's end-to-end figures,
  // the traced half the per-layer ones; their difference is the tracing
  // overhead. The serial plans exist only for the paired speedup.
  Tracer off(false);
  EndToEnd untraced = run_loop(report, off, cells, args.seconds / 2);
  untraced.setup_s = e2e.setup_s;
  report.set_end_to_end(untraced);

  for (Matrix& m : panel) {
    auto serial = SolverPlan::analyze(
        m.lower, core::registry::options_for("serial").value());
    report.attempted();
    if (!serial.ok()) {
      report.failed(m.name + ": serial analyze: " + serial.message());
      return;
    }
    serial_plans.push_back(std::move(serial.value()));
  }
  for (std::size_t i = 0; i < panel.size(); ++i) {
    panel[i].serial = &serial_plans[i];
  }

  EndToEnd traced = run_loop(report, tracer, cells, args.seconds / 2);
  traced.setup_s = e2e.setup_s;
  report.trace_overhead(untraced, traced);

  for (const Cell& c : cells) {
    report.layer("core.solve_us." + c.tag, median(c.us), "us");
    report.layer("core.speedup_vs_serial." + c.tag, median(c.vs_serial), "x");
    if (c.k != kWide) continue;
    const std::string& m = c.m->name;
    report.layer("core.claim_us." + m, median(c.claim), "us");
    report.layer("core.pack_us." + m, median(c.pack), "us");
    report.layer("core.kernel_us." + m, median(c.kernel), "us");
    report.layer("core.unpack_us." + m, median(c.unpack), "us");
    const double call_us = median(c.us);
    report.layer("core.gbps_computed." + m,
                 call_us > 0.0
                     ? computed_bytes(c.m->lower, c.k) / call_us / 1e3
                     : 0.0,
                 "GB/s");
  }

  const std::size_t triad_elems = args.tiny ? (1u << 17) : (1u << 22);
  report.layer("core.triad_gbps", triad_gbps(triad_elems, kGangCap), "GB/s");
  report.note("triad_array_bytes",
              static_cast<double>(triad_elems * sizeof(double)));
  report.note("triad_threads", kGangCap);
}

}  // namespace perfbench
