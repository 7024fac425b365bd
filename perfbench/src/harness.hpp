// Shared machinery of the perfbench workloads: run arguments, the result
// report, correctness checks, CPU-time and steal sampling, the benchmark's
// own span recorder, and small statistics helpers.
//
// Every workload fills one Report. Its end-to-end figures are measured
// with tracing off; a traced run (Args::trace) additionally records spans
// around each library call the workload makes and derives the per-layer
// metrics from them (and from counters the library exposes publicly).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "sparse/csc.hpp"
#include "support/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using msptrsv::index_t;
using msptrsv::value_t;

/// Tolerance of host solutions against the manufactured solution: the
/// differential harness's bound on max_relative_difference.
inline constexpr double kSolutionTolerance = 1e-10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny matrices and short phases: the smoke self-test's scale.
  bool tiny = false;
  /// Deliberately corrupt one answer inside the timed loop; the run must
  /// then report correct=false and exit nonzero (smoke self-test).
  bool corrupt = false;
  /// Directory the run record and the span dump are written to ("" = none).
  std::string out_dir;
  /// Source revision of the code under test, as the launcher found it.
  std::string commit = "unknown";
  /// CPUs the run was confined to (see confine_to_cpus).
  std::string cpus;
};

/// Confines the process to `n` CPUs of its current affinity mask (the
/// highest-numbered ones), before any worker thread exists, so every
/// thread the run creates inherits the set. Returns the CPU list used
/// ("2,3"), or "" when the mask has fewer than n CPUs (nothing changes).
std::string confine_to_cpus(int n);

double seconds_since(Clock::time_point t0);
double us_between(Clock::time_point t0, Clock::time_point t1);
/// Process CPU time (user + sys, all threads), in seconds.
double process_cpu_seconds();

/// Host-wide steal share between construction and stop(), from /proc/stat.
class StealSampler {
 public:
  StealSampler();
  /// Steal as a percentage of all CPU jiffies since construction.
  double stop() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

double median(std::vector<double> v);
/// Linear-interpolated q-quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

/// Closed-loop bookkeeping shared by the timed loops: wall and CPU time
/// over the loop, right-hand sides completed, and the steal suffered.
class TimedLoop {
 public:
  TimedLoop();
  /// Adds the current interval's wall/CPU time. Loops that exclude input
  /// generation bracket only the measured work with resume()/pause().
  void pause();
  void resume();
  /// Counts completed right-hand sides; closes a window every
  /// kWindowSeconds of measured wall time.
  void add_rhs(std::uint64_t n);
  bool expired(double budget_s) const;
  /// Closes the loop (pausing if running) and freezes the steal figure.
  void finish();

  double steal_pct() const { return steal_pct_; }
  double rhs_per_s() const;
  double cpu_us_per_rhs() const;

  /// Per-window figures of the loop, for explaining a run from its record.
  struct Window {
    double rhs_per_s;
    double cpu_us_per_rhs;
    double steal_pct;
  };
  static constexpr double kWindowSeconds = 0.5;
  const std::vector<Window>& windows() const { return windows_; }

 private:
  double measured_wall_s() const;
  double measured_cpu_s() const;
  void close_window();

  std::vector<Window> windows_;
  StealSampler window_steal_;
  double window_wall0_ = 0.0;
  double window_cpu0_ = 0.0;
  std::uint64_t window_rhs0_ = 0;
  StealSampler steal_;
  Clock::time_point started_;
  Clock::time_point t0_;
  double cpu0_ = 0.0;
  bool running_ = false;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  std::uint64_t rhs_ = 0;
  double steal_pct_ = 0.0;
};

/// The four end-to-end figures every workload reports, plus the tail
/// percentile that is reported but not (yet) an end-to-end metric.
struct EndToEnd {
  double setup_s = 0.0;
  /// Workloads made of cells (solve, paper-sim) or factor classes (churn)
  /// report the rate of a median round: the rhs of one round over the sum
  /// of each cell's median call time. A few slow calls -- a burst of
  /// hypervisor steal during a long k=16 solve -- move a loop-wide mean
  /// far more than the latency medians. The plain loop rate stays in
  /// loop_rhs_per_s.
  double rhs_per_s = 0.0;
  /// Right-hand sides over the timed loop's wall time.
  double loop_rhs_per_s = 0.0;
  double latency_p50_us = 0.0;
  double cpu_us_per_rhs = 0.0;
  double latency_p99_us = 0.0;
  std::uint64_t p99_samples = 0;
  double steal_pct = 0.0;
  /// Per-window rates of the timed loop (TimedLoop::windows()).
  std::vector<TimedLoop::Window> windows;
};

/// The loop's throughput, CPU cost, steal and windows (latency fields are
/// the workload's to fill).
EndToEnd loop_figures(const TimedLoop& loop);

/// The autotuner's decision for one matrix, as the record reports it.
struct Pick {
  std::string backend;
  int gang_width = 0;
  index_t narrow_width = 0;
  index_t tasks = 0;
  bool operator==(const Pick&) const = default;
  std::string str() const;
};

/// The autotuner's decision as a plan reports it: backend, gang width,
/// narrow threshold and task count (0 for a flat schedule).
Pick pick_of(const msptrsv::core::SolverPlan& plan);

/// Span recorder for the traced run: spans live in memory, carry their
/// parent (the innermost span open when they began), and are written out
/// as Chrome trace-event JSON when the run ends. Single caller thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string tag;
    int parent = -1;
    Clock::time_point t0;
    Clock::time_point t1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string tag);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Opens a span that closes when the returned scope ends (no-op off).
  Scope span(std::string name, std::string tag = {}) {
    return Scope(on_ ? this : nullptr, std::move(name), std::move(tag));
  }
  /// Durations (us) of every closed span with this name and tag.
  std::vector<double> durations_us(const std::string& name,
                                   const std::string& tag = {}) const;
  std::size_t size() const { return spans_.size(); }
  bool write_chrome_json(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  const Args& args() const { return args_; }

  /// End-to-end metrics (printed on untraced runs).
  void set_end_to_end(const EndToEnd& e) { e2e_ = e; }
  /// A per-layer metric (printed on traced runs).
  void layer(const std::string& name, double value, const std::string& unit);

  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and keeps the first few reasons.
  void failed(const std::string& why);

  /// Host solution against the manufactured one at kSolutionTolerance.
  /// Also the corruption hook: with Args::corrupt, the first call made
  /// after arm_corruption() perturbs `x` before checking it.
  bool check_close(std::vector<value_t>& x, std::span<const value_t> want,
                   const std::string& what);
  /// Bit-for-bit equality (restored plans, wire replies).
  bool check_equal(std::vector<value_t>& x, std::span<const value_t> want,
                   const std::string& what);
  /// Arms the --corrupt hook; workloads call this when their timed loop
  /// starts, so the deliberate fault lands during timing.
  void arm_corruption() { corrupt_armed_ = args_.corrupt; }

  /// Tracing overhead: traced minus untraced figures, as a share of the
  /// untraced ones (same seed, same run).
  void trace_overhead(const EndToEnd& untraced, const EndToEnd& traced);

  /// Records a matrix's autotuner pick; a different pick for the same
  /// matrix later in the run is reported as a flip.
  void pick(const std::string& matrix, const Pick& p);
  /// Free-form figures for the run record (sizes, sample counts).
  void note(const std::string& key, double value);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  /// Prints the human-readable summary, the run record line and the final
  /// result line; writes the record file. Returns the process exit code.
  int finish(const Tracer& tracer);

 private:
  void corrupt_if_armed(std::vector<value_t>& x);

  Args args_;
  EndToEnd e2e_;
  struct Layer {
    double value;
    std::string unit;
  };
  std::map<std::string, Layer> layers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  bool corrupt_armed_ = false;
  std::map<std::string, Pick> picks_;
  std::vector<std::string> pick_flips_;
  std::map<std::string, double> notes_;
};

/// The per-layer metric names every traced run prints, in output order,
/// with their units. A workload leaves the layers it does not exercise at
/// 0 (the layer did no work in that workload).
const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();

/// Short names of the solve workload's matrix panel, in panel order.
const std::vector<std::string>& solve_panel_names();

/// Deterministic 64-bit mix of (seed, stream): derives per-factor and
/// per-rhs seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// `num_rhs` manufactured solutions for `lower` (column-major) and the
/// right-hand sides b = lower * x that go with them.
struct Manufactured {
  std::vector<value_t> x;
  std::vector<value_t> b;
};
Manufactured manufacture(const msptrsv::sparse::CscMatrix& lower,
                         index_t num_rhs, std::uint64_t seed);

/// Workload entry points (one translation unit each).
void run_solve(Report& report, Tracer& tracer);
void run_serve(Report& report, Tracer& tracer);
void run_churn(Report& report, Tracer& tracer);
void run_paper_sim(Report& report, Tracer& tracer);

}  // namespace perfbench
