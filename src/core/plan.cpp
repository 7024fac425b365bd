#include "core/plan.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "core/comm_nvshmem.hpp"
#include "core/comm_unified.hpp"
#include "core/cpu_parallel.hpp"
#include "core/levelset.hpp"
#include "core/mg_engine.hpp"
#include "core/plan_snapshot.hpp"
#include "core/reference.hpp"
#include "core/workspace.hpp"
#include "sparse/csr.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/serialize.hpp"
#include "sparse/triangular.hpp"
#include "support/blob.hpp"
#include "support/contracts.hpp"
#include "support/failpoint.hpp"
#include "support/trace.hpp"

namespace msptrsv::core {

namespace {

using steady_clock = std::chrono::steady_clock;

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

double us_since(steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(steady_clock::now() - t0)
      .count();
}

/// Structural reversal U(i,j) -> L(n-1-i, n-1-j) without the throwing
/// validation of reverse_upper_to_lower: the plan diagnoses the result
/// through the status channel instead.
sparse::CscMatrix reverse_upper_unchecked(const sparse::CscMatrix& upper) {
  const index_t n = upper.rows;
  sparse::CooMatrix coo;
  coo.rows = coo.cols = n;
  for (index_t j = 0; j < upper.cols; ++j) {
    for (offset_t k = upper.col_ptr[j]; k < upper.col_ptr[j + 1]; ++k) {
      coo.add(n - 1 - upper.row_idx[k], n - 1 - j, upper.val[k]);
    }
  }
  return sparse::csc_from_coo(std::move(coo));
}

/// What a fired token means for the caller: a passed deadline is the
/// time_budget contract (kDeadlineExceeded); a raised flag with no passed
/// deadline is an administrative abandon (service shutdown), which reports
/// kOverloaded like every other shutting-down refusal.
Expected<SolveResult> cancel_error(const CancelToken& cancel) {
  if (cancel.deadline_expired()) {
    return Expected<SolveResult>(
        SolveStatus::kDeadlineExceeded,
        "execution time budget exhausted mid-solve (the partial solution "
        "was discarded; the plan remains usable)");
  }
  return Expected<SolveResult>(
      SolveStatus::kOverloaded,
      "solve abandoned: cancellation requested (service shutting down)");
}

/// Best-effort page-placement hint for the host-parallel gather view: the
/// row form's value/index arrays are the big shared READ-ONLY streams of
/// every solve, and with no hint they home entirely on the node of the
/// thread that built them. MPOL_INTERLEAVE spreads their pages so each
/// socket's memory controllers serve an equal share of the gather
/// traffic. No-op without a policy, on single-node machines, and on
/// non-Linux builds (see support/numa.hpp).
void apply_numa_hints(const SolveOptions& options, PlanSnapshot& snap) {
  if (options.numa_policy == support::NumaPolicy::kNone) return;
  if (!snap.row_form.has_value()) return;
  sparse::CsrMatrix& rf = *snap.row_form;
  support::interleave_pages(rf.val.data(), rf.val.size() * sizeof(value_t));
  support::interleave_pages(rf.col_idx.data(),
                            rf.col_idx.size() * sizeof(index_t));
}

bool backend_is_multi_gpu(Backend b) {
  switch (b) {
    case Backend::kMgUnified:
    case Backend::kMgUnifiedTask:
    case Backend::kMgShmem:
    case Backend::kMgZeroCopy:
      return true;
    default:
      return false;
  }
}

bool backend_is_host_parallel(Backend b) {
  return b == Backend::kCpuLevelSet || b == Backend::kCpuTaskGraph;
}

/// The analyze-time schedule autotuner. Inputs are purely structural
/// (level-width histogram, chain-run lengths, nnz/row), so the decision
/// is deterministic for a matrix + thread budget and can be persisted.
/// The rules follow the cost model the coarsener itself uses:
///  * no level ever exceeds the narrow threshold -> there is nothing for
///    a gang to win anywhere; solve serially (gang width 1);
///  * mostly narrow levels with real depth -> the flat schedule pays a
///    gang synchronization per (nearly empty) level; run the coarsened
///    task graph, whose chain fusion collapses those syncs;
///  * otherwise -> wide levels amortize their barrier; flat level sets.
/// Every candidate is bit-for-bit identical, so the tuner can only cost
/// or save time, never change results.
TunedDecision autotune_decision(const sparse::CscMatrix& lower,
                                const sparse::LevelAnalysis& levels,
                                int requested_threads) {
  TunedDecision d;
  d.autotuned = true;
  d.coarsen = sparse::resolve_coarsen_options({}, levels);
  d.features =
      sparse::schedule_features(levels, lower.nnz(), d.coarsen.narrow_width);
  const sparse::ScheduleFeatures& f = d.features;
  const int hw = resolve_cpu_threads(requested_threads);
  if (lower.rows <= 256 ||
      (f.max_level_width <= d.coarsen.narrow_width &&
       f.avg_level_width < 2.0)) {
    // Tiny system, or a pure chain with no exploitable width anywhere:
    // every parallel schedule only adds claim/barrier overhead.
    d.backend = Backend::kSerial;
    d.gang_width = 1;
  } else if (f.narrow_level_fraction >= 0.5 && f.num_levels >= 64) {
    d.backend = Backend::kCpuTaskGraph;
    // Ready tasks at any instant are bounded by the widest level's block
    // count (chains serialize); one spare party overlaps claim latency.
    const double blocks = static_cast<double>(f.max_level_width) /
                          static_cast<double>(d.coarsen.block_rows);
    d.gang_width = std::clamp(static_cast<int>(blocks) + 2, 2, hw);
  } else {
    d.backend = Backend::kCpuLevelSet;
    // A gang wider than the average level leaves parties idle at every
    // barrier; clamp to the structural parallelism.
    d.gang_width =
        std::clamp(static_cast<int>(f.avg_level_width + 0.5), 2, hw);
  }
  d.schedule = d.backend == Backend::kCpuTaskGraph ? 1 : 0;
  return d;
}

}  // namespace

struct SolverPlan::State {
  /// Owned factor storage. Borrowed plans (analyze_borrowed /
  /// load_borrowed) leave it empty and point `lower` at the caller's
  /// matrix instead.
  sparse::CscMatrix storage;
  /// The lower-triangular factor solves execute against; always non-null
  /// on a constructed plan.
  const sparse::CscMatrix* lower = nullptr;
  SolveOptions options;
  /// The whole symbolic result in its explicit, serializable form:
  /// orientation flag, partition, in-degrees, level analysis, row-form
  /// gather view, and the one-time simulated analysis charge. save()/
  /// load() round-trip exactly this plus the factor.
  PlanSnapshot snapshot;
  double analysis_seconds = 0.0;
  /// Wall seconds spent restoring the plan from a blob (load paths only).
  double load_seconds = 0.0;
  /// Persistent execution state of the host-parallel backends: leased
  /// workspaces carrying parked worker threads and generation-tagged
  /// scratch. Internally synchronized; null for other backends.
  std::unique_ptr<WorkspacePool> workspaces;
};

SolverPlan::SolverPlan(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

/// The shared symbolic phase: `st` arrives with `options` and `lower` set;
/// everything else is derived here. Returns the same (now fully built)
/// state, or the SolveStatus describing the rejected input.
Expected<std::shared_ptr<SolverPlan::State>> SolverPlan::analyze_state(
    std::shared_ptr<State> st) {
  using Result = Expected<std::shared_ptr<State>>;
  const auto t0 = steady_clock::now();
  const sparse::CscMatrix& lower = *st->lower;
  const SolveOptions& options = st->options;

  if (options.tasks_per_gpu < 1) {
    return Result(SolveStatus::kInvalidOptions,
                  "tasks_per_gpu must be >= 1 (got " +
                      std::to_string(options.tasks_per_gpu) + ")");
  }
  if (options.machine.num_gpus() < 1) {
    return Result(SolveStatus::kInvalidOptions,
                  "machine must have at least one GPU");
  }
  if (backend_is_multi_gpu(options.backend) &&
      options.machine.num_gpus() > 32) {
    return Result(SolveStatus::kInvalidOptions,
                  "multi-GPU engine supports at most 32 GPUs (got " +
                      std::to_string(options.machine.num_gpus()) + ")");
  }
  if (lower.rows != lower.cols) {
    return Result(SolveStatus::kNotTriangular,
                  "triangular solve requires a square matrix (" +
                      std::to_string(lower.rows) + "x" +
                      std::to_string(lower.cols) + ")");
  }
  // Identity of the symbolic result (checked again at snapshot-load time).
  st->snapshot.backend = options.backend;
  st->snapshot.tasks_per_gpu = options.tasks_per_gpu;
  st->snapshot.num_gpus = options.machine.num_gpus();
  // The RHS layout is resolved (never kAuto past this point) and recorded
  // as part of the symbolic result: a saved plan replays the same layout.
  st->snapshot.rhs_layout =
      resolve_rhs_layout(options.rhs_layout, options.backend);

  if (lower.rows == 0) {
    // A 0x0 system is vacuously solvable by every backend: the plan
    // short-circuits (no partition, no analysis state) and run_lower
    // returns the empty solution.
    st->analysis_seconds = seconds_since(t0);
    return Result(std::move(st));
  }
  {
    const sparse::SolvableDiagnosis diag =
        sparse::diagnose_solvable_lower(lower);
    if (!diag.solvable) {
      return Result(diag.singular ? SolveStatus::kSingularDiagonal
                                  : SolveStatus::kNotTriangular,
                    diag.detail);
    }
  }

  // Analyze-time autotune: replace the (placeholder) host backend with the
  // structurally chosen one before any backend-keyed state is built. Only
  // host schedules participate -- an explicit simulated/multi-GPU request
  // is a statement about WHICH engine to model, not a tuning question.
  if (options.autotune && (options.backend == Backend::kSerial ||
                           backend_is_host_parallel(options.backend))) {
    sparse::LevelAnalysis levels =
        sparse::analyze_levels(lower, /*validate=*/false);
    TunedDecision tuned =
        autotune_decision(lower, levels, options.cpu_threads);
    st->options.backend = tuned.backend;
    st->options.cpu_threads = tuned.gang_width;
    st->snapshot.tuned = tuned;
    // Re-stamp the identity the tuner just changed: the snapshot must
    // describe the CHOSEN configuration, layout resolution included.
    st->snapshot.backend = tuned.backend;
    st->snapshot.rhs_layout =
        resolve_rhs_layout(options.rhs_layout, tuned.backend);
    // Hand the analysis forward instead of recomputing it in the switch.
    if (tuned.backend == Backend::kCpuLevelSet ||
        tuned.backend == Backend::kCpuTaskGraph) {
      st->snapshot.levels = std::move(levels);
    }
  }

  // Only the multi-GPU engines consume a partition; host/single-GPU plans
  // compute one on demand in partition()/footprint() instead of paying an
  // O(n) build per plan (and per legacy one-shot solve).
  if (backend_is_multi_gpu(options.backend)) {
    st->snapshot.partition = partition_for(options, lower.rows);
  }

  // The diagnosis above already established the solvable-lower invariants,
  // so the derived analyses skip their own validation pass.
  switch (options.backend) {
    case Backend::kSerial:
      break;
    case Backend::kCpuLevelSet:
    case Backend::kCpuTaskGraph:
      // The autotune path above may have handed its analysis forward.
      if (!st->snapshot.levels.has_value()) {
        st->snapshot.levels = sparse::analyze_levels(lower, /*validate=*/false);
      }
      break;
    case Backend::kGpuLevelSet:
      st->snapshot.levels = sparse::analyze_levels(lower, /*validate=*/false);
      st->snapshot.analysis_us = levelset_analysis_us(lower, options.machine.cost);
      break;
    case Backend::kMgUnified:
    case Backend::kMgUnifiedTask:
    case Backend::kMgShmem:
    case Backend::kMgZeroCopy:
      st->snapshot.in_degrees = sparse::compute_in_degrees(lower, /*validate=*/false);
      st->snapshot.analysis_us =
          engine_analysis_us(lower, *st->snapshot.partition, options.machine.cost);
      break;
    default:
      return Result(SolveStatus::kUnknownBackend,
                    "unrecognized backend enumerator");
  }

  // Host-parallel backends solve on plan-owned persistent workspaces
  // (parked threads, reusable scratch) and gather through a row-form view
  // of the factor, both built here once. The pool is lazy: workspaces
  // (and their threads) materialize on first solve, one per concurrent
  // caller.
  if (backend_is_host_parallel(options.backend)) {
    st->snapshot.row_form = sparse::csr_from_csc(lower);
    apply_numa_hints(options, st->snapshot);
    if (options.backend == Backend::kCpuTaskGraph) {
      // Every cpu-taskgraph plan carries a tuned record, autotuned or not:
      // the coarsening thresholds in it are what the load path rebuilds
      // the graph from (the sync-cost measurement behind the defaults is
      // per-process and must not be re-derived on another machine).
      if (!st->snapshot.tuned.has_value()) {
        TunedDecision tuned;
        tuned.backend = Backend::kCpuTaskGraph;
        tuned.schedule = 1;
        tuned.gang_width = options.cpu_threads;
        tuned.coarsen =
            sparse::resolve_coarsen_options({}, *st->snapshot.levels);
        tuned.features = sparse::schedule_features(
            *st->snapshot.levels, lower.nnz(), tuned.coarsen.narrow_width);
        st->snapshot.tuned = tuned;
      }
      st->snapshot.tasks = sparse::coarsen_levels(
          lower, *st->snapshot.levels, st->snapshot.tuned->coarsen);
    }
    PoolOptions pool_opts;
    pool_opts.numa_policy = options.numa_policy;
    st->workspaces = std::make_unique<WorkspacePool>(
        resolve_cpu_threads(options.cpu_threads),
        options.use_shared_pool ? &SharedWorkerPool::instance() : nullptr,
        pool_opts);
  }

  st->analysis_seconds = seconds_since(t0);
  return Result(std::move(st));
}

Expected<SolverPlan> SolverPlan::analyze(sparse::CscMatrix lower,
                                         SolveOptions options) {
  auto st = std::make_shared<State>();
  st->options = std::move(options);
  st->storage = std::move(lower);
  st->lower = &st->storage;
  Expected<std::shared_ptr<State>> built = analyze_state(std::move(st));
  if (!built.ok()) return Expected<SolverPlan>(built.error());
  return SolverPlan(std::move(built.value()));
}

Expected<SolverPlan> SolverPlan::analyze_borrowed(
    const sparse::CscMatrix& lower, SolveOptions options) {
  auto st = std::make_shared<State>();
  st->options = std::move(options);
  st->lower = &lower;
  Expected<std::shared_ptr<State>> built = analyze_state(std::move(st));
  if (!built.ok()) return Expected<SolverPlan>(built.error());
  return SolverPlan(std::move(built.value()));
}

Expected<SolverPlan> SolverPlan::analyze_upper(sparse::CscMatrix upper,
                                               SolveOptions options) {
  if (!upper.is_square()) {
    return Expected<SolverPlan>(
        SolveStatus::kNotTriangular,
        "triangular solve requires a square matrix (" +
            std::to_string(upper.rows) + "x" + std::to_string(upper.cols) +
            ")");
  }
  try {
    upper.validate();
  } catch (const std::exception& e) {
    return Expected<SolverPlan>(
        SolveStatus::kNotTriangular,
        std::string("malformed CSC structure: ") + e.what());
  }
  if (!sparse::is_upper_triangular(upper)) {
    return Expected<SolverPlan>(SolveStatus::kNotTriangular,
                                "matrix has entries below the diagonal (not "
                                "upper triangular)");
  }
  // Diagnose the diagonal on the caller's matrix so error messages name
  // the caller's column indices, not their mirrored images in the
  // reversed factor (rows are sorted, so the diagonal terminates each
  // column of a solvable upper factor).
  for (index_t j = 0; j < upper.cols; ++j) {
    const offset_t last = upper.col_ptr[j + 1] - 1;
    if (upper.col_ptr[j] > last || upper.row_idx[last] != j) {
      return Expected<SolverPlan>(
          SolveStatus::kSingularDiagonal,
          "column " + std::to_string(j) +
              " is missing its diagonal entry (singular)");
    }
    if (upper.val[last] == 0.0) {
      return Expected<SolverPlan>(SolveStatus::kSingularDiagonal,
                                  "zero diagonal at column " +
                                      std::to_string(j) + " (singular)");
    }
  }

  const auto t0 = steady_clock::now();
  auto st = std::make_shared<State>();
  st->options = std::move(options);
  st->storage = reverse_upper_unchecked(upper);
  st->lower = &st->storage;
  Expected<std::shared_ptr<State>> built = analyze_state(std::move(st));
  if (!built.ok()) return Expected<SolverPlan>(built.error());
  // The reversal is analysis-phase work: fold its wall time into the
  // plan's one-time charge and mark the plan as an upper solve.
  built.value()->snapshot.upper = true;
  built.value()->analysis_seconds = seconds_since(t0);
  return SolverPlan(std::move(built.value()));
}

Expected<SolveResult> SolverPlan::run_batch_lower(
    std::span<const value_t> b, index_t num_rhs,
    const CancelToken* cancel) const {
  const State& st = *state_;
  const sparse::CscMatrix& lower = *st.lower;
  // Chaos seam: `delay` stretches a solve (the "hung shard" script);
  // `error(N)` injects the SolveStatus with that code, generalizing the
  // old server-side inject_status knob down to the core.
  if (const auto fp = MSPTRSV_FAILPOINT("core.solve");
      fp.kind == support::FailpointHit::Kind::kError) {
    const auto status = static_cast<SolveStatus>(fp.arg);
    return Expected<SolveResult>(status, "injected by failpoint core.solve");
  }
  // Entry check covers every backend (the simulated ones never look
  // again: their "execution" is an event simulation, not wall time).
  if (cancel != nullptr && cancel->cancelled()) return cancel_error(*cancel);
  // Phase attribution: the deep layers (gang claim, packs, kernels) run on
  // THIS thread and deposit their durations into its scratch; the service
  // reads the totals after solve_batch returns. Reset per batch so stale
  // figures from an earlier solve on this thread never leak in.
  support::trace::PhaseScratch& scratch = support::trace::phase_scratch();
  scratch.reset();
  MSPTRSV_TRACE_SPAN("core.solve_batch", "num_rhs", num_rhs);
  SolveResult out;
  if (lower.rows == 0) {
    // Vacuous system: every backend returns the empty solution for free.
    out.report.solver_name = backend_name(st.options.backend);
    out.report.machine_name =
        is_simulated(st.options.backend) ? st.options.machine.name : "host";
    out.report.num_rhs = num_rhs;
    out.completed_ns = support::trace::trace_now_ns();
    return out;
  }
  // The interleaved layout engages only for a real batch: at num_rhs == 1
  // the two layouts are the same bytes and the transposes would be pure
  // overhead. The public API stays column-major either way -- the panel
  // transposes below are the workspace-boundary cost the layout pays, so
  // they sit INSIDE the timed region (wall_seconds reports what a caller
  // actually waits).
  const bool interleave =
      st.snapshot.rhs_layout == RhsLayout::kInterleaved && num_rhs > 1;
  const std::size_t total =
      static_cast<std::size_t>(lower.rows) * static_cast<std::size_t>(num_rhs);
  switch (st.options.backend) {
    case Backend::kSerial: {
      const auto t0 = steady_clock::now();
      out.x.resize(total);
      if (interleave) {
        // The serial backend has no workspace; per-batch vectors stand in
        // for the panels (steady-state serial batches are rare enough
        // that an owned panel cache is not worth a workspace pool).
        std::vector<value_t> panel_b(total);
        std::vector<value_t> panel_x(total);
        pack_interleaved(b, lower.rows, num_rhs, panel_b.data());
        scratch.pack_us += us_since(t0);
        const auto tk = steady_clock::now();
        if (!solve_lower_serial_fused_interleaved(lower, panel_b.data(),
                                                  num_rhs, cancel,
                                                  panel_x.data())) {
          return cancel_error(*cancel);
        }
        scratch.kernel_us += us_since(tk);
        const auto tu = steady_clock::now();
        unpack_interleaved(panel_x.data(), lower.rows, num_rhs, out.x);
        scratch.unpack_us += us_since(tu);
      } else if (!solve_lower_serial_fused(lower, b, num_rhs, cancel,
                                           out.x)) {
        return cancel_error(*cancel);
      } else {
        scratch.kernel_us += us_since(t0);
      }
      out.wall_seconds = seconds_since(t0);
      out.report.solver_name = backend_name(st.options.backend);
      out.report.machine_name = "host";
      break;
    }
    case Backend::kCpuLevelSet:
    case Backend::kCpuTaskGraph: {
      // Both host-parallel schedules share one skeleton -- lease, pack,
      // kernel, unpack -- and differ only in the kernel they run: the level
      // barrier or the task claim.
      const bool task_claim = st.options.backend == Backend::kCpuTaskGraph;
      const sparse::CsrMatrix& rows = *st.snapshot.row_form;
      WorkspacePool::Lease lease = st.workspaces->acquire();
      SolveWorkspace& ws = lease.ws();
      out.x.resize(total);
      const auto t0 = steady_clock::now();
      bool done;
      if (interleave) {
        value_t* pb = ws.panel_b(total);
        value_t* px = ws.panel_x(total);
        pack_interleaved(b, lower.rows, num_rhs, pb);
        scratch.pack_us += us_since(t0);
        const auto tk = steady_clock::now();
        done = task_claim
                   ? solve_lower_taskgraph_fused_interleaved(
                         *st.snapshot.tasks, rows, pb, num_rhs, ws, px, cancel)
                   : solve_lower_levelset_fused_interleaved(
                         rows, pb, num_rhs, *st.snapshot.levels, ws, px,
                         cancel);
        scratch.kernel_us += us_since(tk);
        if (done) {
          const auto tu = steady_clock::now();
          unpack_interleaved(px, lower.rows, num_rhs, out.x);
          scratch.unpack_us += us_since(tu);
        }
      } else {
        done = task_claim
                   ? solve_lower_taskgraph_fused(*st.snapshot.tasks, rows, b,
                                                 num_rhs, ws, out.x, cancel)
                   : solve_lower_levelset_fused(rows, b, num_rhs,
                                                *st.snapshot.levels, ws, out.x,
                                                cancel);
        scratch.kernel_us += us_since(t0);
      }
      if (!done) return cancel_error(*cancel);
      out.wall_seconds = seconds_since(t0);
      out.report.solver_name = backend_name(st.options.backend);
      out.report.machine_name = "host";
      break;
    }
    case Backend::kGpuLevelSet: {
      LevelSetResult r = solve_levelset_simulated_batch(
          lower, b, num_rhs, st.options.machine, *st.snapshot.levels);
      out.x = std::move(r.x);
      out.report = std::move(r.report);
      break;
    }
    case Backend::kMgUnified:
    case Backend::kMgUnifiedTask:
    case Backend::kMgShmem:
    case Backend::kMgZeroCopy: {
      const bool unified = st.options.backend == Backend::kMgUnified ||
                           st.options.backend == Backend::kMgUnifiedTask;
      // Numerics: the serial sweep's fixed topological order, so x is
      // bit-for-bit the serial backend's and independent of the schedule.
      out.x = solve_lower_serial_fused(lower, b, num_rhs);
      // Cost: ONE event simulation of the whole batch under the fused cost
      // model (per-component work scales with the batch; launches,
      // lock-waits, gathers and update messages amortized). The policies
      // are stateful per run: fresh interconnect + comm models every solve
      // (also what makes concurrent solves safe). The comm policy carries
      // the batch width so every value-carrying payload (managed left_sum
      // pages, one-sided left_sum gathers/puts) is priced k values wide
      // while message counts stay per-edge.
      EngineOptions eng;
      eng.include_analysis = false;  // charged once by the plan
      eng.in_degrees = &st.snapshot.in_degrees;
      eng.cost_rhs = num_rhs;
      const sparse::Partition& partition = *st.snapshot.partition;
      sim::Interconnect net(st.options.machine.topology,
                            st.options.machine.cost);
      if (unified) {
        UnifiedComm comm(net, st.options.machine.cost, partition.num_gpus(),
                         lower.rows, num_rhs);
        out.report = run_mg_engine(lower, partition, st.options.machine, net,
                                   comm, eng);
      } else {
        NvshmemComm comm(net, st.options.machine.cost, partition.num_gpus(),
                         lower.rows, st.options.nvshmem, num_rhs);
        out.report = run_mg_engine(lower, partition, st.options.machine, net,
                                   comm, eng);
      }
      out.report.solver_name = backend_name(st.options.backend);
      break;
    }
  }
  out.report.num_rhs = num_rhs;
  // A fused batch is one solve: its makespan is both the total and the
  // slowest-single-solve figure.
  out.report.max_solve_us = out.report.solve_us;
  // The gang claim ran INSIDE the timed kernel region (workspace
  // run_parallel claims before the sweep); report it separately and
  // subtract it so the phases partition the observable latency.
  out.phases.claim_us = scratch.claim_us;
  out.phases.pack_us = scratch.pack_us;
  out.phases.kernel_us = std::max(0.0, scratch.kernel_us - scratch.claim_us);
  out.phases.unpack_us = scratch.unpack_us;
  out.completed_ns = support::trace::trace_now_ns();
  return out;
}

Expected<SolveResult> SolverPlan::run_one(std::span<const value_t> b,
                                          const CancelToken* cancel) const {
  if (!state_->snapshot.upper) return run_batch_lower(b, 1, cancel);
  // Backward substitution executes on the reversed factor; the O(n) vector
  // transforms stay outside the timed regions (run_batch_lower times only
  // the backend execution).
  const std::vector<value_t> rb = reversed(b);
  Expected<SolveResult> r = run_batch_lower(rb, 1, cancel);
  if (!r.ok()) return r;
  r.value().x = reversed(r.value().x);
  return r;
}

CancelToken SolverPlan::effective_token(const CancelToken& cancel) const {
  if (state_->options.time_budget > 0.0) {
    return cancel.capped(state_->options.time_budget);
  }
  return cancel;
}

Expected<SolveResult> SolverPlan::solve(std::span<const value_t> b) const {
  return solve(b, CancelToken());
}

Expected<SolveResult> SolverPlan::solve(std::span<const value_t> b,
                                        const CancelToken& cancel) const {
  if (b.size() != static_cast<std::size_t>(rows())) {
    return Expected<SolveResult>(
        SolveStatus::kShapeMismatch,
        "rhs length " + std::to_string(b.size()) +
            " does not match the matrix dimension " + std::to_string(rows()));
  }
  const CancelToken tok = effective_token(cancel);
  return run_one(b, tok.active() ? &tok : nullptr);
}

Expected<SolveResult> SolverPlan::solve_batch(std::span<const value_t> rhs,
                                              index_t num_rhs) const {
  return solve_batch(rhs, num_rhs, CancelToken());
}

Expected<SolveResult> SolverPlan::solve_batch(std::span<const value_t> rhs,
                                              index_t num_rhs,
                                              const CancelToken& cancel) const {
  if (num_rhs < 1) {
    return Expected<SolveResult>(
        SolveStatus::kShapeMismatch,
        "num_rhs must be >= 1 (got " + std::to_string(num_rhs) + ")");
  }
  const std::size_t n = static_cast<std::size_t>(rows());
  const std::size_t expected = n * static_cast<std::size_t>(num_rhs);
  if (rhs.size() != expected) {
    return Expected<SolveResult>(
        SolveStatus::kShapeMismatch,
        "batch of " + std::to_string(num_rhs) + " rhs requires " +
            std::to_string(expected) + " values (column-major), got " +
            std::to_string(rhs.size()));
  }

  const CancelToken tok = effective_token(cancel);
  const CancelToken* cancel_ptr = tok.active() ? &tok : nullptr;

  if (!state_->options.fuse_batch) {
    // Looped mode (the PR 1 semantics): independent solves, reports
    // accumulate. The budget covers the WHOLE batch (the token is shared
    // across the loop), so a slow batch aborts partway with nothing kept.
    SolveResult out;
    out.x.reserve(expected);
    for (index_t j = 0; j < num_rhs; ++j) {
      Expected<SolveResult> r =
          run_one(rhs.subspan(static_cast<std::size_t>(j) * n, n), cancel_ptr);
      if (!r.ok()) return r;
      out.x.insert(out.x.end(), r.value().x.begin(), r.value().x.end());
      out.wall_seconds += r.value().wall_seconds;
      out.phases.claim_us += r.value().phases.claim_us;
      out.phases.pack_us += r.value().phases.pack_us;
      out.phases.kernel_us += r.value().phases.kernel_us;
      out.phases.unpack_us += r.value().phases.unpack_us;
      out.completed_ns = r.value().completed_ns;
      if (j == 0) {
        out.report = std::move(r.value().report);
      } else {
        out.report.accumulate(r.value().report);
      }
    }
    return out;
  }

  if (!state_->snapshot.upper) return run_batch_lower(rhs, num_rhs, cancel_ptr);

  // Upper plans: per-column vector reversal in, solve the reversed-lower
  // batch fused, reverse each solution column back. The O(n*k) transforms
  // stay outside the timed region, like the single-solve path.
  std::vector<value_t> rb(expected);
  for (index_t j = 0; j < num_rhs; ++j) {
    const std::size_t base = static_cast<std::size_t>(j) * n;
    for (std::size_t i = 0; i < n; ++i) {
      rb[base + i] = rhs[base + (n - 1 - i)];
    }
  }
  Expected<SolveResult> solved = run_batch_lower(rb, num_rhs, cancel_ptr);
  if (!solved.ok()) return solved;
  SolveResult out = std::move(solved.value());
  for (index_t j = 0; j < num_rhs; ++j) {
    const auto begin =
        out.x.begin() + static_cast<std::ptrdiff_t>(j) *
                            static_cast<std::ptrdiff_t>(n);
    std::reverse(begin, begin + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

Expected<bool> SolverPlan::update_values(std::span<const value_t> values) {
  State& st = *state_;
  if (st.lower != &st.storage) {
    return Expected<bool>(
        SolveStatus::kInvalidOptions,
        "update_values requires an owning plan; a borrowed plan reads the "
        "caller's matrix -- update its values in place instead (host-parallel "
        "backends snapshot values into the row form at analysis, re-analyze "
        "there)");
  }
  const offset_t nnz = st.storage.nnz();
  if (values.size() != static_cast<std::size_t>(nnz)) {
    return Expected<bool>(
        SolveStatus::kShapeMismatch,
        "value refresh needs one value per stored nonzero (" +
            std::to_string(nnz) + "), got " + std::to_string(values.size()));
  }
  const index_t n = st.storage.rows;
  if (!st.snapshot.upper) {
    // The diagonal leads each column of the analyzed lower factor; check
    // every new diagonal before mutating anything.
    for (index_t j = 0; j < n; ++j) {
      if (values[static_cast<std::size_t>(st.storage.col_ptr[j])] == 0.0) {
        return Expected<bool>(SolveStatus::kSingularDiagonal,
                              "zero diagonal at column " + std::to_string(j) +
                                  " (singular); plan values unchanged");
      }
    }
    std::copy(values.begin(), values.end(), st.storage.val.begin());
    if (st.snapshot.row_form) st.snapshot.row_form = sparse::csr_from_csc(st.storage);
    return true;
  }
  // Upper plan: `values` follows the ORIGINAL upper factor's CSC order,
  // but storage holds the reversed lower form. Column j of the upper maps
  // to lower column n-1-j with its entries in reverse order, so the upper
  // column lengths (and the whole permutation) are recoverable from the
  // stored structure alone.
  offset_t base = 0;
  for (index_t j = 0; j < n; ++j) {
    const index_t rj = n - 1 - j;  // the mirrored lower column
    const offset_t count = st.storage.col_ptr[rj + 1] - st.storage.col_ptr[rj];
    // The diagonal terminates each upper column.
    if (values[static_cast<std::size_t>(base + count - 1)] == 0.0) {
      return Expected<bool>(SolveStatus::kSingularDiagonal,
                            "zero diagonal at column " + std::to_string(j) +
                                " (singular); plan values unchanged");
    }
    base += count;
  }
  base = 0;
  for (index_t j = 0; j < n; ++j) {
    const index_t rj = n - 1 - j;
    const offset_t begin = st.storage.col_ptr[rj];
    const offset_t count = st.storage.col_ptr[rj + 1] - begin;
    for (offset_t t = 0; t < count; ++t) {
      st.storage.val[static_cast<std::size_t>(begin + (count - 1 - t))] =
          values[static_cast<std::size_t>(base + t)];
    }
    base += count;
  }
  if (st.snapshot.row_form) st.snapshot.row_form = sparse::csr_from_csc(st.storage);
  return true;
}

Expected<bool> SolverPlan::update_values(const sparse::CscMatrix& m) {
  const State& st = *state_;
  if (st.lower != &st.storage) {
    // The span overload would reject borrowed plans anyway; do it before
    // the O(nnz) pattern comparison, with the same diagnostic.
    return update_values(m.val);
  }
  const sparse::CscMatrix& cur = *st.lower;
  const index_t n = cur.rows;
  if (m.rows != n || m.cols != cur.cols) {
    return Expected<bool>(
        SolveStatus::kShapeMismatch,
        "value refresh matrix is " + std::to_string(m.rows) + "x" +
            std::to_string(m.cols) + ", plan factor is " + std::to_string(n) +
            "x" + std::to_string(cur.cols));
  }
  if (m.nnz() != cur.nnz()) {
    return Expected<bool>(
        SolveStatus::kShapeMismatch,
        "value refresh matrix has " + std::to_string(m.nnz()) +
            " nonzeros, plan factor has " + std::to_string(cur.nnz()));
  }
  if (!st.snapshot.upper) {
    // Exact pattern equality against the analyzed lower factor.
    if (m.col_ptr != cur.col_ptr || m.row_idx != cur.row_idx) {
      for (index_t j = 0; j < n; ++j) {
        if (m.col_ptr[j + 1] != cur.col_ptr[j + 1] ||
            !std::equal(m.row_idx.begin() + m.col_ptr[j],
                        m.row_idx.begin() + m.col_ptr[j + 1],
                        cur.row_idx.begin() + cur.col_ptr[j])) {
          return Expected<bool>(
              SolveStatus::kShapeMismatch,
              "sparsity pattern differs from the analyzed factor at column " +
                  std::to_string(j) + "; re-analyze instead of update_values");
        }
      }
    }
    return update_values(m.val);
  }
  // Upper plan: `m` is the caller's upper factor; the cached pattern is the
  // reversed lower form. Column j of the upper mirrors lower column n-1-j
  // with its entries in reverse order.
  for (index_t j = 0; j < n; ++j) {
    const index_t rj = n - 1 - j;
    const offset_t begin = cur.col_ptr[rj];
    const offset_t count = cur.col_ptr[rj + 1] - begin;
    if (m.col_ptr[j + 1] - m.col_ptr[j] != count) {
      return Expected<bool>(
          SolveStatus::kShapeMismatch,
          "sparsity pattern differs from the analyzed factor at column " +
              std::to_string(j) + "; re-analyze instead of update_values");
    }
    for (offset_t t = 0; t < count; ++t) {
      if (m.row_idx[static_cast<std::size_t>(m.col_ptr[j] + t)] !=
          n - 1 - cur.row_idx[static_cast<std::size_t>(begin + (count - 1 - t))]) {
        return Expected<bool>(
            SolveStatus::kShapeMismatch,
            "sparsity pattern differs from the analyzed factor at column " +
                std::to_string(j) + "; re-analyze instead of update_values");
      }
    }
  }
  return update_values(m.val);
}

// ---- persistence -----------------------------------------------------------

Expected<std::vector<std::uint8_t>> SolverPlan::serialize() const {
  return serialize_snapshot(state_->snapshot, *state_->lower);
}

Expected<std::vector<std::uint8_t>> SolverPlan::serialize(
    SnapshotWriteOptions write_options) const {
  return serialize_snapshot(state_->snapshot, *state_->lower, write_options);
}

Expected<bool> SolverPlan::save(const std::string& path) const {
  const std::vector<std::uint8_t> blob =
      serialize_snapshot(state_->snapshot, *state_->lower);
  if (!support::write_file(path, blob)) {
    return Expected<bool>(SolveStatus::kBadSnapshot,
                          "cannot write plan blob to '" + path + "'");
  }
  return true;
}

Expected<SolverPlan> SolverPlan::deserialize(
    std::span<const std::uint8_t> bytes, SolveOptions options) {
  const auto t0 = steady_clock::now();
  SnapshotBlob parsed;
  const std::string err = deserialize_snapshot(bytes, parsed);
  if (!err.empty()) return Expected<SolverPlan>(SolveStatus::kBadSnapshot, err);
  return restore(std::move(parsed), std::move(options), nullptr, t0);
}

Expected<SolverPlan> SolverPlan::load(const std::string& path,
                                      SolveOptions options) {
  const auto t0 = steady_clock::now();
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) {
    return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                                "cannot read plan blob '" + path + "'");
  }
  SnapshotBlob parsed;
  const std::string err = deserialize_snapshot(bytes, parsed);
  if (!err.empty()) {
    return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                                "'" + path + "': " + err);
  }
  return restore(std::move(parsed), std::move(options), nullptr, t0);
}

Expected<SolverPlan> SolverPlan::load_borrowed(const std::string& path,
                                               const sparse::CscMatrix& lower,
                                               SolveOptions options) {
  const auto t0 = steady_clock::now();
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) {
    return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                                "cannot read plan blob '" + path + "'");
  }
  SnapshotBlob parsed;
  // The caller supplies the matrix: skip materializing the embedded one
  // (about half of a host-backend blob's bytes).
  const std::string err =
      deserialize_snapshot(bytes, parsed, SnapshotRead::kSkipFactor);
  if (!err.empty()) {
    return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                                "'" + path + "': " + err);
  }
  return restore(std::move(parsed), std::move(options), &lower, t0);
}

double SolverPlan::load_us() const { return state_->load_seconds * 1e6; }

Expected<SolverPlan> SolverPlan::restore(
    SnapshotBlob parsed, SolveOptions options,
    const sparse::CscMatrix* borrow,
    std::chrono::steady_clock::time_point t0) {
  using Result = Expected<SolverPlan>;
  PlanSnapshot& snap = parsed.snapshot;

  // An autotune load ADOPTS the stored decision instead of demanding the
  // caller guess which backend the tuner picked at analyze time: the plan
  // replays the persisted choice (backend and gang width) verbatim.
  if (options.autotune) {
    options.backend = snap.backend;
    if (snap.tuned.has_value()) options.cpu_threads = snap.tuned->gang_width;
  }

  // The snapshot is only valid for the configuration that produced it:
  // pairing it with different symbolic-phase inputs would execute a
  // schedule computed for another machine shape.
  if (options.backend != snap.backend) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot was analyzed for backend " +
                      backend_name(snap.backend) + ", options request " +
                      backend_name(options.backend));
  }
  // Only the multi-GPU engines bake the machine width into their symbolic
  // state (the partition); host and single-GPU plans accept any machine.
  if (backend_is_multi_gpu(options.backend) &&
      options.machine.num_gpus() != snap.num_gpus) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot was analyzed for " + std::to_string(snap.num_gpus) +
                      " GPUs, options machine has " +
                      std::to_string(options.machine.num_gpus()));
  }
  const bool task_pool = options.backend == Backend::kMgUnifiedTask ||
                         options.backend == Backend::kMgZeroCopy;
  if (task_pool && options.tasks_per_gpu != snap.tasks_per_gpu) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot was analyzed with tasks_per_gpu = " +
                      std::to_string(snap.tasks_per_gpu) +
                      ", options request " +
                      std::to_string(options.tasks_per_gpu));
  }
  if (options.tasks_per_gpu < 1 || options.machine.num_gpus() < 1) {
    return Result(SolveStatus::kInvalidOptions,
                  "options are inconsistent (tasks_per_gpu and the machine "
                  "GPU count must be >= 1)");
  }

  // Backend-required sections must have survived the trip (a hand-crafted
  // blob could claim a backend but omit its state).
  const index_t n = parsed.factor.rows;
  if (n > 0) {
    const bool needs_levels = options.backend == Backend::kCpuLevelSet ||
                              options.backend == Backend::kCpuTaskGraph ||
                              options.backend == Backend::kGpuLevelSet;
    const bool needs_in_degrees = backend_is_multi_gpu(options.backend);
    if (needs_levels && !snap.levels.has_value()) {
      return Result(SolveStatus::kBadSnapshot,
                    "snapshot lacks the level analysis its backend needs");
    }
    if (needs_in_degrees && snap.in_degrees.empty()) {
      return Result(SolveStatus::kBadSnapshot,
                    "snapshot lacks the in-degree state its backend needs");
    }
    // The row form is NOT required of the blob: the lean v2 format omits
    // it by design and it is rebuilt below from whichever factor the plan
    // ends up solving against.
  }

  auto st = std::make_shared<State>();
  if (borrow != nullptr) {
    // Borrowed-load: solve against the CALLER's matrix. Upper plans have
    // no caller-visible lower form to borrow.
    if (snap.upper) {
      return Result(SolveStatus::kBadSnapshot,
                    "borrowed load of an upper-triangular plan is not "
                    "supported (its internal factor is the reversed form); "
                    "use the owning load instead");
    }
    const sparse::StructuralHash caller_hash = sparse::hash_csc(*borrow);
    if (caller_hash.pattern != parsed.factor_hash.pattern) {
      return Result(SolveStatus::kBadSnapshot,
                    "structural hash mismatch: the supplied matrix does not "
                    "have the sparsity pattern this plan was analyzed for");
    }
    st->lower = borrow;
    if (caller_hash.values != parsed.factor_hash.values) {
      // Refreshed values: the saved plan's diagonal guarantee no longer
      // covers them. The pattern matches the analyzed factor, so the
      // diagonal still leads every column -- an O(n) re-check.
      for (index_t j = 0; j < borrow->cols; ++j) {
        if (borrow->val[static_cast<std::size_t>(borrow->col_ptr[j])] == 0.0) {
          return Result(SolveStatus::kSingularDiagonal,
                        "zero diagonal at column " + std::to_string(j) +
                            " in the supplied matrix (singular)");
        }
      }
      // The cached row form snapshots VALUES; re-sync it from the
      // caller's matrix (structure reuse, no re-analysis).
      if (snap.row_form.has_value()) {
        snap.row_form = sparse::csr_from_csc(*borrow);
      }
    }
  } else {
    st->storage = std::move(parsed.factor);
    st->lower = &st->storage;
  }

  // Partition is a deterministic O(n) function of the validated identity;
  // rebuild instead of trusting (or paying for) a serialized copy.
  if (n > 0 && backend_is_multi_gpu(options.backend)) {
    snap.partition = partition_for(options, n);
  }

  // Row-form view for the host-parallel gather: lean (v2) blobs do not
  // carry it, so rebuild it from the resolved factor -- one O(nnz)
  // transpose, the same memory-speed pass analyze pays. Fat blobs (v1,
  // or v2 written with include_row_form) keep their stored copy; the
  // borrowed value-refresh above already re-synced it when needed.
  if (n > 0 && backend_is_host_parallel(options.backend) &&
      !snap.row_form.has_value()) {
    snap.row_form = sparse::csr_from_csc(*st->lower);
  }

  // The task DAG is never serialized (like the lean row form): rebuild it
  // from the stored levels under the PERSISTED coarsening thresholds --
  // the defaults embed a per-process sync-cost measurement, and the graph
  // the plan runs must be the graph the analysis chose.
  if (n > 0 && options.backend == Backend::kCpuTaskGraph) {
    const sparse::CoarsenOptions coarsen =
        snap.tuned.has_value() ? snap.tuned->coarsen : sparse::CoarsenOptions{};
    snap.tasks = sparse::coarsen_levels(*st->lower, *snap.levels, coarsen);
    // The task kernel SPINS on its delivery counters: stored levels that
    // disagree with the factor can yield a cross-task edge pointing to an
    // EARLIER task, which a narrow gang would wait on forever. Reject
    // those at load (one pass over the edges); level orders that merely
    // mis-answer are left to the CRC, as for every other schedule.
    const sparse::TaskGraph& g = *snap.tasks;
    for (index_t t = 0; t < g.num_tasks; ++t) {
      for (offset_t e = g.succ_ptr[static_cast<std::size_t>(t)];
           e < g.succ_ptr[static_cast<std::size_t>(t) + 1]; ++e) {
        if (g.succ[static_cast<std::size_t>(e)] <= t) {
          return Result(SolveStatus::kBadSnapshot,
                        "snapshot level analysis does not match the factor "
                        "structure (task graph has a backward edge)");
        }
      }
    }
  }

  // RHS layout: explicit options win; otherwise trust the stored resolved
  // value; v1 blobs (which deserialize as kAuto) re-resolve by backend,
  // which reproduces exactly what v1-era plans did implicitly.
  if (options.rhs_layout != RhsLayout::kAuto) {
    snap.rhs_layout = resolve_rhs_layout(options.rhs_layout, options.backend);
  } else if (snap.rhs_layout == RhsLayout::kAuto) {
    snap.rhs_layout = resolve_rhs_layout(RhsLayout::kAuto, options.backend);
  }

  apply_numa_hints(options, snap);

  st->options = std::move(options);
  st->snapshot = std::move(snap);
  // Re-stamp the identity from the validated options so a re-save of this
  // plan records the configuration it actually runs with (they can differ
  // only where the symbolic state does not depend on them).
  st->snapshot.tasks_per_gpu = st->options.tasks_per_gpu;
  st->snapshot.num_gpus = st->options.machine.num_gpus();
  // A loaded plan never paid the analysis: the whole point. The read cost
  // is reported separately via load_us().
  st->snapshot.analysis_us = 0.0;
  st->analysis_seconds = 0.0;
  if (n > 0 && backend_is_host_parallel(st->options.backend)) {
    PoolOptions pool_opts;
    pool_opts.numa_policy = st->options.numa_policy;
    st->workspaces = std::make_unique<WorkspacePool>(
        resolve_cpu_threads(st->options.cpu_threads),
        st->options.use_shared_pool ? &SharedWorkerPool::instance() : nullptr,
        pool_opts);
  }
  st->load_seconds = seconds_since(t0);
  return SolverPlan(std::move(st));
}

index_t SolverPlan::rows() const { return state_->lower->rows; }

bool SolverPlan::is_upper() const { return state_->snapshot.upper; }

RhsLayout SolverPlan::rhs_layout() const { return state_->snapshot.rhs_layout; }

const SolveOptions& SolverPlan::options() const { return state_->options; }

const sparse::CscMatrix& SolverPlan::factor() const { return *state_->lower; }

sparse::Partition SolverPlan::partition() const {
  MSPTRSV_REQUIRE(rows() > 0, "an empty (0x0) plan has no partition");
  if (state_->snapshot.partition.has_value()) return *state_->snapshot.partition;
  return partition_for(state_->options, rows());
}

std::span<const index_t> SolverPlan::in_degrees() const {
  return state_->snapshot.in_degrees;
}

const sparse::LevelAnalysis* SolverPlan::level_analysis() const {
  return state_->snapshot.levels ? &*state_->snapshot.levels : nullptr;
}

const TunedDecision* SolverPlan::tuned() const {
  return state_->snapshot.tuned ? &*state_->snapshot.tuned : nullptr;
}

const sparse::TaskGraph* SolverPlan::task_graph() const {
  return state_->snapshot.tasks ? &*state_->snapshot.tasks : nullptr;
}

std::size_t SolverPlan::workspace_count() const {
  return state_->workspaces ? state_->workspaces->size() : 0;
}

std::size_t SolverPlan::owned_thread_count() const {
  return state_->workspaces ? state_->workspaces->owned_threads() : 0;
}

const void* SolverPlan::state_id() const { return state_.get(); }

namespace {

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t csc_bytes(const sparse::CscMatrix& m) {
  return vector_bytes(m.col_ptr) + vector_bytes(m.row_idx) +
         vector_bytes(m.val);
}

}  // namespace

std::size_t SolverPlan::resident_bytes() const {
  const State& st = *state_;
  std::size_t bytes = sizeof(State);
  bytes += csc_bytes(st.storage);  // empty (0) for borrowed plans
  const PlanSnapshot& snap = st.snapshot;
  bytes += vector_bytes(snap.in_degrees);
  if (snap.levels.has_value()) {
    bytes += vector_bytes(snap.levels->level_of) +
             vector_bytes(snap.levels->level_ptr) +
             vector_bytes(snap.levels->order);
  }
  if (snap.row_form.has_value()) {
    bytes += vector_bytes(snap.row_form->row_ptr) +
             vector_bytes(snap.row_form->col_idx) +
             vector_bytes(snap.row_form->val);
  }
  if (snap.tasks.has_value()) {
    bytes += vector_bytes(snap.tasks->task_ptr) +
             vector_bytes(snap.tasks->task_rows) +
             vector_bytes(snap.tasks->kind) +
             vector_bytes(snap.tasks->task_of) +
             vector_bytes(snap.tasks->in_degree) +
             vector_bytes(snap.tasks->succ_ptr) +
             vector_bytes(snap.tasks->succ);
  }
  if (snap.partition.has_value()) {
    // Partition internals: per-component owner map dominates.
    bytes += static_cast<std::size_t>(rows()) * sizeof(int) +
             static_cast<std::size_t>(rows()) * sizeof(index_t);
  }
  return bytes;
}

sim_time_t SolverPlan::analysis_us() const { return state_->snapshot.analysis_us; }

double SolverPlan::analysis_seconds() const {
  return state_->analysis_seconds;
}

sparse::FootprintEstimate SolverPlan::footprint() const {
  if (rows() == 0) return {};  // empty plan
  const Backend b = state_->options.backend;
  const sparse::StateLayout layout =
      (b == Backend::kMgShmem || b == Backend::kMgZeroCopy)
          ? sparse::StateLayout::kSymmetricHeap
          : sparse::StateLayout::kUnifiedManaged;
  return sparse::estimate_footprint(*state_->lower, partition(), layout);
}

}  // namespace msptrsv::core
