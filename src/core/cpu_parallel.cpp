#include "core/cpu_parallel.hpp"

#include <atomic>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "support/contracts.hpp"
#include "support/failpoint.hpp"
#include "support/trace.hpp"

namespace msptrsv::core {

namespace {

// ---- Inner RHS-sweep kernel, runtime-dispatched ----------------------------
//
// acc[r] += lv * xc[r] over the unit-stride interleaved panel slice of one
// dependency. Written as separate multiply and add EVERYWHERE (the build
// sets -ffp-contract=off as well): an FMA would round once where the
// scalar reference rounds twice, and the bit-for-bit contract across
// layouts, thread counts, and dispatch targets is the whole point.
// Per-lane arithmetic is identical in all three bodies -- lane r always
// computes round(acc[r] + round(lv * xc[r])) -- so which one runs is
// unobservable in the results.

using AxpyFn = void (*)(value_t* acc, const value_t* xc, value_t lv,
                        std::size_t k);

void axpy_scalar(value_t* acc, const value_t* xc, value_t lv, std::size_t k) {
#pragma omp simd
  for (std::size_t r = 0; r < k; ++r) acc[r] += lv * xc[r];
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void axpy_avx2(value_t* acc, const value_t* xc,
                                               value_t lv, std::size_t k) {
  const __m256d vlv = _mm256_set1_pd(lv);
  std::size_t r = 0;
  for (; r + 4 <= k; r += 4) {
    const __m256d a = _mm256_loadu_pd(acc + r);
    const __m256d xv = _mm256_loadu_pd(xc + r);
    // mul then add, never _mm256_fmadd_pd -- see the dispatch comment.
    _mm256_storeu_pd(acc + r, _mm256_add_pd(a, _mm256_mul_pd(vlv, xv)));
  }
  for (; r < k; ++r) acc[r] += lv * xc[r];
}
#endif

/// Dispatch target resolved once per process (same idiom as the crc32c
/// hardware probe in support/blob.cpp).
AxpyFn resolve_axpy() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return axpy_avx2;
#endif
  return axpy_scalar;
}

AxpyFn axpy_kernel() {
  static const AxpyFn fn = resolve_axpy();
  return fn;
}

// ---- Per-component gather-and-solve, one per layout ------------------------

/// Gathers component i's solution for every rhs by PULLING the final x
/// entries of its dependencies through the row form (ascending column
/// order: deterministic regardless of thread count or batch width). The
/// diagonal terminates row i of a solvable lower factor. Column-major
/// batch: the inner RHS loop strides by n.
inline void gather_and_solve(const sparse::CsrMatrix& rows, index_t i,
                             std::span<const value_t> b, std::size_t num_rhs,
                             std::size_t n, value_t* acc,
                             std::span<value_t> x) {
  const offset_t rb = rows.row_ptr[static_cast<std::size_t>(i)];
  const offset_t re = rows.row_ptr[static_cast<std::size_t>(i) + 1];
  const value_t diag = rows.val[static_cast<std::size_t>(re - 1)];
  for (std::size_t r = 0; r < num_rhs; ++r) acc[r] = 0.0;
  for (offset_t e = rb; e < re - 1; ++e) {
    const std::size_t c =
        static_cast<std::size_t>(rows.col_idx[static_cast<std::size_t>(e)]);
    const value_t lv = rows.val[static_cast<std::size_t>(e)];
    for (std::size_t r = 0; r < num_rhs; ++r) {
      acc[r] += lv * x[r * n + c];
    }
  }
  for (std::size_t r = 0; r < num_rhs; ++r) {
    x[r * n + static_cast<std::size_t>(i)] =
        (b[r * n + static_cast<std::size_t>(i)] - acc[r]) / diag;
  }
}

/// Interleaved-panel variant: b and x are component-major n x k panels
/// (entry i of rhs r at [i*k + r]), so the dependency read is ONE
/// contiguous k-vector and the whole gather is the dispatched axpy. Same
/// per-rhs operation order as the column-major form: ascending column
/// gather, then one divide -- bit-for-bit identical results.
inline void gather_and_solve_interleaved(const sparse::CsrMatrix& rows,
                                         index_t i, const value_t* b,
                                         std::size_t k, value_t* acc,
                                         value_t* x, AxpyFn axpy) {
  const offset_t rb = rows.row_ptr[static_cast<std::size_t>(i)];
  const offset_t re = rows.row_ptr[static_cast<std::size_t>(i) + 1];
  const value_t diag = rows.val[static_cast<std::size_t>(re - 1)];
  for (std::size_t r = 0; r < k; ++r) acc[r] = 0.0;
  for (offset_t e = rb; e < re - 1; ++e) {
    const std::size_t c =
        static_cast<std::size_t>(rows.col_idx[static_cast<std::size_t>(e)]);
    axpy(acc, x + c * k, rows.val[static_cast<std::size_t>(e)], k);
  }
  const value_t* bi = b + static_cast<std::size_t>(i) * k;
  value_t* xi = x + static_cast<std::size_t>(i) * k;
#pragma omp simd
  for (std::size_t r = 0; r < k; ++r) {
    xi[r] = (bi[r] - acc[r]) / diag;
  }
}

// ---- Scheduling drivers, shared by both layouts ----------------------------
//
// The barrier/claim protocols and the abort machinery are layout-blind;
// only the per-component body differs. solve_one(i, acc) must fully solve
// component i for the whole batch using the thread-private accumulator.

template <typename SolveOne>
bool drive_levelset(const sparse::LevelAnalysis& analysis, index_t num_rhs,
                    SolveWorkspace& ws, const CancelToken* cancel,
                    SolveOne&& solve_one) {
  SpinBarrier& sync = ws.level_barrier();
  // Workspace-owned per-thread accumulators: nothing allocates (or can
  // throw) inside the parallel region once the batch width has been seen.
  // Sized for the workspace's party CAP, so a shared-pool gang of any
  // width indexes in bounds.
  value_t* scratch = ws.gather_scratch(num_rhs);
  const std::size_t stride = ws.gather_stride();

  // `threads` is the ACTUAL party count of this run (a shared-pool gang
  // may be narrower than the cap); the level stride and the barrier --
  // resized by run_parallel -- both follow it.
  //
  // Abort protocol: tid 0 checks the token AFTER its level work and
  // stores the flag BEFORE arriving at the barrier; every party reads it
  // after leaving. All parties therefore pass the same number of barriers
  // and exit at the same level -- the barrier stays coherent and the
  // workspace needs no repair.
  std::atomic<bool> abort{false};
  ws.run_parallel([&](int tid, int threads) {
    value_t* acc = scratch + static_cast<std::size_t>(tid) * stride;
    // Tracing is leader-only: the gang leader is the dispatching thread,
    // so its thread-local context carries the request's trace id into the
    // kernel; one span per LEVEL (start -> barrier passed), never per row.
    const bool lead_trace = tid == 0 && MSPTRSV_TRACE_ARMED();
    for (index_t l = 0; l < analysis.num_levels; ++l) {
      const std::uint64_t lvl_t0 =
          lead_trace ? support::trace::trace_now_ns() : 0;
      const offset_t begin = analysis.level_ptr[static_cast<std::size_t>(l)];
      const offset_t end = analysis.level_ptr[static_cast<std::size_t>(l) + 1];
      for (offset_t p = begin + tid; p < end; p += threads) {
        // Every dependency sits in an earlier level, already final behind
        // the barrier; ONE barrier wave resolves the whole batch.
        solve_one(analysis.order[static_cast<std::size_t>(p)], acc);
      }
      if (tid == 0) {
        // Chaos seam: delay/pause here stretches the level without
        // touching the clock-driven budget logic under test.
        (void)MSPTRSV_FAILPOINT("kernel.level");
        if (cancel != nullptr && cancel->cancelled()) {
          abort.store(true, std::memory_order_relaxed);
        }
      }
      sync.arrive_and_wait();
      if (lead_trace) {
        support::trace::trace_emit_here(
            "kernel.level", lvl_t0, support::trace::trace_now_ns(), "level",
            static_cast<std::int64_t>(l), "rows",
            static_cast<std::int64_t>(end - begin));
      }
      if (abort.load(std::memory_order_relaxed)) return;
    }
  });
  return !abort.load(std::memory_order_relaxed);
}

template <typename SolveOne>
bool drive_taskgraph(const sparse::TaskGraph& graph, index_t num_rhs,
                     SolveWorkspace& ws, const CancelToken* cancel,
                     SolveOne&& solve_one) {
  const index_t num_tasks = graph.num_tasks;
  value_t* scratch = ws.gather_scratch(num_rhs);
  const std::size_t stride = ws.gather_stride();
  // Generation-tagged delivery counters, indexed by TASK id: each batch
  // delivers exactly in_degree[t] updates to task t (one per distinct
  // incoming cross-task edge, regardless of num_rhs), so in generation g
  // the ready target is g * in_degree[t] and the counters are never reset.
  std::atomic<std::uint64_t>* delivered = ws.delivered(num_tasks);
  const std::uint64_t generation = ws.begin_generation();

  // Ascending task claiming is deadlock-free: every edge goes from a lower
  // task id to a strictly higher one (tasks are numbered in level order),
  // so the smallest unsolved task is always claimed and its predecessors
  // done. It is also indifferent to the party count, so a shrunk
  // shared-pool gang just claims more tasks per thread.
  //
  // Cancellation is checked at TASK boundaries -- every claim, and on a
  // stride inside the delivery spin (a cancelled gang must not wait on
  // deliveries that will never arrive). Tasks are coarse by construction,
  // so a per-claim clock read is already amortized.
  std::atomic<bool> abort{false};
  std::atomic<index_t> next{0};
  ws.run_parallel([&](int tid, int /*threads*/) {
    value_t* acc = scratch + static_cast<std::size_t>(tid) * stride;
    // Leader-only, one span for the leader's whole claim loop (per-task
    // spans would be noise on fine DAGs). `claimed` counts the tasks THIS
    // thread solved.
    const bool lead_trace = tid == 0 && MSPTRSV_TRACE_ARMED();
    const std::uint64_t sweep_t0 =
        lead_trace ? support::trace::trace_now_ns() : 0;
    std::int64_t claimed = 0;
    const auto emit_sweep = [&] {
      if (lead_trace) {
        support::trace::trace_emit_here(
            "kernel.tasks", sweep_t0, support::trace::trace_now_ns(),
            "claimed", claimed, "tasks",
            static_cast<std::int64_t>(num_tasks));
      }
    };
    for (;;) {
      const index_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= num_tasks || abort.load(std::memory_order_relaxed)) {
        emit_sweep();
        return;
      }
      // Chaos seam, evaluated on EVERY real claim (not just tid 0): on a
      // sequential chain one warm worker can drain the whole solve before
      // another party ever claims, so gating on a tid would let a `pause`
      // arming miss the solve entirely.
      (void)MSPTRSV_FAILPOINT("kernel.task");
      if (cancel != nullptr && cancel->cancelled()) {
        abort.store(true, std::memory_order_relaxed);
        emit_sweep();
        return;
      }
      const std::uint64_t target =
          generation * static_cast<std::uint64_t>(
                           graph.in_degree[static_cast<std::size_t>(t)]);
      std::uint64_t spins = 0;
      while (delivered[static_cast<std::size_t>(t)].load(
                 std::memory_order_acquire) < target) {
        if (abort.load(std::memory_order_relaxed)) {
          emit_sweep();
          return;
        }
        if (cancel != nullptr && (++spins & 1023) == 0 &&
            cancel->cancelled()) {
          abort.store(true, std::memory_order_relaxed);
          emit_sweep();
          return;
        }
        std::this_thread::yield();
      }
      // The task body: rows in stored order (level order for chains --
      // which is exactly what satisfies intra-task dependencies -- and a
      // single level's independent rows for blocks).
      for (offset_t p = graph.task_ptr[static_cast<std::size_t>(t)];
           p < graph.task_ptr[static_cast<std::size_t>(t) + 1]; ++p) {
        solve_one(graph.task_rows[static_cast<std::size_t>(p)], acc);
      }
      ++claimed;
      // Delivery fan-out to successor tasks: one increment per distinct
      // cross-task edge per batch (the x stores above must be visible
      // first, hence release semantics).
      for (offset_t e = graph.succ_ptr[static_cast<std::size_t>(t)];
           e < graph.succ_ptr[static_cast<std::size_t>(t) + 1]; ++e) {
        delivered[static_cast<std::size_t>(
                      graph.succ[static_cast<std::size_t>(e)])]
            .fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });
  if (abort.load(std::memory_order_relaxed)) {
    // The generation's deliveries are torn; rewind the counters so the
    // next solve on this workspace computes targets from a clean slate.
    ws.reset_delivery();
    return false;
  }
  return true;
}

}  // namespace

bool solve_lower_taskgraph_fused(const sparse::TaskGraph& graph,
                                 const sparse::CsrMatrix& row_form,
                                 std::span<const value_t> b, index_t num_rhs,
                                 SolveWorkspace& ws, std::span<value_t> x,
                                 const CancelToken* cancel) {
  const index_t n = row_form.rows;
  const std::size_t un = static_cast<std::size_t>(n);
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(b.size() == un * static_cast<std::size_t>(num_rhs) &&
                      x.size() == b.size(),
                  "batch must be column-major n x num_rhs");
  MSPTRSV_REQUIRE(graph.n == n, "task graph belongs to a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  return drive_taskgraph(graph, num_rhs, ws, cancel,
                         [&](index_t i, value_t* acc) {
                           gather_and_solve(row_form, i, b, k, un, acc, x);
                         });
}

bool solve_lower_taskgraph_fused_interleaved(
    const sparse::TaskGraph& graph, const sparse::CsrMatrix& row_form,
    const value_t* b, index_t num_rhs, SolveWorkspace& ws, value_t* x,
    const CancelToken* cancel) {
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(graph.n == row_form.rows,
                  "task graph belongs to a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const AxpyFn axpy = axpy_kernel();
  return drive_taskgraph(
      graph, num_rhs, ws, cancel, [&](index_t i, value_t* acc) {
        gather_and_solve_interleaved(row_form, i, b, k, acc, x, axpy);
      });
}

bool solve_lower_levelset_fused(const sparse::CsrMatrix& row_form,
                                std::span<const value_t> b, index_t num_rhs,
                                const sparse::LevelAnalysis& analysis,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel) {
  const index_t n = row_form.rows;
  const std::size_t un = static_cast<std::size_t>(n);
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(b.size() == un * static_cast<std::size_t>(num_rhs) &&
                      x.size() == b.size(),
                  "batch must be column-major n x num_rhs");
  MSPTRSV_REQUIRE(analysis.n == n, "analysis belongs to a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  return drive_levelset(analysis, num_rhs, ws, cancel,
                        [&](index_t i, value_t* acc) {
                          gather_and_solve(row_form, i, b, k, un, acc, x);
                        });
}

bool solve_lower_levelset_fused_interleaved(
    const sparse::CsrMatrix& row_form, const value_t* b, index_t num_rhs,
    const sparse::LevelAnalysis& analysis, SolveWorkspace& ws, value_t* x,
    const CancelToken* cancel) {
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(analysis.n == row_form.rows,
                  "analysis belongs to a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const AxpyFn axpy = axpy_kernel();
  return drive_levelset(
      analysis, num_rhs, ws, cancel, [&](index_t i, value_t* acc) {
        gather_and_solve_interleaved(row_form, i, b, k, acc, x, axpy);
      });
}

}  // namespace msptrsv::core
