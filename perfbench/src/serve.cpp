// Workload `serve`: one client connection to an in-process SolveServer on
// loopback, 8 single-RHS requests in flight, round-robin over 4 small
// tenant factors opened over the wire with "auto".
//
// Queueing, coalescing, dispatch, frame encode/decode and the socket hops
// dominate; kernel work per request is small. The tenants sit at or below
// the service's pack_small_rows so cross-plan packing can engage, and each
// tenant always has 2 requests in flight so coalescing can engage.
#include <deque>
#include <future>
#include <memory>

#include "core/plan.hpp"
#include "core/registry.hpp"
#include "core/worker_pool.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/solve_service.hpp"
#include "sparse/generators.hpp"

namespace perfbench {
namespace {

namespace core = msptrsv::core;
namespace net = msptrsv::net;
namespace service = msptrsv::service;
namespace sparse = msptrsv::sparse;

constexpr int kPoolThreads = 2;
constexpr int kTenants = 4;
constexpr int kInFlight = 8;
/// Distinct right-hand sides per tenant the request stream cycles through.
constexpr index_t kRhsPerTenant = 8;

struct Tenant {
  std::string name;
  sparse::CscMatrix lower;
  Manufactured in;
  /// In-process plan.solve answers: wire replies must match them bit for bit.
  std::vector<std::vector<value_t>> expected;
};

std::span<const value_t> column(const std::vector<value_t>& v, index_t n,
                                index_t j) {
  return std::span<const value_t>(v).subspan(
      static_cast<std::size_t>(j) * static_cast<std::size_t>(n),
      static_cast<std::size_t>(n));
}

/// A server with one connected client and the tenants opened on it.
struct Endpoint {
  Endpoint() = default;
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  std::unique_ptr<net::SolveServer> server;
  std::unique_ptr<net::SolveClient> client;
  std::vector<net::PlanHandle> handles;

  ~Endpoint() {
    client.reset();
    if (server) server->stop();
  }
};

/// Server start, connect, and the tenant opens: the serve set-up.
bool open_endpoint(Report& report, Tracer& tracer,
                   const std::vector<Tenant>& tenants, Endpoint& ep) {
  auto span = tracer.span("net.setup");
  ep.server = std::make_unique<net::SolveServer>(net::ServerOptions{});
  report.attempted();
  if (auto up = ep.server->start(); !up.ok()) {
    report.failed("server start: " + up.message());
    return false;
  }
  net::ClientOptions copt;
  copt.port = ep.server->port();
  ep.client = std::make_unique<net::SolveClient>(copt);
  report.attempted();
  if (auto up = ep.client->connect(); !up.ok()) {
    report.failed("client connect: " + up.message());
    return false;
  }
  for (const Tenant& t : tenants) {
    report.attempted();
    auto h = [&] {
      auto open_span = tracer.span("net.open", t.name);
      return ep.client->open(t.lower, "auto");
    }();
    if (!h.ok()) {
      report.failed(t.name + ": open: " + h.message());
      return false;
    }
    ep.handles.push_back(h.value());
  }
  return true;
}

/// The closed loop: kInFlight requests outstanding, round-robin over the
/// tenants, the next request sent as soon as the oldest reply is in.
/// Replies arrive in FIFO order on one connection, so waiting on the
/// oldest times every request from send to reply.
template <typename Submit>
EndToEnd closed_loop(Report& report, Tracer& tracer,
                     const std::vector<Tenant>& tenants, double budget_s,
                     const char* wait_span, Submit submit) {
  using Reply = decltype(submit(0, std::span<const value_t>{}));
  struct InFlight {
    Reply reply;
    Clock::time_point sent;
    int tenant;
    index_t col;
  };
  std::deque<InFlight> window;
  std::uint64_t sent = 0;
  auto send = [&] {
    const int t = static_cast<int>(sent % kTenants);
    const index_t col = static_cast<index_t>((sent / kTenants) % kRhsPerTenant);
    ++sent;
    const Tenant& tn = tenants[static_cast<std::size_t>(t)];
    const Clock::time_point t0 = Clock::now();
    window.push_back(
        InFlight{submit(t, column(tn.in.b, tn.lower.rows, col)), t0, t, col});
  };

  std::vector<double> latency;
  report.arm_corruption();
  TimedLoop loop;
  for (int i = 0; i < kInFlight; ++i) send();
  while (!window.empty()) {
    InFlight f = std::move(window.front());
    window.pop_front();
    auto r = [&] {
      auto span = tracer.span(wait_span);
      return f.reply.get();
    }();
    const double us = us_between(f.sent, Clock::now());
    report.attempted();
    const Tenant& tn = tenants[static_cast<std::size_t>(f.tenant)];
    if (!r.ok()) {
      report.failed(tn.name + ": " + r.message());
    } else if (report.check_equal(r.value(),
                                  tn.expected[static_cast<std::size_t>(f.col)],
                                  tn.name + " reply")) {
      latency.push_back(us);
      loop.add_rhs(1);
    }
    if (!loop.expired(budget_s)) send();
  }
  loop.finish();

  EndToEnd e = loop_figures(loop);
  e.latency_p50_us = median(latency);
  e.latency_p99_us = quantile(latency, 0.99);
  e.p99_samples = latency.size();
  return e;
}

EndToEnd wire_loop(Report& report, Tracer& tracer, Endpoint& ep,
                   const std::vector<Tenant>& tenants, double budget_s) {
  return closed_loop(report, tracer, tenants, budget_s, "net.reply_wait",
                     [&](int t, std::span<const value_t> b) {
                       auto span = tracer.span("net.submit");
                       return ep.client->submit_batch(
                           ep.handles[static_cast<std::size_t>(t)], b, 1);
                     });
}

double phase_p50(const net::WireStats& ws, std::size_t phase) {
  return ws.phases[phase].quantile(0.5);
}

}  // namespace

void run_serve(Report& report, Tracer& tracer) {
  const Args& args = report.args();
  core::SharedWorkerPool::configure_instance_threads(kPoolThreads);

  std::vector<Tenant> tenants(kTenants);
  const core::SolveOptions in_process =
      core::registry::service_options("auto").value();
  for (int t = 0; t < kTenants; ++t) {
    Tenant& tn = tenants[static_cast<std::size_t>(t)];
    const index_t n = args.tiny ? 300 + 25 * t : 3000 + 250 * t;
    tn.name = "tenant" + std::to_string(t);
    tn.lower = sparse::gen_layered_dag(
        n, 24, 6 * static_cast<msptrsv::offset_t>(n), 0.5,
        args.seed + static_cast<std::uint64_t>(t));
    tn.in = manufacture(tn.lower, kRhsPerTenant, mix_seed(args.seed, 300 + t));
    auto plan = core::SolverPlan::analyze(tn.lower, in_process);
    report.attempted();
    if (!plan.ok()) {
      report.failed(tn.name + ": analyze: " + plan.message());
      return;
    }
    report.pick(tn.name, pick_of(plan.value()));
    for (index_t j = 0; j < kRhsPerTenant; ++j) {
      auto r = plan->solve(column(tn.in.b, n, j));
      report.attempted();
      if (!r.ok()) {
        report.failed(tn.name + ": in-process solve: " + r.message());
        return;
      }
      report.check_close(r.value().x, column(tn.in.x, n, j), tn.name);
      tn.expected.push_back(std::move(r.value().x));
    }
    report.note("rows." + tn.name, static_cast<double>(n));
  }

  // Set-up, repeated: server start + connect + four opens. The median is
  // setup_s; the last endpoint serves the loop.
  const int reps = args.tiny ? 2 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Endpoint> ep;
  for (int rep = 0; rep < reps; ++rep) {
    ep.reset();
    auto fresh = std::make_unique<Endpoint>();
    const Clock::time_point t0 = Clock::now();
    if (!open_endpoint(report, tracer, tenants, *fresh)) return;
    setup_s.push_back(seconds_since(t0));
    ep = std::move(fresh);
  }

  Tracer off(false);
  const double untraced_s = tracer.on() ? args.seconds * 0.5 : args.seconds;
  EndToEnd e2e = wire_loop(report, off, *ep, tenants, untraced_s);
  e2e.setup_s = median(setup_s);
  report.set_end_to_end(e2e);
  const service::ServiceStatsSnapshot loop_stats =
      ep->server->service().stats();
  report.note("rhs_per_dispatch", loop_stats.mean_coalesce_width);
  report.note("packed_dispatches",
              static_cast<double>(loop_stats.packed_dispatches));
  if (!tracer.on()) return;

  // Traced: a fresh endpoint, so the server's histograms cover only the
  // traced loop; then the same stream straight into a SolveService.
  ep.reset();
  Endpoint traced_ep;
  if (!open_endpoint(report, tracer, tenants, traced_ep)) return;
  EndToEnd traced =
      wire_loop(report, tracer, traced_ep, tenants, args.seconds * 0.3);
  traced.setup_s = e2e.setup_s;
  report.trace_overhead(e2e, traced);

  const net::WireStats ws = traced_ep.server->wire_stats();
  const service::ServiceStatsSnapshot ss = traced_ep.server->service().stats();
  report.layer("service.queue_us", phase_p50(ws, 0), "us");
  report.layer("service.coalesce_us", phase_p50(ws, 1), "us");
  report.layer("service.claim_us", phase_p50(ws, 2), "us");
  report.layer("service.kernel_us", phase_p50(ws, 4), "us");
  report.layer("service.rhs_per_dispatch", ss.mean_coalesce_width, "rhs");
  report.layer("service.packed_share",
               ss.batches > 0 ? static_cast<double>(ss.packed_plans) /
                                    static_cast<double>(ss.batches)
                              : 0.0,
               "share");
  report.layer("service.shed", static_cast<double>(ws.shed), "count");
  report.layer("service.rejected", static_cast<double>(ws.rejected), "count");
  report.layer("service.failed", static_cast<double>(ws.failed), "count");
  report.layer("net.reply_us", phase_p50(ws, 6), "us");
  report.layer("net.frames", static_cast<double>(ws.frames_received), "count");
  report.layer("net.protocol_errors", static_cast<double>(ws.protocol_errors),
               "count");
  report.layer("net.retries",
               static_cast<double>(traced_ep.client->metrics_local().retries),
               "count");

  service::SolveService svc;
  std::vector<core::SolverPlan> plans;
  for (const Tenant& tn : tenants) {
    auto plan = svc.plan_for(tn.lower, "auto");
    report.attempted();
    if (!plan.ok()) {
      report.failed(tn.name + ": plan_for: " + plan.message());
      return;
    }
    plans.push_back(std::move(plan.value()));
  }
  using Direct = core::Expected<std::vector<value_t>>;
  const EndToEnd direct = closed_loop(
      report, tracer, tenants, args.seconds * 0.2, "service.reply_wait",
      [&](int t, std::span<const value_t> b) {
        auto span = tracer.span("service.submit");
        std::future<service::SolveService::Reply> f = svc.submit(
            plans[static_cast<std::size_t>(t)],
            std::vector<value_t>(b.begin(), b.end()));
        return std::async(std::launch::deferred,
                          [](std::future<service::SolveService::Reply> g) {
                            service::SolveService::Reply r = g.get();
                            if (!r.ok()) return Direct(r.error());
                            return Direct(std::move(r.value().x));
                          },
                          std::move(f));
      });
  report.layer("service.direct_p50_us", direct.latency_p50_us, "us");
  report.layer("net.wire_us", traced.latency_p50_us - direct.latency_p50_us,
               "us");
}

}  // namespace perfbench
