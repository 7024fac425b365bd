#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <tuple>

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include "core/plan_snapshot.hpp"
#include "core/residual.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"
#include "sparse/task_graph.hpp"

namespace perfbench {

std::string confine_to_cpus(int n) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0 || CPU_COUNT(&mask) < n) {
    return "";
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string used;
  int taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < n; --cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    CPU_SET(cpu, &chosen);
    used = std::to_string(cpu) + (used.empty() ? "" : "," + used);
    ++taken;
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "";
  return used;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

/// Aggregate "cpu" line of /proc/stat: (steal jiffies, all jiffies).
std::pair<std::uint64_t, std::uint64_t> read_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// "L1d 48K, L1i 32K, L2 2048K, L3 307200K" from cpu0's sysfs cache tree.
std::string cache_sizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first_line(dir + "level");
    if (level.empty()) break;
    const std::string type = read_first_line(dir + "type");
    std::string name = "L" + level;
    if (type == "Data") name += "d";
    if (type == "Instruction") name += "i";
    if (!out.empty()) out += ", ";
    out += name + " " + read_first_line(dir + "size");
  }
  return out.empty() ? "unknown" : out;
}

}  // namespace

StealSampler::StealSampler() {
  const auto [steal, total] = read_cpu_jiffies();
  steal_ = steal;
  total_ = total;
}

double StealSampler::stop() const {
  const auto [steal, total] = read_cpu_jiffies();
  const std::uint64_t dt = total - total_;
  return dt == 0 ? 0.0
                 : 100.0 * static_cast<double>(steal - steal_) /
                       static_cast<double>(dt);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-300));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---- TimedLoop --------------------------------------------------------------

TimedLoop::TimedLoop() : started_(Clock::now()) { resume(); }

void TimedLoop::resume() {
  if (running_) return;
  running_ = true;
  t0_ = Clock::now();
  cpu0_ = process_cpu_seconds();
}

void TimedLoop::pause() {
  if (!running_) return;
  running_ = false;
  wall_s_ += seconds_since(t0_);
  cpu_s_ += process_cpu_seconds() - cpu0_;
}

double TimedLoop::measured_wall_s() const {
  return wall_s_ + (running_ ? seconds_since(t0_) : 0.0);
}

double TimedLoop::measured_cpu_s() const {
  return cpu_s_ + (running_ ? process_cpu_seconds() - cpu0_ : 0.0);
}

void TimedLoop::add_rhs(std::uint64_t n) {
  rhs_ += n;
  if (measured_wall_s() - window_wall0_ >= kWindowSeconds) close_window();
}

void TimedLoop::close_window() {
  const double wall = measured_wall_s();
  const double cpu = measured_cpu_s();
  const std::uint64_t rhs = rhs_ - window_rhs0_;
  if (rhs == 0 || wall <= window_wall0_) return;
  windows_.push_back(Window{
      static_cast<double>(rhs) / (wall - window_wall0_),
      1e6 * (cpu - window_cpu0_) / static_cast<double>(rhs),
      window_steal_.stop()});
  window_wall0_ = wall;
  window_cpu0_ = cpu;
  window_rhs0_ = rhs_;
  window_steal_ = StealSampler();
}

bool TimedLoop::expired(double budget_s) const {
  return seconds_since(started_) >= budget_s;
}

void TimedLoop::finish() {
  pause();
  if (measured_wall_s() - window_wall0_ >= kWindowSeconds / 2) close_window();
  steal_pct_ = steal_.stop();
}

EndToEnd loop_figures(const TimedLoop& loop) {
  EndToEnd e;
  e.rhs_per_s = loop.rhs_per_s();
  e.loop_rhs_per_s = loop.rhs_per_s();
  e.cpu_us_per_rhs = loop.cpu_us_per_rhs();
  e.steal_pct = loop.steal_pct();
  e.windows = loop.windows();
  return e;
}

double TimedLoop::rhs_per_s() const {
  return wall_s_ > 0.0 ? static_cast<double>(rhs_) / wall_s_ : 0.0;
}

double TimedLoop::cpu_us_per_rhs() const {
  return rhs_ > 0 ? 1e6 * cpu_s_ / static_cast<double>(rhs_) : 0.0;
}

// ---- Pick / Tracer ----------------------------------------------------------

Pick pick_of(const msptrsv::core::SolverPlan& plan) {
  Pick p;
  p.backend = msptrsv::core::backend_name(plan.options().backend);
  p.gang_width = plan.options().cpu_threads;
  if (const msptrsv::core::TunedDecision* tuned = plan.tuned()) {
    p.narrow_width = tuned->coarsen.narrow_width;
  }
  if (const msptrsv::sparse::TaskGraph* graph = plan.task_graph()) {
    p.tasks = graph->num_tasks;
  }
  return p;
}

std::string Pick::str() const {
  return backend + "/gang" + std::to_string(gang_width) + "/narrow" +
         std::to_string(narrow_width) + "/tasks" + std::to_string(tasks);
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string tag)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.tag = std::move(tag);
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->open_.push_back(index_);
  s.t0 = Clock::now();
  tracer_->spans_.push_back(std::move(s));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].t1 = Clock::now();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::durations_us(const std::string& name,
                                         const std::string& tag) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.tag == tag) out.push_back(us_between(s.t0, s.t1));
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().t0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"tag\":%s,"
                 "\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", json_str(s.name).c_str(),
                 us_between(origin, s.t0), us_between(s.t0, s.t1),
                 json_str(s.tag).c_str(), i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---- Report -----------------------------------------------------------------

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = Layer{value, unit};
}

void Report::failed(const std::string& why) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
}

void Report::corrupt_if_armed(std::vector<value_t>& x) {
  if (!corrupt_armed_ || x.empty()) return;
  corrupt_armed_ = false;
  x[x.size() / 2] += 1.0;
}

bool Report::check_close(std::vector<value_t>& x, std::span<const value_t> want,
                         const std::string& what) {
  corrupt_if_armed(x);
  if (x.size() != want.size()) {
    failed(what + ": solution length " + std::to_string(x.size()) +
           " != " + std::to_string(want.size()));
    return false;
  }
  const double diff = msptrsv::core::max_relative_difference(x, want);
  if (!(diff < kSolutionTolerance)) {
    failed(what + ": max relative difference " + json_num(diff));
    return false;
  }
  return true;
}

bool Report::check_equal(std::vector<value_t>& x, std::span<const value_t> want,
                         const std::string& what) {
  corrupt_if_armed(x);
  if (x.size() != want.size() ||
      std::memcmp(x.data(), want.data(), x.size() * sizeof(value_t)) != 0) {
    failed(what + ": not bit-for-bit equal to the in-process plan");
    return false;
  }
  return true;
}

void Report::pick(const std::string& matrix, const Pick& p) {
  auto it = picks_.find(matrix);
  if (it == picks_.end()) {
    picks_.emplace(matrix, p);
  } else if (!(it->second == p)) {
    pick_flips_.push_back(matrix + ": " + it->second.str() + " -> " + p.str());
  }
}

void Report::note(const std::string& key, double value) {
  notes_[key] = value;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> catalogue = [] {
    std::vector<std::pair<std::string, std::string>> c;
    auto add = [&](const std::string& n, const char* unit) {
      c.emplace_back(n, unit);
    };
    add("sparse.analyze_levels_us", "us");
    add("sparse.coarsen_us", "us");
    for (const std::string& m : solve_panel_names()) {
      add("sparse.levels." + m, "count");
    }
    for (const std::string& m : solve_panel_names()) {
      add("sparse.tasks." + m, "count");
    }
    add("sparse.narrow_width", "count");
    for (const std::string& m : solve_panel_names()) {
      add("core.analyze_us." + m, "us");
    }
    for (const std::string& m : solve_panel_names()) {
      for (const char* k : {"k1", "k16"}) {
        add("core.solve_us." + m + "." + k, "us");
      }
    }
    for (const std::string& m : solve_panel_names()) {
      for (const char* k : {"k1", "k16"}) {
        add("core.speedup_vs_serial." + m + "." + k, "x");
      }
    }
    for (const char* phase : {"claim", "pack", "kernel", "unpack"}) {
      for (const std::string& m : solve_panel_names()) {
        add(std::string("core.") + phase + "_us." + m, "us");
      }
    }
    for (const std::string& m : solve_panel_names()) {
      add("core.gbps_computed." + m, "GB/s");
    }
    add("core.triad_gbps", "GB/s");
    for (const std::string& m : solve_panel_names()) {
      add("core.gang_width." + m, "count");
    }
    add("core.serialize_us", "us");
    add("core.deserialize_us", "us");
    add("core.blob_bytes", "bytes");
    add("core.first_solve_us", "us");
    add("core.steady_solve_us", "us");
    for (const char* d : {"zerocopy", "unified"}) {
      add(std::string("core.sim_solve_us.") + d, "us");
    }
    for (const char* phase : {"queue", "coalesce", "claim", "kernel"}) {
      add(std::string("service.") + phase + "_us", "us");
    }
    add("service.direct_p50_us", "us");
    add("service.rhs_per_dispatch", "rhs");
    add("service.packed_share", "share");
    add("service.shed", "count");
    add("service.rejected", "count");
    add("service.failed", "count");
    add("net.wire_us", "us");
    add("net.reply_us", "us");
    add("net.frames", "count");
    add("net.protocol_errors", "count");
    add("net.retries", "count");
    for (const char* d : {"zerocopy", "unified"}) {
      for (const std::string& m : msptrsv::sparse::fig10_matrix_names()) {
        add(std::string("sim.simulated_us.") + d + "." + m, "us");
      }
    }
    for (const char* d : {"zerocopy", "unified"}) {
      for (const std::string& m : msptrsv::sparse::fig10_matrix_names()) {
        add(std::string("sim.link_messages.") + d + "." + m, "count");
      }
    }
    add("sim.speedup_zerocopy_vs_unified", "x");
    for (const char* e : {"rhs_per_s", "latency_p50_us", "cpu_us_per_rhs"}) {
      add(std::string("trace.overhead.") + e, "share");
    }
    return c;
  }();
  return catalogue;
}

const std::vector<std::string>& solve_panel_names() {
  static const std::vector<std::string> names = {
      "layered40k", "grid2d", "grid3d", "chainheavy", "powersim"};
  return names;
}

void Report::trace_overhead(const EndToEnd& untraced, const EndToEnd& traced) {
  auto share = [](double t, double u) { return u > 0.0 ? (t - u) / u : 0.0; };
  layer("trace.overhead.rhs_per_s", share(traced.rhs_per_s, untraced.rhs_per_s),
        "share");
  layer("trace.overhead.latency_p50_us",
        share(traced.latency_p50_us, untraced.latency_p50_us), "share");
  layer("trace.overhead.cpu_us_per_rhs",
        share(traced.cpu_us_per_rhs, untraced.cpu_us_per_rhs), "share");
}

int Report::finish(const Tracer& tracer) {
  // Metrics of this run: end-to-end when untraced, per-layer when traced.
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (args_.trace) {
    for (const auto& [name, unit] : per_layer_catalogue()) {
      auto it = layers_.find(name);
      metrics.emplace_back(name, it == layers_.end() ? 0.0 : it->second.value,
                           unit);
    }
  } else {
    metrics.emplace_back("setup_s", e2e_.setup_s, "s");
    metrics.emplace_back("rhs_per_s", e2e_.rhs_per_s, "rhs/s");
    metrics.emplace_back("latency_p50_us", e2e_.latency_p50_us, "us");
    metrics.emplace_back("cpu_us_per_rhs", e2e_.cpu_us_per_rhs, "us");
  }
  for (const auto& [name, value, unit] : metrics) {
    if (!std::isfinite(value)) failed("metric " + name + " is not finite");
    if (!args_.trace && !(value > 0.0)) {
      failed("end-to-end metric " + name + " is not positive");
    }
  }

  // Human-readable summary.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0);
  std::printf("  %-44s %16s\n", "end-to-end (untraced)", "");
  std::printf("    %-42s %16.3f s\n", "setup_s", e2e_.setup_s);
  std::printf("    %-42s %16.1f rhs/s\n", "rhs_per_s", e2e_.rhs_per_s);
  std::printf("    %-42s %16.1f us\n", "latency_p50_us", e2e_.latency_p50_us);
  std::printf("    %-42s %16.1f us\n", "cpu_us_per_rhs", e2e_.cpu_us_per_rhs);
  std::printf("    %-42s %16.1f us  (n=%llu, reported only)\n",
              "latency_p99_us", e2e_.latency_p99_us,
              static_cast<unsigned long long>(e2e_.p99_samples));
  std::printf("    %-42s %16.1f %%  (cpus %s)\n", "steal over timed loop",
              e2e_.steal_pct, args_.cpus.c_str());
  if (args_.trace) {
    std::printf("  per-layer (traced)\n");
    for (const auto& [name, value, unit] : metrics) {
      std::printf("    %-42s %16.4g %s\n", name.c_str(), value, unit.c_str());
    }
  }
  for (const auto& [m, p] : picks_) {
    std::printf("  pick %-38s %s\n", m.c_str(), p.str().c_str());
  }
  for (const std::string& f : pick_flips_) {
    std::printf("  PICK FLIP within run: %s\n", f.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("  FAILED: %s\n", f.c_str());
  }

  // Run record: everything needed to explain an outlier run on its own.
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::ostringstream rec;
  rec << "{\"record\":{\"workload\":" << json_str(args_.workload)
      << ",\"seed\":" << args_.seed
      << ",\"seconds\":" << json_num(args_.seconds)
      << ",\"trace\":" << (args_.trace ? 1 : 0)
      << ",\"env\":{\"steal_pct\":" << json_num(e2e_.steal_pct)
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpus\":" << json_str(args_.cpus)
      << ",\"loadavg\":[" << json_num(load[0]) << "," << json_num(load[1])
      << "," << json_num(load[2]) << "]"
      << ",\"cpu_model\":" << json_str(cpu_model())
      << ",\"caches\":" << json_str(cache_sizes())
      << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
      << ",\"commit\":" << json_str(args_.commit) << "}"
      << ",\"end_to_end\":{\"setup_s\":" << json_num(e2e_.setup_s)
      << ",\"rhs_per_s\":" << json_num(e2e_.rhs_per_s)
      << ",\"loop_rhs_per_s\":" << json_num(e2e_.loop_rhs_per_s)
      << ",\"latency_p50_us\":" << json_num(e2e_.latency_p50_us)
      << ",\"cpu_us_per_rhs\":" << json_num(e2e_.cpu_us_per_rhs)
      << ",\"latency_p99_us\":" << json_num(e2e_.latency_p99_us)
      << ",\"latency_p99_samples\":" << e2e_.p99_samples
      << ",\"windows\":[";
  for (std::size_t i = 0; i < e2e_.windows.size(); ++i) {
    const auto& w = e2e_.windows[i];
    rec << (i ? "," : "") << "[" << json_num(w.rhs_per_s) << ","
        << json_num(w.cpu_us_per_rhs) << "," << json_num(w.steal_pct) << "]";
  }
  rec << "]}"
      << ",\"picks\":{";
  bool first = true;
  for (const auto& [m, p] : picks_) {
    rec << (first ? "" : ",") << json_str(m) << ":{\"backend\":"
        << json_str(p.backend) << ",\"gang_width\":" << p.gang_width
        << ",\"narrow_width\":" << p.narrow_width << ",\"tasks\":" << p.tasks
        << "}";
    first = false;
  }
  rec << "},\"pick_flips\":[";
  for (std::size_t i = 0; i < pick_flips_.size(); ++i) {
    rec << (i ? "," : "") << json_str(pick_flips_[i]);
  }
  rec << "],\"notes\":{";
  first = true;
  for (const auto& [k, v] : notes_) {
    rec << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
    first = false;
  }
  rec << "},\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    rec << (i ? "," : "") << json_str(failures_[i]);
  }
  rec << "],\"spans\":" << tracer.size() << "}}";

  std::ostringstream result;
  result << "{\"correct\":" << (correct() ? "true" : "false")
         << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
         << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    result << (i ? "," : "") << json_str(name) << ":{\"value\":"
           << json_num(value) << ",\"unit\":" << json_str(unit) << "}";
  }
  result << "}}";

  if (!args_.out_dir.empty()) {
    const std::string stem = args_.out_dir + "/" + args_.workload + "-s" +
                             std::to_string(args_.seed) + "-t" +
                             (args_.trace ? "1" : "0");
    std::ofstream out(stem + ".json");
    out << rec.str() << "\n" << result.str() << "\n";
    if (tracer.on()) tracer.write_chrome_json(stem + ".trace.json");
  }
  std::printf("%s\n%s\n", rec.str().c_str(), result.str().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// ---- inputs -----------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Manufactured manufacture(const msptrsv::sparse::CscMatrix& lower,
                         index_t num_rhs, std::uint64_t seed) {
  Manufactured m;
  const std::size_t n = static_cast<std::size_t>(lower.rows);
  m.x.reserve(n * static_cast<std::size_t>(num_rhs));
  m.b.reserve(n * static_cast<std::size_t>(num_rhs));
  for (index_t j = 0; j < num_rhs; ++j) {
    std::vector<value_t> xj =
        msptrsv::sparse::gen_solution(lower.rows, mix_seed(seed, j));
    std::vector<value_t> bj = msptrsv::sparse::gen_rhs_for_solution(lower, xj);
    m.x.insert(m.x.end(), xj.begin(), xj.end());
    m.b.insert(m.b.end(), bj.begin(), bj.end());
  }
  return m;
}

}  // namespace perfbench
