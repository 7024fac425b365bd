// perfbench: the end-to-end benchmark of the msptrsv library.
//
//   perfbench --workload solve|serve|churn|paper-sim --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--commit REV] [--tiny] [--corrupt]
//
// Prints a human-readable summary, a run-record JSON line (environment,
// steal, autotuner picks, tail latency) and, last, the result JSON line:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs carry the
// end-to-end metrics, traced runs the per-layer ones. Exits 1 on any wrong
// answer, 2 on bad arguments, 3 on an unexpected exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <malloc.h>

#include "harness.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload solve|serve|churn|paper-sim "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--commit REV] [--tiny] [--corrupt]\n");
}

bool parse(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--corrupt") {
      args.corrupt = true;
    } else if (a == "--workload") {
      if (!value(args.workload)) return false;
    } else if (a == "--out-dir") {
      if (!value(args.out_dir)) return false;
    } else if (a == "--commit") {
      if (!value(args.commit)) return false;
    } else if (a == "--seed") {
      if (!value(v)) return false;
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      if (!value(v)) return false;
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      if (!value(v) || (v != "0" && v != "1")) return false;
      args.trace = v == "1";
    } else {
      return false;
    }
  }
  return args.seconds > 0.0 &&
         (args.workload == "solve" || args.workload == "serve" ||
          args.workload == "churn" || args.workload == "paper-sim");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  // Each workload runs on a fixed number of CPUs: as many as its gang cap
  // (solve, churn), or one for the paths whose wall time is otherwise set
  // by hypervisor wake-up latency (serve: eight threads handing requests
  // across idle vCPUs) or that run on one thread anyway (paper-sim).
  const int cpus =
      (args.workload == "solve" || args.workload == "churn") ? 2 : 1;
  args.cpus = perfbench::confine_to_cpus(cpus);
  // glibc raises its mmap threshold when a large mmapped block is freed, so
  // whether a large buffer costs fresh page faults depends on which sizes
  // were freed before. That history flipped churn between two regimes 33%
  // apart. Fixed thresholds serve every large buffer from the reused heap,
  // as in a warmed-up process, in every run.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    perfbench::Report report(args);
    perfbench::Tracer tracer(args.trace);
    if (args.workload == "solve") perfbench::run_solve(report, tracer);
    if (args.workload == "serve") perfbench::run_serve(report, tracer);
    if (args.workload == "churn") perfbench::run_churn(report, tracer);
    if (args.workload == "paper-sim") perfbench::run_paper_sim(report, tracer);
    return report.finish(tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
