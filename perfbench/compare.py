#!/usr/bin/env python3
"""Summarises one set of perfbench runs, or compares two.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

A run set is a directory (or a single file) of captured perfbench output:
the stdout of `perfbench/run.py`, or the per-run files it leaves under
.bench_build/perfbench/runs/. Each run contributes its record line and its
result line.

For each workload and end-to-end metric it prints each side's median and
quartiles (statistics.quantiles, n=4) and the spread (interquartile range
over median) against the metric's bound in BENCHMARK.json. Given two sets
it also prints the share of pairs each side wins (runs paired by seed, else
by order; ties count for neither) and whether the medians differ by more
than the first set's interquartile range.

It then checks what must repeat exactly: the sim.* figures across every
run, and each matrix's autotuner pick across every run, naming any flip;
and it lists each run's steal so an outlier can be explained.
Exits 1 if a sim.* figure differs between runs.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench_spec():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        return {m["name"]: m for m in spec.get("end_to_end", [])}
    except (OSError, ValueError):
        return {}


def parse_runs(path):
    """[(record, result)] from every file under `path`."""
    files = []
    if os.path.isdir(path):
        for dirpath, _, names in os.walk(path):
            files += [os.path.join(dirpath, n) for n in sorted(names)
                      if not n.endswith(".trace.json")]
    else:
        files = [path]
    runs = []
    for name in sorted(files):
        record = None
        with open(name, errors="replace") as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if "record" in obj:
                    record = obj["record"]
                elif "metrics" in obj and record is not None:
                    runs.append((record, obj))
                    record = None
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end_table(set_a, set_b, spec):
    by_workload = {}
    for side, runs in (("a", set_a), ("b", set_b)):
        for record, result in runs:
            if record["trace"]:
                continue
            w = by_workload.setdefault(record["workload"], {"a": [], "b": []})
            w[side].append((record["seed"], result["metrics"],
                            result["correct"]))
    for workload in sorted(by_workload):
        sides = by_workload[workload]
        print(f"\n== {workload}: {len(sides['a'])} run(s)"
              + (f" vs {len(sides['b'])}" if sides["b"] else ""))
        wrong = [s for s, _, ok in sides["a"] + sides["b"] if not ok]
        if wrong:
            print(f"   WRONG ANSWERS in runs with seeds {wrong}")
        metrics = sorted({m for _, ms, _ in sides["a"] for m in ms})
        for metric in metrics:
            info = spec.get(metric, {})
            lower_better = info.get("better", "lower") == "lower"
            bound = info.get("bound")
            a = [ms[metric]["value"] for _, ms, _ in sides["a"] if metric in ms]
            a1, a2, a3 = quartiles(a)
            spread = (a3 - a1) / a2 if a2 else float("inf")
            line = (f"   {metric:<16} A median {a2:12.6g} [{a1:.6g}, {a3:.6g}]"
                    f" spread {spread:6.3f}")
            if bound is not None:
                line += (f" (bound {bound}, "
                         f"{'ok' if spread <= bound / 3 else 'over a third'})")
            print(line)
            if not sides["b"]:
                continue
            b = [ms[metric]["value"] for _, ms, _ in sides["b"] if metric in ms]
            b1, b2, b3 = quartiles(b)
            pairs = pair_up(sides["a"], sides["b"], metric)
            a_wins = sum(1 for x, y in pairs
                         if (x < y if lower_better else x > y))
            b_wins = sum(1 for x, y in pairs
                         if (y < x if lower_better else y > x))
            n = max(1, len(pairs))
            differ = abs(b2 - a2) > (a3 - a1)
            change = (b2 - a2) / a2 if a2 else float("inf")
            worse = change > 0 if lower_better else change < 0
            verdict = ""
            if bound is not None:
                verdict = (" within bound" if not worse or abs(change) <= bound
                           else " WORSE than bound")
            b_spread = (b3 - b1) / b2 if b2 else float("inf")
            print(f"   {'':<16} B median {b2:12.6g} [{b1:.6g}, {b3:.6g}]"
                  f" spread {b_spread:6.3f}; change {change:+.3f}{verdict}")
            print(f"   {'':<16} pairs won A {a_wins / n:.2f} B {b_wins / n:.2f}"
                  f" ({len(pairs)} pairs); medians differ by more than A's"
                  f" IQR: {'yes' if differ else 'no'}")


def pair_up(a_runs, b_runs, metric):
    a_by_seed = {s: ms[metric]["value"] for s, ms, _ in a_runs if metric in ms}
    b_by_seed = {s: ms[metric]["value"] for s, ms, _ in b_runs if metric in ms}
    common = sorted(set(a_by_seed) & set(b_by_seed))
    if common:
        return [(a_by_seed[s], b_by_seed[s]) for s in common]
    a = [ms[metric]["value"] for _, ms, _ in a_runs if metric in ms]
    b = [ms[metric]["value"] for _, ms, _ in b_runs if metric in ms]
    return list(zip(a, b))


def exact_checks(runs):
    """sim.* figures and autotuner picks must agree across all runs."""
    ok = True
    sim = {}
    for record, result in runs:
        figures = {k: v for k, v in record.get("notes", {}).items()
                   if k.startswith("sim.")}
        if record["trace"]:
            figures.update({k: v["value"] for k, v in result["metrics"].items()
                            if k.startswith("sim.") and record["workload"]
                            == "paper-sim"})
        for k, v in figures.items():
            sim.setdefault(k, set()).add(v)
    moved = sorted(k for k, vals in sim.items() if len(vals) > 1)
    if sim:
        print(f"\nsim.* figures: {len(sim)} checked across runs, "
              f"{len(moved)} differ")
        for k in moved:
            print(f"   DIFFERS {k}: {sorted(sim[k])}")
            ok = False
        speed = sim.get("sim.speedup_zerocopy_vs_unified")
        if speed:
            print(f"   sim.speedup_zerocopy_vs_unified = {sorted(speed)}")

    picks = {}
    for record, _ in runs:
        for matrix, p in record.get("picks", {}).items():
            key = (f"{p['backend']}/gang{p['gang_width']}"
                   f"/narrow{p['narrow_width']}/tasks{p['tasks']}")
            picks.setdefault(matrix, {}).setdefault(key, []).append(
                f"{record['workload']}:s{record['seed']}")
        for flip in record.get("pick_flips", []):
            print(f"   PICK FLIP within run {record['workload']} "
                  f"seed {record['seed']}: {flip}")
    if picks:
        print("\nautotuner picks across runs:")
        for matrix in sorted(picks):
            variants = picks[matrix]
            if len(variants) == 1:
                print(f"   {matrix:<12} {next(iter(variants))} (all runs)")
            else:
                print(f"   {matrix:<12} FLIPPED:")
                for key, where in sorted(variants.items()):
                    print(f"      {key}: {', '.join(where)}")
    return ok


def steal_table(runs, label):
    print(f"\nsteal per run ({label}):")
    for record, _ in sorted(runs, key=lambda r: (r[0]["workload"],
                                                  r[0]["seed"])):
        env = record["env"]
        print(f"   {record['workload']:<10} seed {record['seed']:<6} "
              f"trace {record['trace']} steal {env['steal_pct']:5.1f}% "
              f"load {env['loadavg'][0]:.2f} nproc {env['nproc']} "
              f"{env['commit'][:16]}")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    set_a = parse_runs(sys.argv[1])
    set_b = parse_runs(sys.argv[2]) if len(sys.argv) == 3 else []
    if not set_a:
        print(f"no runs found in {sys.argv[1]}", file=sys.stderr)
        return 2
    end_to_end_table(set_a, set_b, load_bench_spec())
    ok = exact_checks(set_a + set_b)
    steal_table(set_a, "A")
    if set_b:
        steal_table(set_b, "B")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
