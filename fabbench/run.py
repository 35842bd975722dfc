#!/usr/bin/env python3
"""Fabric benchmark: traffic, failover and query-storm workloads on the
public DumbNet `Fabric` stack.

    python3 fabbench/run.py --workload traffic_ft8 --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds fabbench/fabbench.exe
with dune, then runs the workload as repetitions, each in a fresh
process, until --seconds are spent (and at least the workload's minimum
from spec.json). The first two repetitions run the same inputs and must
reproduce the same simulated outcomes and digests; the later ones run
fresh inputs derived from --seed. The metrics are medians over the
repetitions; the workload-specific simulated metrics are those of the
first inputs.

With --trace 0 the last output line carries the end-to-end metrics of
BENCHMARK.json. `--workload all` runs every workload in turn, each for
--seconds, each ending with its own result line. With --trace 1, traced repetitions (each call into a
layer timed, spans written to .fabbench/trace/) alternate with untraced
ones; the last line carries the per-layer metrics and the lines before
it the tracing overhead. Exit status 1 means a failed build, a wrong
answer or non-reproducible output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "fabbench", "fabbench.exe")
OUT = os.path.join(ROOT, ".fabbench")

# No repetition may run longer than this; a run's repetitions stop
# starting once this much wall time has passed.
REP_TIMEOUT_S = 120
RUN_CAP_S = 150

# Output keys that are wall time or runtime state rather than simulated
# outcomes; everything else must repeat exactly for one seed.
NOT_SIMULATED = {
    "setup_s", "wall_s", "calibration_s", "loop_s", "converge_ms", "restore_ms", "regen_ms", "push_ms", "regen_s",
    "push_s", "query_us", "send_us", "minor_words", "major_collections",
    "peak_rss_kib", "spans", "traced",
}


class Failed(Exception):
    """The benchmark cannot produce a trustworthy result."""


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise Failed("no dune-project at %s: not a checkout of the repository" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./fabbench/fabbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise Failed("dune build failed")


def run_rep(workload, seed, trace_file=None, run_id=0):
    cmd = [EXE, workload, "--seed", str(seed)]
    if trace_file:
        cmd += ["--trace", trace_file, "--run-id", str(run_id)]
    env = {k: v for k, v in os.environ.items() if k != "DUMBNET_ENGINE"}
    r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if r.returncode != 0:
        raise Failed("%s exited %d: %s" % (" ".join(cmd[1:]), r.returncode, r.stderr.strip()))
    return json.loads(r.stdout)


def simulated(rep):
    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items() if k not in NOT_SIMULATED}
        return o

    return strip(rep)


def input_seed(seed, i):
    """The input seed of repetition i. Repetitions 0 and 1 share one, so
    that every run checks that a seed reproduces exactly; later ones
    draw fresh inputs, so the medians average over inputs as well."""
    return seed * 1000 + max(i - 1, 0)


def check_reproducible(reps):
    """Repetitions with one input seed must agree on everything simulated."""
    first = {}
    for rep in reps:
        sim = simulated(rep)
        ref = first.setdefault(rep["seed"], sim)
        if sim != ref:
            diff = sorted(k for k in ref if sim.get(k) != ref[k])
            raise Failed("two repetitions of input seed %d differ in %s" % (rep["seed"], diff))
    if len(first) == len(reps):
        raise Failed("no input seed was repeated")


def repeat(workload, seed, seconds, min_reps, plan):
    """Run repetitions until the next one would overrun `seconds`. `plan`
    gives, for repetition i, whether it is traced."""
    start = time.monotonic()
    reps = []
    while True:
        t = time.monotonic()
        i = len(reps)
        trace_file = None
        if plan(i):
            trace_file = os.path.join(OUT, "trace", "%s-seed%d-run%d.jsonl" % (workload, seed, i))
        reps.append(run_rep(workload, input_seed(seed, i), trace_file, i))
        took = time.monotonic() - t
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and (elapsed + took > seconds or elapsed > RUN_CAP_S):
            return reps


def median_of(reps, f):
    return statistics.median([f(r) for r in reps])


def scale(rep, ref_s):
    """Factors that bring a repetition's wall times to the reference
    machine speed: (for the setup, for the phases after it). The
    calibration kernel ran right before the setup and after the phases;
    a kernel slower than `ref_s` means a slow machine, and the wall time
    shrinks by the same ratio. With `ref_s` None, times stay raw."""
    if ref_s is None:
        return 1.0, 1.0
    before, after = rep["calibration_s"]
    return ref_s / before, 2 * ref_s / (before + after)


def end_to_end(reps, ref_s):
    def setup_s(r):
        return r["setup_s"] * scale(r, ref_s)[0]

    def per_s(count, wall_s):
        return lambda r: count(r) / (wall_s(r) * scale(r, ref_s)[1])

    return {
        "setup_s": median_of(reps, setup_s),
        "peak_rss_mib": median_of(reps, lambda r: r["peak_rss_kib"] / 1024.0),
        "hops_per_s": median_of(
            reps, per_s(lambda r: r["measured"]["hops"], lambda r: r["measured"]["wall_s"])
        ),
        "queries_per_s": median_of(
            reps, per_s(lambda r: r["queries"]["answered"], lambda r: r["queries"]["wall_s"])
        ),
    }


def tail_of(values, pct):
    """(value, percentile) at the spec's percentile, or at the highest
    one the sample supports, or (None, None)."""
    for p in [pct] + [q for q in (90, 75, 50) if q < pct]:
        if report.supports_tail(len(values), p):
            return report.tail(values, p), p
    return None, None


def workload_metrics(workload, reps, spec):
    """The workload-specific metrics: (name, value or None, unit, note)."""
    wm = spec["workload_metrics"]
    ref_s = spec["calibration"]["reference_s"]
    r0, ph = reps[0], reps[0]["phase"]
    rows = [("failed_frac", report.failed_frac(r0["attempted"], r0["failed"]), "ratio",
             "%d of %d" % (r0["failed"], r0["attempted"]))]

    def pair(prefix, values, scale, unit, pooled=""):
        if not values:
            rows.append((prefix + "_p50", None, unit, "no samples"))
            return
        vals = [v * scale for v in values]
        rows.append((prefix + "_p50", report.percentile(vals, 50), unit, "n=%d%s" % (len(vals), pooled)))
        name = prefix + "_tail"
        if name in wm:
            v, p = tail_of(vals, wm[name]["percentile"])
            rows.append((name, v, unit, "p%g of n=%d%s" % (p, len(vals), pooled) if p else "too few samples"))

    if workload == "traffic_ft8":
        pair("fct_sim_ms", ph["fct_ns"], 1e-6, "sim_ms")
    if workload == "failover_ft8":
        pair("converge_ms", [v * scale(r, ref_s)[1] for r in reps for v in r["phase"]["converge_ms"]],
             1.0, "ms", ", pooled over %d repetitions" % len(reps))
        pair("notify_sim_ms", ph["notify_ns"], 1e-6, "sim_ms")
        vals = [v * 1e-6 for v in ph["patch_ns"]]
        v, p = tail_of(vals, wm["patch_sim_ms_tail"]["percentile"]) if vals else (None, None)
        rows.append(("patch_sim_ms_tail", v, "sim_ms", "p%g of n=%d" % (p, len(vals)) if p else "no samples"))
    return rows


def per_layer(rep):
    sp, q, ph = rep["spans"], rep["queries"], rep["phase"]
    qc, mc = q["counters"], rep["measured"]["counters"]
    issued = max(q["issued"], 1)
    hops = max(mc["hops"], 1)
    events = max(mc["events"], 1)
    failures = ph.get("failures", 0)
    fc = ph.get("converge_counters", mc)
    per_failure = (lambda x: x / failures) if failures else (lambda x: 0.0)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    regen, push = mean(ph.get("regen_ms", [])), mean(ph.get("push_ms", []))
    sends = ph.get("sends", 0)
    return {
        "control.discovery.s": sp["discovery_s"],
        "control.discovery.probes": rep["setup"]["probes"],
        "host.controller.create_s": sp["controller_create_s"],
        "host.controller.bootstrap_push_s": sp["bootstrap_push_s"],
        "host.controller.bootstrap_pairs": rep["setup"]["bootstrap_pairs"],
        "sim.engine.bootstrap_drain_s": sp["bootstrap_drain_s"],
        "sim.engine.bootstrap_events": rep["setup"]["bootstrap_events"],
        "host.agent.query_us": q["query_us"],
        "sim.engine.query_drain_s": sp["query_drain_s"],
        "sim.engine.events_per_query": qc["events"] / issued,
        "control.topo_store.dist_miss_per_query": qc["dist_misses"] / issued,
        "host.controller.serve_us": sp["serve_us"],
        "host.agent.learn_us": sp["learn_us"],
        "sim.engine.drain_s": sp["drain_s"],
        "sim.engine.events": mc["events"],
        "sim.engine.ns_per_event": sp["drain_s"] * 1e9 / events,
        "sim.engine.events_per_hop": mc["events"] / hops,
        "switch.dataplane.hops": mc["hops"],
        "switch.dataplane.drops": mc["dataplane_drops"],
        "sim.network.queue_drops": mc["queue_drops"],
        "host.agent.send_us": ph.get("send_us", 0.0),
        "host.agent.sends": sends,
        "host.agent.miss_frac": ph["send_misses"] / sends if sends else 0.0,
        "gc.minor_words_per_hop": mc["minor_words"] / hops,
        "gc.major_collections": mc["major_collections"],
        "host.controller.regen_ms": regen,
        "host.controller.push_ms": push,
        "host.controller.repushed_per_failure": per_failure(fc["repushed"]),
        "control.topo_store.evicted_per_failure": per_failure(fc["evicted"]),
        "control.topo_store.retained_per_failure": per_failure(fc["retained"]),
        "switch.monitor.alarms_per_failure": per_failure(fc["alarms"]),
        "switch.monitor.suppressed_per_failure": per_failure(fc["suppressed"]),
        "host.agent.floods_per_failure": per_failure(fc["floods"]),
        "sim.engine.events_per_failure": per_failure(fc["events"]),
        "switch.dataplane.hops_per_failure": per_failure(fc["hops"]),
        "sim.network.host_tx_per_failure": per_failure(fc["host_tx"]),
        "sim.flood_ms": mean(ph["converge_ms"]) - regen - push if failures else 0.0,
        "bench.unattributed_ms": (sp["phase_s"] - sp["covered_s"]) * 1e3,
        "bench.span_coverage": sp["covered_s"] / sp["phase_s"],
    }


def fmt(v):
    return "n/a" if v is None else "%.6g" % v


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print("  %-40s %14s  %-10s %s" % (name, fmt(value), unit, note))


def run_workload(bench, spec, workload, args):
    """Run one workload and print its table and result line; returns
    whether its outputs were correct."""
    wspec = spec["workloads"][workload]
    if not args.trace:
        reps = repeat(workload, args.seed, args.seconds, wspec["min_reps"], lambda i: False)
        traced = []
    else:
        # Untraced and traced repetitions alternate, at least one of each.
        reps = repeat(workload, args.seed, args.seconds, 2, lambda i: i % 2 == 1)
        traced = [r for r in reps if r["traced"]]
        reps = [r for r in reps if not r["traced"]]
    check_reproducible(reps + traced)

    ref_s = spec["calibration"]["reference_s"]
    e2e, raw = end_to_end(reps, ref_s), end_to_end(reps, None)
    print("fabbench %s seed=%d: %s; %d untraced and %d traced repetitions"
          % (workload, args.seed, wspec["topology"], len(reps), len(traced)))
    rows = [(m["name"], e2e[m["name"]], m["unit"],
             "unscaled %s" % fmt(raw[m["name"]]) if raw[m["name"]] != e2e[m["name"]] else "")
            for m in bench["end_to_end"]]
    rows += workload_metrics(workload, reps, spec)
    print_table("end-to-end metrics:", rows)

    correct = True
    summary = {"workload": workload, "seed": args.seed, "end_to_end": e2e,
               "workload_metrics": {n: v for n, v, _, _ in rows}}
    if traced:
        layers = {k: statistics.median([per_layer(r)[k] for r in traced]) for k in per_layer(traced[0])}
        targets = spec["per_layer_targets"]

        def target(name):
            t = targets[name]
            return "-> %s on %s" % (", ".join(t["moves"]), ", ".join(t["on"])) if t["moves"] else ""

        print_table("per-layer metrics (traced, medians over repetitions):",
                    [(m["name"], layers[m["name"]], m["unit"], target(m["name"])) for m in bench["per_layer"]])
        t_e2e = end_to_end(traced, ref_s)
        print("tracing overhead (traced - untraced):")
        for m in bench["end_to_end"]:
            if m["name"] != "peak_rss_mib":
                d = t_e2e[m["name"]] - e2e[m["name"]]
                print("  %-40s %+14.6g  %-10s (%+.1f%%)" % (m["name"], d, m["unit"], 100.0 * d / e2e[m["name"]]))
        if workload == "failover_ft8":
            n = sum(len(r["phase"]["converge_ms"]) for r in traced)
            pooled = {k: sum(v for r in traced for v in r["phase"][k]) / n
                      for k in ("converge_ms", "regen_ms", "push_ms")}
            print("converge split, mean of %d traced failures: %.3f ms = regen %.3f + push %.3f + flood %.3f"
                  % (n, pooled["converge_ms"], pooled["regen_ms"], pooled["push_ms"],
                     pooled["converge_ms"] - pooled["regen_ms"] - pooled["push_ms"]))
        if layers["bench.span_coverage"] < 0.95:
            print("spans cover only %.1f%% of the measured phase" % (100 * layers["bench.span_coverage"]))
            correct = False
        summary["per_layer"] = layers
        values, declared = layers, bench["per_layer"]
    else:
        values, declared = e2e, bench["end_to_end"]

    with open(os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace)), "w") as f:
        json.dump(summary, f, indent=1)
    attempted = sum(r["attempted"] for r in reps + traced)
    failed = sum(r["failed"] for r in reps + traced)
    print(report.result_line(correct, attempted, failed, values, declared))
    return correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in spec["workloads"]:
            raise Failed("unknown workload %s; known: %s" % (name, ", ".join(spec["workloads"])))
    build()
    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
    results = [run_workload(bench, spec, name, args) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (Failed, subprocess.TimeoutExpired) as e:
        print("fabbench: %s" % e, file=sys.stderr)
        sys.exit(1)
