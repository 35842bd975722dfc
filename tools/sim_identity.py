#!/usr/bin/env python3
"""Check that two checkouts simulate the same fabric, field for field.

    python3 tools/sim_identity.py --parent ../other-checkout
    make sim-identity PARENT=../other-checkout

Builds fabbench/fabbench.exe in this checkout and in PARENT, runs every
workload of fabbench/spec.json on each input seed in both, and compares
every output field that fabbench/run.py treats as simulated (its
NOT_SIMULATED keys removed, by run.py's own `simulated`), digests and
`attempted`/`failed` included. Prints one line per workload and input
with both sides' attempted and failed counts, then every differing
field. Exit status 1 on any difference or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "fabbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ beside run.py

import run as fabbench  # noqa: E402  (needs the path above)

DEFAULT_INPUTS = "1000-1005,7000-7005"


def parse_inputs(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def build(checkout):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", checkout, "./fabbench/fabbench.exe"],
        cwd=checkout, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    exe = os.path.join(checkout, "_build", "default", "fabbench", "fabbench.exe")
    if r.returncode != 0 or not os.path.isfile(exe):
        raise fabbench.Failed("dune build failed in %s" % checkout)
    return exe


def run(checkout, exe, workload, seed):
    env = {k: v for k, v in os.environ.items() if k != "DUMBNET_ENGINE"}
    r = subprocess.run(
        [exe, workload, "--seed", str(seed)], cwd=checkout, env=env,
        capture_output=True, text=True, timeout=fabbench.REP_TIMEOUT_S,
    )
    if r.returncode != 0:
        raise fabbench.Failed("%s %s --seed %d exited %d: %s"
                              % (checkout, workload, seed, r.returncode, r.stderr.strip()))
    return json.loads(r.stdout)


def differences(a, b, path=""):
    """(dotted path, value in a, value in b) wherever two outputs differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            out += differences(a.get(k), b.get(k), "%s.%s" % (path, k) if path else k)
        return out
    return [] if a == b else [(path, a, b)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the other checkout's root")
    ap.add_argument("--inputs", default=DEFAULT_INPUTS, help="input seeds, e.g. 1000-1005,7000")
    ap.add_argument("--workload", action="append", help="one workload (repeatable); default all")
    args = ap.parse_args(argv)

    spec = fabbench.load_json(os.path.join(ROOT, "fabbench", "spec.json"))
    workloads = args.workload or list(spec["workloads"])
    parent = os.path.abspath(args.parent)
    sides = [("parent", parent, build(parent)), ("this", ROOT, build(ROOT))]
    differing = 0
    for workload in workloads:
        for seed in parse_inputs(args.inputs):
            outs = [run(checkout, exe, workload, seed) for _, checkout, exe in sides]
            diff = differences(*(fabbench.simulated(o) for o in outs))
            counts = "  ".join("%s attempted %s failed %s" % (name, o.get("attempted"), o.get("failed"))
                               for (name, _, _), o in zip(sides, outs))
            print("%-16s %5d  %s  %s" % (workload, seed, counts, "identical" if not diff else "DIFFERS"),
                  flush=True)
            for path, a, b in diff:
                print("    %s: %s vs %s" % (path, json.dumps(a)[:120], json.dumps(b)[:120]))
            differing += bool(diff)
    print("%d of %d runs differ" % (differing, len(workloads) * len(parse_inputs(args.inputs))))
    return 1 if differing else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (fabbench.Failed, subprocess.TimeoutExpired) as e:
        print("sim_identity: %s" % e, file=sys.stderr)
        sys.exit(1)
