"""Self-tests of the fabric benchmark's accounting and output.

    python3 fabbench/test_report.py

They need no build: they check the pure helpers in report.py, the metric
assembly in run.py against synthetic repetitions, and BENCHMARK.json and
spec.json against each other."""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402
import run  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "spec.json")) as f:
    SPEC = json.load(f)

# A metric name starts with a letter or digit and holds letters, digits,
# `_`, `.` and `-`; a unit also allows `/` and `%`.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def check_result_line(line, declared):
    """Parse a result line and check it against the schema; returns the object."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or tuple(sorted(obj)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool) or obj[k] < 0:
            raise ValueError("%s must be a whole number" % k)
    if obj["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    want = {m["name"]: m["unit"] for m in declared}
    got = obj["metrics"]
    if not isinstance(got, dict) or sorted(got) != sorted(want):
        raise ValueError("metrics must be exactly %s" % sorted(want))
    for name, m in got.items():
        if sorted(m) != ["unit", "value"] or m["unit"] != want[name]:
            raise ValueError("metric %s must carry its value and unit %s" % (name, want[name]))
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError("metric %s value must be a number" % name)
    return obj



def synthetic_rep(workload, traced=True):
    """A repetition's output as fabbench.exe prints it, with made-up numbers."""
    counters = {
        "events": 1000, "hops": 500, "host_tx": 100, "host_rx": 100, "queue_drops": 0,
        "dataplane_drops": 3, "floods": 40, "alarms": 2, "suppressed": 0, "regen_s": 0.002,
        "push_s": 0.001, "repushed": 30, "evicted": 8, "retained": 1, "dist_misses": 4,
        "dist_lookups": 90, "minor_words": 25000.0, "major_collections": 2,
    }
    phase = {}
    if workload == "traffic_ft8":
        phase = {"flows": 3, "incomplete": 0, "fct_ns": [1000, 2000, 3000], "sends": 10,
                 "send_misses": 1, "send_us": 1.5, "digest": "x"}
    if workload == "failover_ft8":
        phase = {"failures": 2, "failed": 0, "converge_ms": [150.0, 170.0], "regen_ms": [2.0, 1.0],
                 "push_ms": [0.5, 0.5], "restore_ms": [100.0, 110.0], "notify_ns": [558000] * 20, "patch_ns": [1900000] * 20,
                 "digest": "y"}
    rep = {
        "workload": workload, "seed": 1, "traced": traced, "setup_s": 0.1,
        "setup": {"probes": 1630, "bootstrap_pairs": 1382, "bootstrap_events": 13636, "bootstrap_sim_ns": 5},
        "queries": {"issued": 10, "answered": 10, "wall_s": 0.01, "digest": "q", "query_us": 1.0,
                    "counters": counters},
        "phase": phase,
        "measured": {"wall_s": 0.5, "hops": 500, "sim_ns": 9, "counters": counters},
        "attempted": 13, "failed": 0, "peak_rss_kib": 90000, "calibration_s": [0.2, 0.3],
    }
    if traced:
        rep["spans"] = {
            "discovery_s": 0.003, "controller_create_s": 1e-5, "bootstrap_push_s": 0.05,
            "bootstrap_drain_s": 0.05, "network_create_s": 3e-4, "topology_build_s": 1e-4,
            "query_drain_s": 0.1, "drain_s": 0.5, "phase_s": 0.5, "covered_s": 0.499,
            "serve_us": 50.0, "learn_us": 35.0, "replayed": 10,
        }
    return rep


class TailPercentile(unittest.TestCase):
    def test_refuses_unsupported(self):
        # 100 samples leave exactly 10 beyond p90 but only 1 beyond p99.
        values = list(range(100))
        self.assertEqual(report.tail(values, 90), 89)
        with self.assertRaises(ValueError):
            report.tail(values, 99)
        with self.assertRaises(ValueError):
            report.tail(list(range(19)), 50)

    def test_nearest_rank(self):
        self.assertEqual(report.percentile([5, 1, 3], 50), 3)
        self.assertEqual(report.percentile(list(range(1, 1001)), 99), 990)
        with self.assertRaises(ValueError):
            report.percentile([], 50)

    def test_declared_tails_fit_the_samples(self):
        # The fixed percentiles must be supported by the sample counts the
        # workloads guarantee: >= 1128 flows, 127 hosts x 8 failures,
        # 8 failures x the minimum repetitions.
        wm = SPEC["workload_metrics"]
        self.assertTrue(report.supports_tail(1128, wm["fct_sim_ms_tail"]["percentile"]))
        self.assertTrue(report.supports_tail(127 * 8, wm["notify_sim_ms_tail"]["percentile"]))
        self.assertTrue(report.supports_tail(127 * 8, wm["patch_sim_ms_tail"]["percentile"]))
        min_reps = SPEC["workloads"]["failover_ft8"]["min_reps"]
        self.assertTrue(report.supports_tail(8 * min_reps, wm["converge_ms_tail"]["percentile"]))


class FailedFrac(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(report.failed_frac(2192, 0), 0.0)
        self.assertEqual(report.failed_frac(4, 1), 0.25)
        self.assertEqual(report.failed_frac(0, 0), 1.0)
        for bad in ((3, 4), (-1, 0), (5, -1)):
            with self.assertRaises(ValueError):
                report.failed_frac(*bad)

    def test_run_counts_every_repetition(self):
        reps = [synthetic_rep("failover_ft8", traced=False) for _ in range(3)]
        reps[1]["failed"] = 2
        rows = {name: value for name, value, _, _ in run.workload_metrics("failover_ft8", reps, SPEC)}
        # The per-seed figure comes from the first repetition; the result
        # line sums all of them.
        self.assertEqual(rows["failed_frac"], 0.0)
        self.assertEqual(sum(r["failed"] for r in reps), 2)


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "sim.engine.ns_per_event", "gc.minor_words_per_hop", "9lives", "a-b"):
            self.assertTrue(valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "slash/y", "x" * 65, "ünï", None):
            self.assertFalse(valid_name(bad), bad)

    def test_declared_names(self):
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        for n in names:
            self.assertTrue(valid_name(n), n)
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertTrue(valid_unit(m["unit"]), m["unit"])


class Schema(unittest.TestCase):
    def test_benchmark_json(self):
        self.assertEqual(
            sorted(BENCH), ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        )
        for w in BENCH["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in BENCH["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCH["end_to_end"]))
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)

    def test_spec_matches_benchmark(self):
        self.assertEqual(sorted(SPEC["workloads"]), sorted(w["name"] for w in BENCH["workloads"]))
        self.assertEqual(sorted(SPEC["end_to_end"]), sorted(m["name"] for m in BENCH["end_to_end"]))
        self.assertEqual(sorted(SPEC["per_layer_targets"]), sorted(m["name"] for m in BENCH["per_layer"]))
        self.assertNotEqual(SPEC["seeds"]["default"], SPEC["seeds"]["held_out"])

    def test_metrics_cover_the_declaration(self):
        for w in SPEC["workloads"]:
            reps = [synthetic_rep(w, traced=False), synthetic_rep(w, traced=False)]
            e2e = run.end_to_end(reps, SPEC["calibration"]["reference_s"])
            self.assertEqual(sorted(e2e), sorted(m["name"] for m in BENCH["end_to_end"]))
            line = report.result_line(True, 13, 0, e2e, BENCH["end_to_end"])
            check_result_line(line, BENCH["end_to_end"])
            layers = run.per_layer(synthetic_rep(w))
            line = report.result_line(True, 13, 0, layers, BENCH["per_layer"])
            check_result_line(line, BENCH["per_layer"])

    def test_result_line_rejects(self):
        declared = BENCH["end_to_end"]
        values = {m["name"]: 1.5 for m in declared}
        ok = json.loads(report.result_line(True, 1, 0, values, declared))
        self.assertEqual(sorted(ok), sorted(RESULT_KEYS))
        with self.assertRaises(ValueError):
            report.result_line(True, 1, 0, dict(values, extra=1.0), declared)
        with self.assertRaises(ValueError):
            report.result_line(True, 1, 0, dict(values, setup_s=float("nan")), declared)
        for mutate in (
            lambda o: o.pop("failed"),
            lambda o: o.update(attempted=0),
            lambda o: o.update(correct="yes"),
            lambda o: o["metrics"]["setup_s"].update(unit="ms"),
            lambda o: o["metrics"].pop("setup_s"),
        ):
            obj = json.loads(json.dumps(ok))
            mutate(obj)
            with self.assertRaises(ValueError):
                check_result_line(json.dumps(obj), declared)


class Calibration(unittest.TestCase):
    def test_slow_machine_scales_down(self):
        rep = synthetic_rep("traffic_ft8", traced=False)
        ref = SPEC["calibration"]["reference_s"]
        # A kernel twice the reference time: the machine ran at half speed.
        rep["calibration_s"] = [2 * ref, 2 * ref]
        e2e, raw = run.end_to_end([rep], ref), run.end_to_end([rep], None)
        self.assertAlmostEqual(e2e["setup_s"], raw["setup_s"] / 2)
        self.assertAlmostEqual(e2e["hops_per_s"], raw["hops_per_s"] * 2)
        self.assertAlmostEqual(e2e["queries_per_s"], raw["queries_per_s"] * 2)
        self.assertEqual(e2e["peak_rss_mib"], raw["peak_rss_mib"])

    def test_converge_scales_like_the_phase(self):
        rep = synthetic_rep("failover_ft8", traced=False)
        spec = dict(SPEC, calibration={"reference_s": 0.1})
        rep["calibration_s"] = [0.2, 0.2]
        rows = {n: v for n, v, _, _ in run.workload_metrics("failover_ft8", [rep], spec)}
        self.assertAlmostEqual(rows["converge_ms_p50"], 75.0)


class Reproducibility(unittest.TestCase):
    def test_wall_time_is_not_compared(self):
        a, b = synthetic_rep("traffic_ft8"), synthetic_rep("traffic_ft8", traced=False)
        b["setup_s"], b["measured"]["wall_s"] = 9.0, 9.0
        run.check_reproducible([a, b])

    def test_simulated_outcome_is(self):
        a, b = synthetic_rep("traffic_ft8"), synthetic_rep("traffic_ft8")
        b["phase"]["fct_ns"] = [1000, 2000, 3001]
        with self.assertRaises(run.Failed):
            run.check_reproducible([a, b])

    def test_only_repeated_inputs_are_compared(self):
        reps = [synthetic_rep("traffic_ft8") for _ in range(3)]
        for i, rep in enumerate(reps):
            rep["seed"] = run.input_seed(5, i)
        self.assertEqual(reps[0]["seed"], reps[1]["seed"])
        reps[2]["phase"]["fct_ns"] = [7]
        run.check_reproducible(reps)
        with self.assertRaises(run.Failed):
            run.check_reproducible([reps[0], reps[2]])


if __name__ == "__main__":
    unittest.main()
