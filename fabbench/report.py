"""Pure helpers of the fabric benchmark: percentiles, failure accounting
and the result line. run.py does the I/O; this module only computes, so
its tests need no build."""

import json
import math

# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values, pct):
    """The pct-th percentile (nearest rank) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct < 100:
        raise ValueError("percentile %r outside (0, 100)" % pct)
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def supports_tail(n, pct):
    """Whether n samples leave at least TAIL_BEYOND beyond the pct-th percentile."""
    return n * (100.0 - pct) / 100.0 >= TAIL_BEYOND


def tail(values, pct):
    """The pct-th percentile, refused when the sample cannot support it."""
    if not supports_tail(len(values), pct):
        raise ValueError(
            "p%g needs %d samples beyond it; %d samples leave %.1f"
            % (pct, TAIL_BEYOND, len(values), len(values) * (100.0 - pct) / 100.0)
        )
    return percentile(values, pct)


def failed_frac(attempted, failed):
    """Failed over attempted operations; a run that attempted nothing failed."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError("bad counts: %d failed of %d attempted" % (failed, attempted))
    if attempted == 0:
        return 1.0
    return failed / attempted


def result_line(correct, attempted, failed, values, declared):
    """The benchmark's last output line. `values` maps each declared
    metric name to its measured number; `declared` is the BENCHMARK.json
    metric list it must match exactly."""
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise ValueError("metrics %s do not match the declared %s" % (sorted(values), sorted(names)))
    metrics = {}
    for m in declared:
        v = values[m["name"]]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError("metric %s is not a finite number: %r" % (m["name"], v))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    )
