"""Turns the measuring binary's raw result into the benchmark's metrics.

Kept apart from run.py so the helpers can be tested without a build:
the percentile rule, failed-op accounting, and the metric names and
units, which must match BENCHMARK.json exactly.
"""

import json
import math
import statistics
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Every metric the runner can print, with its unit. BENCHMARK.json
# declares the same names and units; test_metrics.py holds them equal.
END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "energy_mj_per_op": "mJ",
    "quality": "score",
}

PER_LAYER_UNITS = {
    # loop_tick and fleet_serve: sensing
    "lidar.beam_plan_us": "us",
    "sim.selective_scan_us": "us",
    "lidar.voxelize_us": "us",
    "sim.pulses_fired": "count/op",
    # loop_tick: perception, trust, loop engine
    "lidar.embed_us": "us",
    "monitor.trust_us": "us",
    "monitor.veto_rate": "frac",
    "lidar.reconstruct_us": "us",
    "lidar.detect_us": "us",
    "core.loop_self_us": "us",
    "core.fallback_actions": "count/op",
    "core.degraded_ticks": "count/op",
    "core.sense_retries": "count/op",
    # fleet_serve: batched serving
    "core.gather_wait_us": "us",
    "nn.batch_forward_us": "us",
    "core.commit_wait_us": "us",
    "nn.batch_size": "count",
    "core.dispatches": "count/op",
    "core.busy_frac": "frac",
    # ae_train
    "lidar.mask_us": "us",
    "nn.forward_us": "us",
    "nn.backward_opt_us": "us",
    "nn.train_step_us": "us",
    # fed_round
    "federated.local_train_us": "us",
    "federated.local_train_total_ms": "ms",
    "federated.clients_trained": "count/op",
    "federated.aggregate_self_ms": "ms",
    "federated.peak_accumulator_bytes": "bytes",
    "federated.dropped_client_rounds": "count/op",
    "federated.quarantined_edges": "count/op",
    "net.bytes_on_wire": "bytes/op",
    "net.compression_ratio": "ratio",
    # every workload: what no layer claims, and the tracing itself
    "unattributed_us": "us",
    "trace.traced_op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.reconcile_error": "frac",
    # output quality, by the layer that produces it
    "recon_iou": "frac",
    "detect_ap": "frac",
    "veto_recall": "frac",
    "false_veto_rate": "frac",
    "train_loss": "bce",
    "fed_accuracy": "frac",
}

# Self layers plus unattributed_us must add up to the traced op_p50_ms
# within this share of it.
RECONCILE_TOLERANCE = 0.10

# Samples that must lie beyond a tail percentile for it to be reported.
TAIL_SAMPLES = 10

# On a shared host, stretches of a run (a fraction of a second to many
# seconds) slow down by up to 1.5x for reasons outside the program, and
# a run may spend any share of its time in them. Latency and throughput
# are therefore read from the run's least disturbed window of WINDOW_S
# seconds — the best of many repeats, as timeit takes it. A window
# counts if it is whole and holds at least MIN_WINDOW_OPS ops.
WINDOW_S = 0.5
MIN_WINDOW_OPS = 16


def percentile(values, p, min_beyond=0):
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it.

    With min_beyond > 0, raises ValueError unless at least that many
    samples lie beyond the returned rank — a p99 over fewer than
    100 * min_beyond samples is not resolved.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{p:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {min_beyond}")
    return ordered[rank - 1]


def failed_frac(attempted, failed):
    """Failed ops over attempted ops."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def load_spec(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def windows(raw):
    """The untraced ops split by the time they ended into whole windows
    of WINDOW_S seconds: a list of (op latencies, seconds), the seconds
    running from the end of the op before the window to the end of its
    last. Windows with fewer than MIN_WINDOW_OPS ops are left out; if
    none is left, the whole run is the one window."""
    ops, ends, wall = raw["op_ms"], raw["op_end_s"], raw["wall_s"]
    if len(ops) != len(ends):
        raise ValueError(f"{len(ops)} op latencies but {len(ends)} end times")
    buckets = [[] for _ in range(int(wall // WINDOW_S))]
    before = [0.0] * len(buckets)  # end of the last op before each window
    last = [0.0] * len(buckets)
    prev = 0.0
    for ms, t in sorted(zip(ops, ends), key=lambda op: op[1]):
        k = int(t // WINDOW_S)
        if 0 <= k < len(buckets):
            if not buckets[k]:
                before[k] = prev
            buckets[k].append(ms)
            last[k] = t
        prev = t
    out = [(b, last[k] - before[k]) for k, b in enumerate(buckets)
           if len(b) >= MIN_WINDOW_OPS]
    return out or [(ops, wall)]


def end_to_end(raw):
    """The end-to-end metric values of an untraced run: latency and
    throughput of its best window, the rest over the whole run."""
    wins = windows(raw)
    ok_share = 1.0 - failed_frac(raw["attempted"], raw["failed"])
    return {
        "op_p50_ms": min(percentile(ops, 50) for ops, _ in wins),
        "ops_per_s": max(len(ops) / s for ops, s in wins) * ok_share,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "energy_mj_per_op": raw["energy_mj_per_op"],
        "quality": raw["quality"],
    }


def tail_ms(raw):
    """p99 op latency of an untraced run, which the report prints beside
    the metrics. It needs at least 1000 ops, so that ten lie beyond it."""
    return percentile(raw["op_ms"], 99, min_beyond=TAIL_SAMPLES)


def reconcile(raw):
    """(traced op_p50_ms, sum of self layers in ms, relative error)."""
    traced_p50 = percentile(raw["traced_op_ms"], 50)
    layers = raw["layers"]
    total = 0.0
    for name in raw["self_layers"]:
        total += layers[name] / 1000.0 if name.endswith("_us") else layers[name]
    return traced_p50, total, abs(total - traced_p50) / traced_p50


def per_layer(raw):
    """The per-layer metric values of a traced run. Layers a workload
    does not exercise read 0."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, v in list(raw["layers"].items()) + list(raw["named_quality"].items()):
        if name not in values:
            raise KeyError(f"layer metric {name} has no unit")
        values[name] = v
    traced_p50, _, err = reconcile(raw)
    values["trace.traced_op_p50_ms"] = traced_p50
    values["trace.overhead_ms"] = traced_p50 - percentile(raw["op_ms"], 50)
    values["trace.reconcile_error"] = err
    return values


def check_units(units, specs):
    """Raises unless `units` names exactly the metrics `specs` lists,
    each with the spec's unit."""
    want = {s["name"]: s["unit"] for s in specs}
    if units != want:
        raise ValueError(f"metrics {units} != BENCHMARK.json {want}")


def result(raw, spec, trace):
    """The final result object: correct, attempted, failed, metrics."""
    checks_ok = all(c["ok"] for c in raw["checks"])
    if trace:
        values, units = per_layer(raw), PER_LAYER_UNITS
        check_units(units, spec["per_layer"])
        checks_ok = checks_ok and values["trace.reconcile_error"] <= RECONCILE_TOLERANCE
    else:
        values, units = end_to_end(raw), END_TO_END_UNITS
        check_units(units, spec["end_to_end"])
    failed_frac(raw["attempted"], raw["failed"])  # validates the counts
    return {
        "correct": checks_ok,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
