"""Turns repeats, spans and counters into the metrics named in BENCHMARK.json.

Two clocks: *simulated* metrics are read from the first timed repeat (the
same inputs give the same values bit for bit); *host* metrics are medians
over the timed repeats, in calibrated seconds (see ``hostclock``).  A
metric a workload does not exercise reads 0; one whose trace target could
not be resolved reads ``None``.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass

from repro.cluster import CATEGORIES, percentile
from repro.format import codec_names
from tracer import SpanStats, Tracer, aggregate, nesting_errors, self_times
from workloads import Repeat, State, StoreRun

#: The tail is the highest of these percentiles with >= 10 samples beyond it.
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
_SHARE_NAMES = {"disk": "disk", "processing": "cpu", "network": "network", "other": "other"}


def tail_percentile(samples: int) -> int:
    supported = [p for p in TAIL_PERCENTILES if samples * (100 - p) / 100 >= 10]
    return max(supported, default=TAIL_PERCENTILES[0])


def spread_pct(values: list[float]) -> float:
    """Inter-quartile range as a share of the median, in percent."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 * 100.0 if q2 else 0.0


def ops_per_s(run: StoreRun) -> float:
    return (run.ops - run.failed) / run.meter.calibrated_s


def _ratio(numerator, denominator):
    """None-propagating division; 0 when there is nothing to divide by."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def _sim_ms(run: StoreRun, pct: int) -> float:
    return percentile(run.sim_latencies_s, pct) * 1e3 if run.sim_latencies_s else 0.0


def end_to_end(setups: list[float], repeats: list[Repeat]) -> dict[str, float]:
    fusion, baseline = repeats[0].runs["fusion"], repeats[0].runs["baseline"]
    tail = tail_percentile(len(fusion.sim_latencies_s))
    return {
        "setup_s": statistics.median(setups),
        "fusion_ops_per_s": statistics.median(ops_per_s(r.runs["fusion"]) for r in repeats),
        "baseline_ops_per_s": statistics.median(ops_per_s(r.runs["baseline"]) for r in repeats),
        "fusion_sim_p50_ms": _sim_ms(fusion, 50),
        "fusion_sim_tail_ms": _sim_ms(fusion, tail),
        "sim_p50_speedup_x": _ratio(_sim_ms(baseline, 50), _sim_ms(fusion, 50)),
        "sim_tail_speedup_x": _ratio(_sim_ms(baseline, tail), _sim_ms(fusion, tail)),
        "fusion_sim_net_bytes_per_op": fusion.sim_net_bytes / fusion.ops,
        "fusion_stored_bytes_per_user_byte": fusion.stored_per_user_byte,
        # ru_maxrss is in KiB on Linux; the process runs one workload only.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


@dataclass
class TracedPass:
    """The traced repeat, the untraced ones it is compared with, and extras."""

    tracer: Tracer
    repeat: Repeat
    kernel_events_per_s: float
    plain_repeats: list[Repeat]  # query_telemetry only: telemetry-off pair


def _wall(repeat: Repeat) -> float:
    return sum(run.meter.calibrated_s for run in repeat.runs.values())


def per_layer(
    state: State,
    repeats: list[Repeat],
    traced: TracedPass,
    attempted: int,
    failed: int,
) -> tuple[dict[str, float | None], list[str]]:
    """Every per-layer metric, plus span-tree defects found on the way."""
    fusion, baseline = repeats[0].runs["fusion"], repeats[0].runs["baseline"]
    tracer, spans = traced.tracer, traced.tracer.spans
    stats = aggregate(spans)
    raw = sum(run.meter.raw_s for run in traced.repeat.runs.values())
    # Span times are raw wall; bring them to calibrated seconds with the
    # traced pass's own raw/calibrated ratio.
    to_calibrated = _wall(traced.repeat) / raw if raw else 1.0
    traced_ops = sum(run.ops for run in traced.repeat.runs.values())

    def span(key: str, attr: str):
        if key in tracer.unresolved:
            return None
        value = getattr(stats.get(key, SpanStats()), attr)
        return value * to_calibrated if attr.endswith("_s") else value

    def total(keys: list[str], attr: str):
        values = [span(key, attr) for key in keys]
        return None if None in values else sum(values)

    def mb_per_s(key: str, attr: str):
        nbytes = span(key, attr)
        return _ratio(None if nbytes is None else nbytes / 1e6, span(key, "busy_s"))

    def per_fusion_op(field_name: str) -> float:
        return sum(getattr(q, field_name) for q in fusion.queries) / fusion.ops

    defects = []
    badly_nested = nesting_errors(spans)
    if badly_nested:
        defects.append(f"{badly_nested} spans are not nested inside their parent")
    own = self_times(spans)
    if abs(sum(own) - (spans[0][3] - spans[0][2])) > 1e-6:
        defects.append("span self times do not add up to the traced wall")

    tail = tail_percentile(len(fusion.sim_latencies_s))
    compress = [f"format.compress.{codec}" for codec in codec_names()]
    kernel_calls = [f"cluster.{p}" for p in ("timeout", "event", "process")]
    pushed = sum(q.pushed_down_chunks for q in fusion.queries)
    decided = pushed + sum(q.fallback_chunks for q in fusion.queries)
    shares = {c: 0.0 for c in CATEGORIES}
    for q in fusion.queries:
        for category, share in q.breakdown_fractions().items():
            shares[category] += share / len(fusion.queries)
    plain, on = traced.plain_repeats, repeats

    def obs_overhead(kind: str) -> float:
        if not plain:
            return 0.0
        return statistics.median(ops_per_s(r.runs[kind]) for r in plain) / statistics.median(
            ops_per_s(r.runs[kind]) for r in on
        )

    metrics = {
        "workloads.gen_rows_per_s": state.gen_rows / state.meters["gen"].calibrated_s,
        "format.encode_mb_per_s": mb_per_s("format.write_table", "out_bytes"),
        "format.encode_chunk_calls": span("format.encode_column_chunk", "calls"),
        "format.encode_chunk_self_s": span("format.encode_column_chunk", "self_s"),
        "format.compress_ratio": _ratio(total(compress, "in_bytes"), total(compress, "out_bytes")),
        "format.decode_chunk_calls_per_op": _ratio(span("format.decode_column_chunk", "calls"), traced_ops),
        "format.decode_chunk_self_s": span("format.decode_column_chunk", "self_s"),
        "format.decode_mb_per_s": mb_per_s("format.decode_column_chunk", "in_bytes"),
        "ec.encode_calls": span("ec.encode_stripe", "calls"),
        "ec.encode_self_s": span("ec.encode_stripe", "self_s"),
        "ec.encode_mb_per_s": mb_per_s("ec.encode_stripe", "in_bytes"),
        "ec.decode_calls": span("ec.decode_stripe", "calls"),
        "ec.decode_self_s": span("ec.decode_stripe", "self_s"),
        "ec.decode_mb_per_s": mb_per_s("ec.decode_stripe", "in_bytes"),
        "core.fac_calls": span("core.construct_stripes", "calls"),
        "core.fac_self_s": span("core.construct_stripes", "self_s"),
        "core.fac_overhead_vs_optimal_pct": 100.0 * statistics.fmean(fusion.fac_overhead) if fusion.fac_overhead else 0.0,
        "core.put_self_s": span("core.put", "self_s"),
        "core.get_self_s": span("core.get", "self_s"),
        "core.repair_node_self_s": span("core.repair_node", "self_s"),
        "core.pushdown_chunk_share": _ratio(pushed, decided),
        "core.pushdown_decision_accuracy": fusion.audit.accuracy if fusion.audit is not None else 0.0,
        "core.degraded_reads_per_op": per_fusion_op("degraded_reads"),
        "core.retries_per_op": per_fusion_op("retries"),
        "core.timeouts_per_op": per_fusion_op("timeouts"),
        "core.repair_sim_s": fusion.repair_sim_s,
        "core.repair_bytes_per_rebuilt_byte": _ratio(fusion.repair_sim_bytes, fusion.rebuilt_sim_bytes),
        "core.baseline_sim_p50_ms": _sim_ms(baseline, 50),
        "core.baseline_sim_tail_ms": _sim_ms(baseline, tail),
        "core.baseline_sim_net_bytes_per_op": baseline.sim_net_bytes / baseline.ops,
        "core.baseline_stored_bytes_per_user_byte": baseline.stored_per_user_byte,
        "core.sim_net_traffic_ratio": _ratio(baseline.sim_net_bytes, fusion.sim_net_bytes),
        "core.sim_p50_reduction_pct": 100.0 * _ratio(_sim_ms(baseline, 50) - _sim_ms(fusion, 50), _sim_ms(baseline, 50)),
        "core.sim_tail_reduction_pct": 100.0
        * _ratio(_sim_ms(baseline, tail) - _sim_ms(fusion, tail), _sim_ms(baseline, tail)),
        "cluster.run_self_s": span("cluster.run", "self_s"),
        "cluster.kernel_calls_per_op": _ratio(
            None if set(kernel_calls) & tracer.unresolved else sum(tracer.counts[k] for k in kernel_calls),
            traced_ops,
        ),
        "cluster.kernel_events_per_s": traced.kernel_events_per_s,
        "cluster.rpcs_per_op": per_fusion_op("rpcs_issued"),
        "cluster.sim_cpu_utilization": fusion.sim_cpu_utilization,
        "sql.parse_plan_calls": total(["sql.parse", "sql.plan"], "calls"),
        "sql.parse_plan_self_s": total(["sql.parse", "sql.plan"], "self_s"),
        "sql.eval_leaf_calls": span("sql.eval_leaf", "calls"),
        "sql.eval_leaf_self_s": span("sql.eval_leaf", "self_s"),
        # eval_leaf returns one bool per row, so its output bytes are rows.
        "sql.eval_rows_per_s": _ratio(span("sql.eval_leaf", "out_bytes"), span("sql.eval_leaf", "busy_s")),
        "sql.bitmap_wire_calls": span("sql.to_wire", "calls"),
        "sql.bitmap_wire_self_s": span("sql.to_wire", "self_s"),
        "obs.wall_overhead_ratio.fusion": obs_overhead("fusion"),
        "obs.wall_overhead_ratio.baseline": obs_overhead("baseline"),
        "obs.spans_per_op": fusion.obs_spans / fusion.ops,
        "obs.scrape_samples": fusion.obs_scrapes,
        "bench.trace_overhead_ratio": _wall(traced.repeat) / statistics.median(_wall(r) for r in repeats),
        "bench.repeat_spread_pct": spread_pct([_wall(r) for r in repeats]),
        "bench.timed_repeats": len(repeats),
        "bench.unattributed_self_s": own[0] * to_calibrated,
        "bench.calibration_self_s": span("bench.calibrate", "self_s"),
        "bench.host_speed_factor": statistics.fmean(run.meter.speed_factor for r in repeats for run in r.runs.values()),
        "bench.tail_percentile": tail,
        "bench.sim_samples": len(fusion.sim_latencies_s),
        "bench.failed_op_share": failed / attempted,
    }
    for category, name in _SHARE_NAMES.items():
        metrics[f"cluster.sim_time_share.{name}"] = shares[category]
    for codec in codec_names():
        key = f"format.compress.{codec}"
        metrics[f"format.compress_calls.{codec}"] = span(key, "calls")
        metrics[f"format.compress_self_s.{codec}"] = span(key, "self_s")
        metrics[f"format.compress_mb_per_s.{codec}"] = mb_per_s(key, "in_bytes")
    return metrics, defects


def is_exact(name: str) -> bool:
    """Simulated values and counts, which the same inputs must repeat exactly."""
    if "_self_s" in name or "_per_s" in name or name.startswith(("bench.", "obs.wall_")):
        return name in ("bench.tail_percentile", "bench.sim_samples", "bench.failed_op_share")
    return name not in ("setup_s", "peak_rss_mb")
