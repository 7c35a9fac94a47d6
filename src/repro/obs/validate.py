"""Validators for the observability artifacts, usable as a CLI.

* :func:`validate_chrome_trace` — structural checks over a Chrome
  ``trace_event`` document: every event has a known ``ph`` and
  well-formed ``ts``/``pid``/``tid`` fields, and each ``(pid, tid)``
  track's ``B``/``E`` stream is balanced (stack discipline, matching
  names, non-decreasing timestamps).
* :func:`validate_prometheus_text` — line-level parse of the Prometheus
  text exposition format, and of the scraper's OpenMetrics flavour of
  it (fractional timestamps, exemplars, ``# EOF``): sample lines match
  the grammar, ``TYPE`` declarations are known, histogram families carry
  ``_bucket``/``_sum``/``_count`` series and bucket counts are monotone
  in ``le``.
* :func:`validate_timeseries` — structural checks over a scraper's
  ``TIMESERIES.json``: sample times strictly increasing on the scrape
  grid, every series point on a sampled time, histogram snapshots with
  monotone cumulative buckets and consistent bounds.
* :func:`validate_alerts` — checks an SLO engine's ``ALERTS.json``:
  alerts reference declared objectives, fire inside the run, windows
  positive, resolution not before firing.

CI runs them over a real experiment's artifacts::

    python -m repro.obs.validate --trace trace.json --prom METRICS.prom \\
        --timeseries TIMESERIES.json --alerts ALERTS.json
"""

from __future__ import annotations

import json
import re
import sys

_KNOWN_PHASES = set("BEXiIMCbnePsSfFtNOD")

_NUMBER = r"[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN)"
# A sample line; OpenMetrics adds a fractional timestamp and an exemplar
# (``# {trace_id="7"} 0.25``) after the value.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    rf"\s+(?P<value>{_NUMBER})"
    rf"(?:\s+{_NUMBER})?(?:\s+#\s+\{{[^}}]*\}}\s+{_NUMBER}(?:\s+{_NUMBER})?)?$"
)
_LABEL_PAIR_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_chrome_trace(trace) -> list[str]:
    """Problems found in a Chrome trace-event document (empty: valid)."""
    problems: list[str] = []
    if isinstance(trace, dict):
        events = trace.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(trace, list):
        events = trace
    else:
        return [f"trace must be a dict or list, got {type(trace).__name__}"]

    stacks: dict[tuple, list[tuple[str, float]]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            problems.append(f"event {i}: bad ph {ph!r}")
            continue
        pid, tid = ev.get("pid"), ev.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            problems.append(f"event {i}: pid/tid must be ints, got {pid!r}/{tid!r}")
            continue
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"event {i}: ph={ph} needs a numeric ts, got {ts!r}")
                continue
            if ts < 0:
                problems.append(f"event {i}: negative ts {ts}")
        name = ev.get("name")
        if ph in ("B", "E", "X", "i", "M") and ph != "E" and not isinstance(name, str):
            problems.append(f"event {i}: ph={ph} needs a string name")
            continue
        if ph == "B":
            stacks.setdefault((pid, tid), []).append((name, ev["ts"]))
        elif ph == "E":
            stack = stacks.setdefault((pid, tid), [])
            if not stack:
                problems.append(f"event {i}: E with empty stack on (pid={pid}, tid={tid})")
                continue
            open_name, open_ts = stack.pop()
            if isinstance(name, str) and name != open_name:
                problems.append(
                    f"event {i}: E name {name!r} does not match open B {open_name!r} "
                    f"on (pid={pid}, tid={tid})"
                )
            if ev["ts"] < open_ts:
                problems.append(
                    f"event {i}: E at ts={ev['ts']} before its B at ts={open_ts}"
                )
    for (pid, tid), stack in stacks.items():
        if stack:
            names = [n for n, _ts in stack]
            problems.append(
                f"unbalanced B/E on (pid={pid}, tid={tid}): {len(stack)} unclosed {names}"
            )
    return problems


def validate_prometheus_text(text: str) -> list[str]:
    """Problems found in a Prometheus text exposition (empty: valid)."""
    problems: list[str] = []
    types: dict[str, str] = {}
    samples: dict[str, list[tuple[dict, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    problems.append(f"line {lineno}: unknown TYPE {kind!r}")
                else:
                    types[parts[2]] = kind
            elif len(parts) >= 2 and parts[1] not in ("HELP", "TYPE", "EOF"):
                problems.append(f"line {lineno}: unknown comment directive {parts[1]!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            body = raw[1:-1].strip()
            if body:
                for pair in _split_label_pairs(body):
                    if not _LABEL_PAIR_RE.match(pair):
                        problems.append(f"line {lineno}: bad label pair {pair!r}")
                        continue
                    key, _eq, val = pair.partition("=")
                    labels[key] = val[1:-1]
        value = match.group("value")
        parsed = float("inf") if value == "Inf" else float("nan") if value == "NaN" else float(value)
        samples.setdefault(match.group("name"), []).append((labels, parsed))

    for family, kind in types.items():
        if kind == "histogram":
            buckets = samples.get(f"{family}_bucket", [])
            if not buckets:
                problems.append(f"histogram {family!r} has no _bucket samples")
            if not samples.get(f"{family}_sum"):
                problems.append(f"histogram {family!r} has no _sum sample")
            if not samples.get(f"{family}_count"):
                problems.append(f"histogram {family!r} has no _count sample")
            series: dict[tuple, list[tuple[float, float]]] = {}
            for labels, value in buckets:
                le = labels.get("le")
                if le is None:
                    problems.append(f"histogram {family!r} bucket missing 'le' label")
                    continue
                bound = float("inf") if le == "+Inf" else float(le)
                key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
                series.setdefault(key, []).append((bound, value))
            for key, points in series.items():
                points.sort()
                if not points or points[-1][0] != float("inf"):
                    problems.append(f"histogram {family!r}{dict(key)} lacks an +Inf bucket")
                counts = [v for _b, v in points]
                if any(b > a_next for b, a_next in zip(counts, counts[1:])):
                    problems.append(
                        f"histogram {family!r}{dict(key)} bucket counts not monotone"
                    )
        else:
            named = [n for n in samples if n == family]
            if not named:
                problems.append(f"{kind} {family!r} declared but has no samples")
    return problems


def _per_system(doc, marker: str):
    """A harness export maps "system#pid" -> per-system document; detect
    that shape (no ``marker`` key, every value an object carrying it)."""
    if (
        isinstance(doc, dict)
        and doc
        and marker not in doc
        and all(isinstance(v, dict) and marker in v for v in doc.values())
    ):
        return doc
    return None


def validate_timeseries(doc) -> list[str]:
    """Problems found in a scraper's TIMESERIES.json (empty: valid).

    Accepts either one scraper document or a harness export mapping
    ``"system#pid"`` to per-system documents."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"timeseries must be an object, got {type(doc).__name__}"]
    systems = _per_system(doc, "scrape_interval_s")
    if systems is not None:
        for system in sorted(systems):
            problems.extend(
                f"[{system}] {p}" for p in validate_timeseries(systems[system])
            )
        return problems
    interval = doc.get("scrape_interval_s")
    if not isinstance(interval, (int, float)) or interval <= 0:
        problems.append(f"scrape_interval_s must be > 0, got {interval!r}")
    times = doc.get("times")
    if not isinstance(times, list):
        return problems + ["'times' must be a list"]
    for a, b in zip(times, times[1:]):
        if b <= a:
            problems.append(f"sample times not strictly increasing: {a} -> {b}")
            break
    if doc.get("samples") != len(times):
        problems.append(
            f"samples={doc.get('samples')!r} disagrees with len(times)={len(times)}"
        )
    sampled = set(times)
    for name, variants in (doc.get("series") or {}).items():
        if not isinstance(variants, list):
            problems.append(f"series {name!r}: variants must be a list")
            continue
        for variant in variants:
            points = variant.get("points", [])
            for t, _v in points:
                if t not in sampled:
                    problems.append(f"series {name!r}: point at unsampled t={t}")
                    break
            for (t0, _a), (t1, _b) in zip(points, points[1:]):
                if t1 <= t0:
                    problems.append(f"series {name!r}: point times not increasing")
                    break
    for name, variants in (doc.get("histograms") or {}).items():
        for variant in variants:
            bounds = variant.get("bounds", [])
            if not bounds or bounds[-1] != "+Inf":
                problems.append(f"histogram {name!r}: bounds must end with +Inf")
            for snap in variant.get("snapshots", []):
                t = snap.get("t")
                if t not in sampled:
                    problems.append(f"histogram {name!r}: snapshot at unsampled t={t}")
                    break
                buckets = snap.get("buckets", [])
                if len(buckets) != len(bounds):
                    problems.append(
                        f"histogram {name!r}: snapshot at t={t} has "
                        f"{len(buckets)} buckets for {len(bounds)} bounds"
                    )
                    break
                if any(b > a for a, b in zip(buckets[1:], buckets)):
                    problems.append(
                        f"histogram {name!r}: cumulative buckets not monotone at t={t}"
                    )
                    break
                if buckets and snap.get("count") != buckets[-1]:
                    problems.append(
                        f"histogram {name!r}: count != +Inf bucket at t={t}"
                    )
                    break
    return problems


def validate_alerts(doc) -> list[str]:
    """Problems found in an SLO engine's ALERTS.json (empty: valid).

    Accepts either one engine document or a harness export mapping
    ``"system#pid"`` to per-system documents."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"alerts must be an object, got {type(doc).__name__}"]
    systems = _per_system(doc, "objectives")
    if systems is not None:
        for system in sorted(systems):
            problems.extend(
                f"[{system}] {p}" for p in validate_alerts(systems[system])
            )
        return problems
    objectives = doc.get("objectives")
    if not isinstance(objectives, list):
        return ["'objectives' must be a list"]
    names = set()
    for obj in objectives:
        name = obj.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"objective without a name: {obj!r}")
            continue
        if name in names:
            problems.append(f"duplicate objective name {name!r}")
        names.add(name)
        if obj.get("kind") not in ("availability", "latency_p99", "gauge_above"):
            problems.append(f"objective {name!r}: unknown kind {obj.get('kind')!r}")
    for i, alert in enumerate(doc.get("alerts") or []):
        slo = alert.get("slo")
        if slo not in names:
            problems.append(f"alert {i}: references undeclared SLO {slo!r}")
        t = alert.get("time")
        if not isinstance(t, (int, float)) or t < 0:
            problems.append(f"alert {i}: bad time {t!r}")
            continue
        for key in ("short_window_s", "long_window_s"):
            if not alert.get(key) or alert[key] <= 0:
                problems.append(f"alert {i}: {key} must be > 0")
        resolved = alert.get("resolved_time")
        if resolved is not None and resolved < t:
            problems.append(f"alert {i}: resolved at {resolved} before firing at {t}")
    for name in doc.get("firing") or []:
        if name not in names:
            problems.append(f"firing references undeclared SLO {name!r}")
    return problems


def _split_label_pairs(body: str) -> list[str]:
    """Split 'a="x",b="y,z"' on commas outside quoted values."""
    pairs, current, in_quotes, escaped = [], [], False, False
    for ch in body:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            pairs.append("".join(current).strip())
            current = []
            continue
        current.append(ch)
    if current:
        pairs.append("".join(current).strip())
    return pairs


def _report(path: str, problems: list[str], ok_detail: str) -> int:
    if problems:
        print(f"{path}: INVALID ({len(problems)} problem(s))")
        for p in problems[:20]:
            print(f"  - {p}")
        return 1
    print(f"{path}: OK ({ok_detail})")
    return 0


def main(argv: list[str]) -> int:
    trace_path = prom_path = ts_path = alerts_path = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--trace" and args:
            trace_path = args.pop(0)
        elif arg == "--prom" and args:
            prom_path = args.pop(0)
        elif arg == "--timeseries" and args:
            ts_path = args.pop(0)
        elif arg == "--alerts" and args:
            alerts_path = args.pop(0)
        else:
            print(__doc__)
            return 1
    if trace_path is None and prom_path is None and ts_path is None and alerts_path is None:
        print(__doc__)
        return 1
    failures = 0
    if trace_path is not None:
        with open(trace_path) as fh:
            trace = json.load(fh)
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        failures += _report(
            trace_path, validate_chrome_trace(trace), f"{len(events)} events"
        )
    if prom_path is not None:
        with open(prom_path) as fh:
            text = fh.read()
        failures += _report(
            prom_path, validate_prometheus_text(text), f"{len(text.splitlines())} lines"
        )
    if ts_path is not None:
        with open(ts_path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            systems = _per_system(doc, "scrape_interval_s")
            if systems is not None:
                samples = sum(d.get("samples", 0) for d in systems.values())
            else:
                samples = doc.get("samples", 0)
        else:
            samples = 0
        failures += _report(ts_path, validate_timeseries(doc), f"{samples} samples")
    if alerts_path is not None:
        with open(alerts_path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            systems = _per_system(doc, "objectives")
            if systems is not None:
                n = sum(len(d.get("alerts") or []) for d in systems.values())
            else:
                n = len(doc.get("alerts") or [])
        else:
            n = 0
        failures += _report(alerts_path, validate_alerts(doc), f"{n} alert(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
