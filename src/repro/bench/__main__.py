"""CLI for the experiment harness.

Usage::

    python -m repro.bench list
    python -m repro.bench fig13ab [--json DIR]
    python -m repro.bench all [--json DIR]
    python -m repro.bench bench <plane|all|list|summary [DIR]>
    python -m repro.bench scorecard

``bench`` runs the acceptance planes (see :mod:`repro.bench.acceptance`).
``scorecard`` is the ``paper`` plane: it writes ``BENCH_paper.json``
(see :mod:`repro.bench.scorecard`).
``--json DIR`` additionally writes each result as ``DIR/<name>.json``.
``--trace-out PATH`` captures a merged Chrome ``trace_event`` JSON of
every system built during the run (open it at https://ui.perfetto.dev).
``--metrics-out PATH`` writes a structured METRICS.json dump plus a
Prometheus text export next to it (same path, ``.prom`` suffix).
``--timeseries-out PATH`` installs the continuous-telemetry scraper on
every system and writes the per-system TIMESERIES dump; the default
0.25 s scrape interval is overridable with ``--scrape-interval S``.
``--alerts-out PATH`` additionally runs the default SLO objectives and
writes the per-system alert export.  ``--exemplars`` turns on histogram
exemplars (tail latency observations carry trace ids).
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.bench import acceptance
from repro.bench.experiments import ALL_EXPERIMENTS


def _take_flag(argv: list[str], flag: str) -> tuple[list[str], str | None]:
    """Remove ``flag VALUE`` from argv; returns (argv, value-or-None)."""
    if flag not in argv:
        return argv, None
    at = argv.index(flag)
    if at + 1 >= len(argv):
        raise SystemExit(f"{flag} needs a path argument")
    value = argv[at + 1]
    return argv[:at] + argv[at + 2 :], value


def main(argv: list[str]) -> int:
    if argv[:1] == ["bench"]:
        return acceptance.main(argv[1:])
    if argv[:1] == ["scorecard"]:
        return acceptance.main(["paper"])
    json_dir = None
    if "--json" in argv:
        at = argv.index("--json")
        if at + 1 >= len(argv):
            print("--json needs a directory", file=sys.stderr)
            return 1
        json_dir = argv[at + 1]
        argv = argv[:at] + argv[at + 2 :]
        os.makedirs(json_dir, exist_ok=True)
    argv, trace_out = _take_flag(argv, "--trace-out")
    argv, metrics_out = _take_flag(argv, "--metrics-out")
    argv, timeseries_out = _take_flag(argv, "--timeseries-out")
    argv, alerts_out = _take_flag(argv, "--alerts-out")
    argv, scrape_interval = _take_flag(argv, "--scrape-interval")
    exemplars = "--exemplars" in argv
    if exemplars:
        argv = [a for a in argv if a != "--exemplars"]
    capture = (
        trace_out is not None
        or metrics_out is not None
        or timeseries_out is not None
        or alerts_out is not None
        or exemplars
    )
    if capture:
        from repro.bench.harness import enable_obs_capture

        interval = 0.0
        if timeseries_out is not None or alerts_out is not None:
            interval = float(scrape_interval) if scrape_interval is not None else 0.25
        enable_obs_capture(
            scrape_interval=interval,
            slo=alerts_out is not None,
            exemplars=exemplars,
        )

    if len(argv) < 1 or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("experiments:", ", ".join(ALL_EXPERIMENTS))
        return 0
    target = argv[0]
    if target == "list":
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:24s} {doc}")
        return 0
    names = list(ALL_EXPERIMENTS) if target == "all" else [target]
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
            return 1
        start = time.perf_counter()
        result = ALL_EXPERIMENTS[name]()
        result.show()
        if json_dir is not None:
            result.save_json(os.path.join(json_dir, f"{name}.json"))
        print(f"({name} took {time.perf_counter() - start:.1f}s)\n")

    if capture:
        from repro.bench.harness import collect_obs, collect_telemetry

        trace, prom_text, metrics = collect_obs()
        if trace_out is not None:
            with open(trace_out, "w") as fh:
                json.dump(trace, fh)
            print(f"wrote Chrome trace: {trace_out} "
                  f"({len(trace['traceEvents'])} events)")
        if metrics_out is not None:
            with open(metrics_out, "w") as fh:
                json.dump(metrics, fh, indent=2, sort_keys=True)
            prom_path = os.path.splitext(metrics_out)[0] + ".prom"
            with open(prom_path, "w") as fh:
                fh.write(prom_text)
            print(f"wrote metrics: {metrics_out} and {prom_path}")
        if timeseries_out is not None or alerts_out is not None:
            timeseries, alerts = collect_telemetry()
            if timeseries_out is not None:
                with open(timeseries_out, "w") as fh:
                    json.dump(timeseries, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                samples = sum(ts.get("samples", 0) for ts in timeseries.values())
                print(f"wrote timeseries: {timeseries_out} "
                      f"({len(timeseries)} system(s), {samples} samples)")
            if alerts_out is not None:
                with open(alerts_out, "w") as fh:
                    json.dump(alerts, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                fired = sum(len(a.get("alerts", [])) for a in alerts.values())
                print(f"wrote alerts: {alerts_out} "
                      f"({len(alerts)} system(s), {fired} alert(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
