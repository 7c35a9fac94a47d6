"""The paper scorecard: per figure, the paper's value, ours and a shape verdict.

``python -m repro.bench scorecard`` (the ``paper`` plane of
:mod:`repro.bench.acceptance`, so also ``bench paper``) runs five figures
at their ``python -m repro.bench all`` defaults and writes
``BENCH_paper.json``.  Each figure's entry holds the paper's headline
numbers, ours under the same keys, and the ``series`` its shape checks
read.  The checks are the shape assertions of ``benchmarks/test_fig*.py``,
which call :func:`failed_checks` on their own runs, so a verdict means
the same thing in both places.  Every number is simulated or a pure
layout computation, so two runs of one tree differ only in
``wall_seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench import experiments as ex
from repro.bench.experiments import ExperimentResult

Series = dict
Check = Callable[[Series], bool]


@dataclass(frozen=True)
class Figure:
    """One figure: its run, its numbers, the paper's and its shape."""

    run: Callable[[], ExperimentResult]
    #: experiment ``raw`` -> JSON-ready numbers the checks read
    series: Callable[[dict], Series]
    paper: dict[str, float]
    #: series -> our numbers under the paper's keys
    ours: Callable[[Series], dict[str, float]]
    #: name (stating its bound) -> predicate over the series
    checks: dict[str, Check]


def _reductions(raw: dict) -> Series:
    return {
        "p50_reduction_pct": {str(k): float(c.p50_reduction) for k, c in raw.items()},
        "p99_reduction_pct": {str(k): float(c.p99_reduction) for k, c in raw.items()},
    }


def _fig4a_series(raw: dict) -> Series:
    return {
        label.removeprefix("tpc-h "): {f"{mb:g}MB": float(pct) for mb, pct in split.items()}
        for label, split in raw.items()
    }


def _fig16a_series(raw: dict) -> Series:
    series: Series = {}
    for (skew, chunks), pct in raw.items():
        series.setdefault(f"zipf {skew:g}", {})[str(chunks)] = float(pct)
    return series


def _max_reductions(series: Series) -> dict[str, float]:
    return {
        "max_p50_reduction_pct": max(series["p50_reduction_pct"].values()),
        "max_p99_reduction_pct": max(series["p99_reduction_pct"].values()),
    }


def _splits_shrink_with_blocks(split: dict) -> bool:
    return split["0.1MB"] >= split["1MB"] >= split["10MB"] >= split["100MB"]


QUERIES = ("Q1", "Q2", "Q3", "Q4")
SKEWS = ("zipf 0", "zipf 0.99")

FIGURES: dict[str, Figure] = {
    # Paper: splits stay significant at 100 MB blocks (~40% / ~24%) and
    # worsen monotonically as blocks shrink.
    "fig4a": Figure(
        run=ex.fig4a_chunk_splits,
        series=_fig4a_series,
        paper={"lineitem_split_pct_100MB": 40.0, "taxi_split_pct_100MB": 24.0},
        ours=lambda s: {
            "lineitem_split_pct_100MB": s["lineitem"]["100MB"],
            "taxi_split_pct_100MB": s["taxi"]["100MB"],
        },
        checks={
            "25 <= lineitem split % at 100MB <= 60": lambda s: 25 <= s["lineitem"]["100MB"] <= 60,
            "15 <= taxi split % at 100MB <= 40": lambda s: 15 <= s["taxi"]["100MB"] <= 40,
            "lineitem splits grow as blocks shrink": lambda s: _splits_shrink_with_blocks(
                s["lineitem"]
            ),
        },
    ),
    # Paper headline: up to ~65% median / ~81% tail reduction on the big
    # split-prone columns; Fusion wins clearly on columns 1, 2, 5, 15, and
    # small, highly-compressed columns (3, 9) benefit less.
    "fig13ab": Figure(
        run=ex.fig13ab_column_sweep,
        series=_reductions,
        paper={"max_p50_reduction_pct": 65.0, "max_p99_reduction_pct": 81.0},
        ours=_max_reductions,
        checks={
            **{
                f"column {cid} {p} reduction > {floor}%": (
                    lambda s, cid=cid, p=p, floor=floor: s[f"{p}_reduction_pct"][str(cid)] > floor
                )
                for cid in (1, 2, 5, 15)
                for p, floor in (("p50", 40), ("p99", 50))
            },
            "best p99 reduction > 70%": lambda s: max(s["p99_reduction_pct"].values()) > 70,
            "column 9 p50 reduction < column 5's": lambda s: (
                s["p50_reduction_pct"]["9"] < s["p50_reduction_pct"]["5"]
            ),
            "column 3 p50 reduction < column 1's": lambda s: (
                s["p50_reduction_pct"]["3"] < s["p50_reduction_pct"]["1"]
            ),
        },
    ),
    # Paper: Fusion reduces latency on all four queries (up to 48% / 40%
    # on TPC-H, up to 32% / 48% on taxi).
    "fig15a": Figure(
        run=ex.fig15a_realworld,
        series=_reductions,
        paper={"max_p50_reduction_pct": 48.0, "max_p99_reduction_pct": 48.0},
        ours=_max_reductions,
        checks={
            **{
                f"{q} p99 reduction > 0": lambda s, q=q: s["p99_reduction_pct"][q] > 0
                for q in QUERIES
            },
            "best p50 reduction > 30%": lambda s: max(s["p50_reduction_pct"].values()) > 30,
        },
    ),
    # Paper: Fusion generates up to 8.9x less traffic, and always less.
    "fig15b": Figure(
        run=ex.fig15b_traffic,
        series=lambda raw: {"traffic_ratio": {q: float(c.traffic_ratio) for q, c in raw.items()}},
        paper={"max_traffic_ratio": 8.9},
        ours=lambda s: {"max_traffic_ratio": max(s["traffic_ratio"].values())},
        checks={
            **{
                f"{q} traffic ratio > 1": lambda s, q=q: s["traffic_ratio"][q] > 1.0
                for q in QUERIES
            },
            "best traffic ratio > 3": lambda s: max(s["traffic_ratio"].values()) > 3.0,
        },
    ),
    # Paper: ~3% at 100 chunks, 0.8% at 500, converging toward zero; skew
    # barely matters (the paper's surprising finding).
    "fig16a": Figure(
        run=ex.fig16a_fac_overhead,
        series=_fig16a_series,
        paper={"overhead_pct_100_chunks": 3.0, "overhead_pct_500_chunks": 0.8},
        ours=lambda s: {
            "overhead_pct_100_chunks": s["zipf 0.5"]["100"],
            "overhead_pct_500_chunks": s["zipf 0.5"]["500"],
        },
        checks={
            **{
                f"{z}: overhead at 50 chunks >= at 500": lambda s, z=z: s[z]["50"] >= s[z]["500"]
                for z in SKEWS
            },
            **{
                f"{z}: overhead at 500 chunks < 1.0%": lambda s, z=z: s[z]["500"] < 1.0
                for z in SKEWS
            },
            **{
                f"{z}: overhead at 1000 chunks < 0.6%": lambda s, z=z: s[z]["1000"] < 0.6
                for z in SKEWS
            },
            "zipf 0 and 0.99 within 1 point at 500 chunks": lambda s: (
                abs(s["zipf 0"]["500"] - s["zipf 0.99"]["500"]) < 1.0
            ),
        },
    ),
}


def verdicts(figure: str, series: Series) -> dict[str, bool]:
    """Every shape check of ``figure`` on ``series``, by name."""
    return {name: bool(check(series)) for name, check in FIGURES[figure].checks.items()}


def failed_checks(figure: str, raw: dict) -> list[str]:
    """The shape checks an experiment's ``raw`` fails (empty: the shape holds)."""
    series = FIGURES[figure].series(raw)
    return [name for name, ok in verdicts(figure, series).items() if not ok]


def check(entry: dict) -> dict[str, bool]:
    """The ``paper`` plane's check of one figure's scorecard entry."""
    return verdicts(entry["figure"], entry["series"])


FLOORS = {f"{name}: {c}": True for name, fig in FIGURES.items() for c in fig.checks}


def scorecard() -> ExperimentResult:
    """Paper scorecard: Fig 4a, 13ab, 15a, 15b, 16a against the paper."""
    rows = []
    raw: dict = {}
    for name, fig in FIGURES.items():
        series = fig.series(fig.run().raw)
        ours = fig.ours(series)
        raw[name] = {"figure": name, "paper": fig.paper, "ours": ours, "series": series}
        rows.extend([name, key, fig.paper[key], round(ours[key], 2)] for key in fig.paper)
    return ExperimentResult(
        experiment="scorecard",
        title="Paper scorecard: the paper's headline numbers and ours",
        headers=["figure", "number", "paper", "ours"],
        rows=rows,
        notes="shape verdicts per figure follow; the checks are benchmarks/test_fig*.py's",
        raw=raw,
    )
