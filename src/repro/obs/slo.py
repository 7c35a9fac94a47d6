"""Declarative SLOs with multi-window burn-rate alerting over scraped series.

The Google-SRE alerting recipe, scaled to simulated time: an objective's
*error-budget burn rate* is how fast the run is consuming its allowance
(burn 1.0 = exactly on budget, burn 10 = spending it 10× too fast).  An
alert fires only when **both** a short and a long trailing window burn
above the objective's threshold — the short window makes detection fast
(within a couple of scrape intervals of an incident), the long window
keeps one bad sample from paging.

Three objective kinds:

* ``availability`` — bad-request fraction (rejects + deadline misses +
  quota refusals over completed requests) against an error
  budget of ``1 - target``.
* ``latency_p99`` — fraction of windowed latency observations above a
  threshold (the deadline, typically) against a ``1 - target`` budget,
  derived from scraped histogram bucket deltas.
* ``gauge_above`` — freshness-style: fraction of window samples where a
  gauge (repair/rebalance backlog) sits above a threshold; burning when
  the backlog never drains.

Alerts are **observable state only**: typed :class:`Alert` records, a
``repro_alerts_total`` counter, a ``slo.alert`` tracer instant, and a
:meth:`SLOEngine.subscribe` hook admission/breaker layers can later
attach to.  Evaluation runs inside the scraper's on-sample callback —
pure reads of already-sampled series, zero simulated perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default burn-rate thresholds per objective kind.  Budget-fraction
#: kinds use the classic fast-burn page threshold; gauge objectives
#: burn when (nearly) every window sample is above threshold.
DEFAULT_BURN_THRESHOLD = {"availability": 10.0, "latency_p99": 10.0, "gauge_above": 1.0}

KINDS = tuple(DEFAULT_BURN_THRESHOLD)


@dataclass
class SLObjective:
    """One declarative objective evaluated over scraped series."""

    name: str
    kind: str  # "availability" | "latency_p99" | "gauge_above"
    target: float = 0.99  # availability / latency compliance target
    threshold: float = 0.0  # latency seconds / gauge level
    series: str = ""  # histogram (latency_p99) or gauge (gauge_above) name
    labels: dict = field(default_factory=dict)
    #: Trailing windows, in simulated seconds; 0 = the engine default
    #: (1 scrape interval short, 4 intervals long).
    short_window_s: float = 0.0
    long_window_s: float = 0.0
    #: Burn rate at/above which a window counts as burning; 0 = the
    #: kind's default (see DEFAULT_BURN_THRESHOLD).
    burn_threshold: float = 0.0
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; known: {KINDS}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "threshold": self.threshold,
            "series": self.series,
            "labels": dict(self.labels),
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
            "burn_threshold": self.burn_threshold,
            "severity": self.severity,
        }


@dataclass
class Alert:
    """One burn-rate alert firing (typed, observable-only)."""

    time: float
    slo: str
    severity: str
    burn_short: float
    burn_long: float
    short_window_s: float
    long_window_s: float
    message: str
    resolved_time: float | None = None

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "slo": self.slo,
            "severity": self.severity,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
            "message": self.message,
            "resolved_time": self.resolved_time,
        }


def default_objectives(config) -> list[SLObjective]:
    """The stock objectives installed by ``slo_enabled``.

    The latency threshold tracks the store's deadline when one is set
    (the paper's operational question is "are queries meeting their
    deadline", not an absolute number).
    """
    deadline = config.default_deadline_s
    return [
        SLObjective(name="availability", kind="availability", target=0.99),
        SLObjective(
            name="latency_p99",
            kind="latency_p99",
            target=0.99,
            threshold=deadline if deadline > 0 else 1.0,
            series="repro_query_latency_seconds",
        ),
        SLObjective(
            name="repair_freshness",
            kind="gauge_above",
            threshold=0.0,
            series="repro_cluster_migrations_inflight",
            severity="ticket",
        ),
    ]


class SLOEngine:
    """Evaluates objectives at every scrape; emits alerts on rising edges.

    An objective is *firing* while both windows burn at/above threshold;
    the :class:`Alert` record is created on the transition into firing
    (``repro_alerts_total`` counter + ``slo.alert`` tracer instant) and
    stamped with ``resolved_time`` on the transition out.
    """

    def __init__(
        self,
        scraper,
        objectives: list[SLObjective],
        registry=None,
        tracer=None,
    ) -> None:
        self.scraper = scraper
        self.objectives = list(objectives)
        self.registry = registry
        self.tracer = tracer
        self.alerts: list[Alert] = []
        self._active: dict[str, Alert] = {}
        self._subscribers: list = []
        scraper.on_sample.append(self._evaluate)

    def subscribe(self, callback) -> None:
        """Register ``callback(alert)`` for every alert firing.

        The hook admission/breaker layers can attach to; nothing in the
        package subscribes, so alerts stay observable-only."""
        self._subscribers.append(callback)

    @property
    def firing(self) -> list[str]:
        """Names of objectives currently in the firing state."""
        return sorted(self._active)

    # -- evaluation --------------------------------------------------------

    def _windows(self, obj: SLObjective) -> tuple[float, float]:
        interval = self.scraper.interval_s
        short = obj.short_window_s if obj.short_window_s > 0 else interval
        long = obj.long_window_s if obj.long_window_s > 0 else 4 * interval
        return short, max(long, short)

    def burn_rate(self, obj: SLObjective, window_s: float, at: float) -> float:
        """The objective's error-budget burn over one trailing window."""
        scraper = self.scraper
        budget = max(1e-9, 1.0 - obj.target)
        if obj.kind == "availability":
            total = scraper.delta("repro_cluster_requests_total", None, window_s, at)
            if total <= 0:
                return 0.0
            bad = scraper.delta("repro_cluster_bad_requests_total", None, window_s, at)
            return (bad / total) / budget
        if obj.kind == "latency_p99":
            frac = scraper.window_fraction_above(
                obj.series or "repro_query_latency_seconds",
                obj.threshold,
                obj.labels or None,
                window_s,
                at,
            )
            return 0.0 if frac is None else frac / budget
        # gauge_above: fraction of window samples above the threshold.
        values = scraper.window_values(obj.series, obj.labels or None, window_s, at)
        if not values:
            return 0.0
        return sum(1 for v in values if v > obj.threshold) / len(values)

    def _evaluate(self, scraper, t: float) -> None:
        for obj in self.objectives:
            short_w, long_w = self._windows(obj)
            threshold = (
                obj.burn_threshold
                if obj.burn_threshold > 0
                else DEFAULT_BURN_THRESHOLD[obj.kind]
            )
            burn_short = self.burn_rate(obj, short_w, t)
            burn_long = self.burn_rate(obj, long_w, t)
            firing = burn_short >= threshold and burn_long >= threshold
            active = self._active.get(obj.name)
            if firing and active is None:
                alert = Alert(
                    time=t,
                    slo=obj.name,
                    severity=obj.severity,
                    burn_short=burn_short,
                    burn_long=burn_long,
                    short_window_s=short_w,
                    long_window_s=long_w,
                    message=(
                        f"SLO {obj.name}: burn {burn_short:.2f}/{burn_long:.2f} "
                        f"over {short_w:g}s/{long_w:g}s windows "
                        f">= {threshold:g}"
                    ),
                )
                self.alerts.append(alert)
                self._active[obj.name] = alert
                if self.registry is not None:
                    self.registry.counter(
                        "repro_alerts_total",
                        "SLO burn-rate alerts fired",
                        slo=obj.name,
                        severity=obj.severity,
                    ).inc()
                if self.tracer is not None:
                    self.tracer.instant(
                        "slo.alert",
                        cat="slo",
                        slo=obj.name,
                        severity=obj.severity,
                        burn_short=round(burn_short, 3),
                        burn_long=round(burn_long, 3),
                    )
                for callback in self._subscribers:
                    callback(alert)
            elif not firing and active is not None:
                active.resolved_time = t
                del self._active[obj.name]
                if self.tracer is not None:
                    self.tracer.instant("slo.resolve", cat="slo", slo=obj.name)

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "objectives": [obj.to_dict() for obj in self.objectives],
            "alerts": [alert.to_dict() for alert in self.alerts],
            "firing": self.firing,
        }

    def write_json(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


__all__ = [
    "Alert",
    "DEFAULT_BURN_THRESHOLD",
    "SLObjective",
    "SLOEngine",
    "default_objectives",
]
