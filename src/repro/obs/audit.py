"""Pushdown decision audit: one record per chunk's Cost-Equation decision.

The paper's adaptive pushdown decides *per projection chunk* whether to
ship ``selectivity × uncompressed`` bytes of selected values (pushdown)
or the whole compressed chunk (fallback), by the Cost Equation
``selectivity × compressibility < 1``.  The audit log captures each
op's decision when it is first evaluated — the estimate inputs, the
threshold, the decision; a retried op evaluates the same decision again
and records nothing more — and the record is later filled in with the
*actual* wire bytes of the chosen path and of the alternative, once the
reply the query uses arrives, so experiments can report ex-post
decision accuracy (what fraction of decisions moved fewer bytes than
the road not taken).

Records are metadata-plane: appending one never touches the simulation
event heap, so runs are event-identical with auditing on or off
(``StoreConfig.pushdown_audit_enabled``, default on).  When a tracer is
installed each record also emits a ``pushdown.decision`` instant event
into the trace.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PushdownAuditRecord:
    """One Cost-Equation evaluation and its outcome."""

    time: float
    object_name: str
    chunk_key: tuple  # (row_group, column) identity of the projected chunk
    stage: str  # "fused" | "projection"
    mode: str  # PushdownMode at decision time
    selectivity: float
    compressibility: float
    cost_product: float
    threshold: float
    push_down: bool
    #: Estimated wire bytes of each branch at decision time (real bytes).
    est_pushdown_bytes: int
    est_fetch_bytes: int
    #: Actual wire bytes of the branch taken / the branch not taken,
    #: filled in when the op's reply arrives (None until then; both stay
    #: None when the op degraded to reconstruction instead).
    actual_chosen_bytes: int | None = None
    actual_alternative_bytes: int | None = None

    @property
    def decision(self) -> str:
        return "pushdown" if self.push_down else "fallback"

    @property
    def ex_post_optimal(self) -> bool | None:
        """Did the chosen branch move no more bytes than the alternative?

        ``None`` when the actual byte counts were never observed (the op
        fell back to degraded reconstruction, or never executed).
        """
        if self.actual_chosen_bytes is None or self.actual_alternative_bytes is None:
            return None
        return self.actual_chosen_bytes <= self.actual_alternative_bytes

    @property
    def bytes_saved(self) -> int | None:
        """Wire bytes the decision saved vs the alternative (negative: lost)."""
        if self.actual_chosen_bytes is None or self.actual_alternative_bytes is None:
            return None
        return self.actual_alternative_bytes - self.actual_chosen_bytes

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "object": self.object_name,
            "chunk": list(self.chunk_key),
            "stage": self.stage,
            "mode": self.mode,
            "selectivity": self.selectivity,
            "compressibility": self.compressibility,
            "cost_product": self.cost_product,
            "threshold": self.threshold,
            "decision": self.decision,
            "est_pushdown_bytes": self.est_pushdown_bytes,
            "est_fetch_bytes": self.est_fetch_bytes,
            "actual_chosen_bytes": self.actual_chosen_bytes,
            "actual_alternative_bytes": self.actual_alternative_bytes,
            "ex_post_optimal": self.ex_post_optimal,
            "bytes_saved": self.bytes_saved,
        }


@dataclass
class AuditSummary:
    """Aggregate decision-accuracy statistics over a set of records."""

    total: int = 0
    pushed: int = 0
    fallback: int = 0
    judged: int = 0  # records with both actual byte counts observed
    ex_post_optimal: int = 0
    bytes_saved: int = 0  # net wire bytes saved vs always-alternative

    @property
    def accuracy(self) -> float:
        """Fraction of judged decisions that were ex-post optimal."""
        return self.ex_post_optimal / self.judged if self.judged else 0.0

    @property
    def pushdown_fraction(self) -> float:
        """Fraction of all decisions that chose pushdown (0.0 when the
        run evaluated no decisions at all)."""
        return self.pushed / self.total if self.total else 0.0

    @property
    def judged_fraction(self) -> float:
        """Fraction of decisions whose actual byte counts were observed
        (0.0 on a zero-decision run)."""
        return self.judged / self.total if self.total else 0.0

    @property
    def mean_bytes_saved(self) -> float:
        """Mean wire bytes saved per judged decision (0.0 when none)."""
        return self.bytes_saved / self.judged if self.judged else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "pushed": self.pushed,
            "fallback": self.fallback,
            "judged": self.judged,
            "ex_post_optimal": self.ex_post_optimal,
            "accuracy": self.accuracy,
            "pushdown_fraction": self.pushdown_fraction,
            "judged_fraction": self.judged_fraction,
            "bytes_saved": self.bytes_saved,
            "mean_bytes_saved": self.mean_bytes_saved,
        }


class PushdownAuditLog:
    """Append-only log of Cost-Equation evaluations for one store."""

    def __init__(self, sim, enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        self.records: list[PushdownAuditRecord] = []

    def record(
        self,
        object_name: str,
        chunk_key: tuple,
        stage: str,
        mode: str,
        decision,
        threshold: float = 1.0,
    ) -> PushdownAuditRecord | None:
        """Append one evaluation (``decision`` is a PushdownDecision).

        Returns the record so the caller can fill in the actual byte
        counts once the op has executed, or ``None`` when disabled.
        """
        if not self.enabled:
            return None
        rec = PushdownAuditRecord(
            time=self.sim.now,
            object_name=object_name,
            chunk_key=tuple(chunk_key),
            stage=stage,
            mode=mode,
            selectivity=decision.selectivity,
            compressibility=decision.compressibility,
            cost_product=decision.cost_product,
            threshold=threshold,
            push_down=decision.push_down,
            est_pushdown_bytes=decision.pushdown_bytes,
            est_fetch_bytes=decision.fetch_bytes,
        )
        self.records.append(rec)
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            tracer.instant(
                "pushdown.decision",
                cat="audit",
                obj=object_name,
                chunk=str(chunk_key),
                stage=stage,
                decision=rec.decision,
                selectivity=round(decision.selectivity, 6),
                compressibility=round(decision.compressibility, 6),
                cost_product=round(decision.cost_product, 6),
            )
        return rec

    def for_object(self, name: str) -> list[PushdownAuditRecord]:
        return [r for r in self.records if r.object_name == name]

    def since(self, time: float) -> list[PushdownAuditRecord]:
        return [r for r in self.records if r.time >= time]

    def summary(self, records: list[PushdownAuditRecord] | None = None) -> AuditSummary:
        out = AuditSummary()
        for rec in self.records if records is None else records:
            out.total += 1
            if rec.push_down:
                out.pushed += 1
            else:
                out.fallback += 1
            saved = rec.bytes_saved
            if saved is not None:
                out.judged += 1
                out.bytes_saved += saved
                if rec.ex_post_optimal:
                    out.ex_post_optimal += 1
        return out


__all__ = ["AuditSummary", "PushdownAuditLog", "PushdownAuditRecord"]
