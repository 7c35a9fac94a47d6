"""The Oracle: exact ILP solution of the stripe-construction problem.

Implements the paper's Equation (1) — minimise the sum over bin sets of
the largest bin size — with ``scipy.optimize.milp`` standing in for
Gurobi.  Variables:

* ``x[i, j, l]`` ∈ {0, 1} — chunk ``i`` assigned to bin ``j`` of set ``l``;
* ``y[l]`` ≥ 0 — the largest bin size in set ``l`` (classic max
  linearisation: ``y[l] >= sum_i s_i x[i, j, l]`` for every bin ``j``).

The formulation is NP-complete; solve time explodes with chunk count
(Fig 10a), which is exactly why Fusion ships the greedy algorithm instead.
The solver always runs to a proved optimum, so only small instances
(Fig 10a's 6-18 chunks) call it.  At full file size FAC is measured
against :func:`optimal_objective_lower_bound`, which needs no solver.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from repro.core.layout import Bin, BinSet, ChunkItem, StripeLayout
from repro.ec.reed_solomon import CodeParams


class OracleError(Exception):
    """Raised when the ILP solver fails."""


def construct_oracle_layout(params: CodeParams, items: list[ChunkItem]) -> StripeLayout:
    """Solve the exact stripe-construction ILP to a proved optimum.

    Practical only for small chunk counts: seconds at 18 chunks, and the
    paper's Gurobi needs hours at 35.  ``build_seconds`` is the model
    build and solve, not scipy's import.  Raises :class:`OracleError` when
    the solver fails.
    """
    if not items:
        raise ValueError("no chunks to place")
    assignment, seconds = _solve_milp(params, items)
    layout = _layout_from_assignment(params, items, assignment)
    layout.build_seconds = seconds
    return layout


def _solve_milp(
    params: CodeParams, items: list[ChunkItem]
) -> tuple[list[tuple[int, int]], float]:
    """Return per-item ``(bin_set, bin)`` assignments via scipy's MILP,
    and the seconds taken once scipy is imported."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    start = time.perf_counter()
    sizes = [it.size for it in items]
    n_items = len(items)
    k = params.k
    m = math.ceil(n_items / k)
    capacity = max(sizes)

    # Variable vector: x[i, j, l] flattened, then y[l].
    nx = n_items * k * m
    nv = nx + m

    def xi(i: int, j: int, l: int) -> int:
        return (i * k + j) * m + l

    cost = np.zeros(nv)
    cost[nx:] = 1.0  # minimise sum of y[l]

    # Build the constraint matrix sparsely: real instances reach ~10^5
    # variables, far beyond what dense rows can hold.
    coo_rows: list[int] = []
    coo_cols: list[int] = []
    coo_vals: list[float] = []
    lbs: list[float] = []
    ubs: list[float] = []
    row_idx = 0

    # Each item in exactly one bin.
    for i in range(n_items):
        for j in range(k):
            for l in range(m):
                coo_rows.append(row_idx)
                coo_cols.append(xi(i, j, l))
                coo_vals.append(1.0)
        lbs.append(1.0)
        ubs.append(1.0)
        row_idx += 1

    # y[l] dominates every bin's load; bins respect the capacity C.
    for l in range(m):
        for j in range(k):
            for i in range(n_items):
                coo_rows.append(row_idx)
                coo_cols.append(xi(i, j, l))
                coo_vals.append(float(sizes[i]))
            coo_rows.append(row_idx)
            coo_cols.append(nx + l)
            coo_vals.append(-1.0)
            lbs.append(-np.inf)
            ubs.append(0.0)  # sum - y <= 0
            row_idx += 1

    matrix = csr_matrix(
        (coo_vals, (coo_rows, coo_cols)), shape=(row_idx, nv)
    )
    constraints = LinearConstraint(matrix, np.array(lbs), np.array(ubs))
    integrality = np.concatenate([np.ones(nx), np.zeros(m)])
    bounds = Bounds(
        lb=np.zeros(nv),
        ub=np.concatenate([np.ones(nx), np.full(m, float(capacity))]),
    )
    result = milp(c=cost, constraints=constraints, integrality=integrality, bounds=bounds)
    if not result.success:
        raise OracleError(f"MILP solver failed: {result.message}")

    assignment: list[tuple[int, int]] = []
    for i in range(n_items):
        best = None
        for j in range(k):
            for l in range(m):
                if result.x[xi(i, j, l)] > 0.5:
                    best = (l, j)
        if best is None:
            raise OracleError(f"item {i} unassigned in MILP solution")
        assignment.append(best)
    return assignment, time.perf_counter() - start


def _layout_from_assignment(
    params: CodeParams,
    items: list[ChunkItem],
    assignment: list[tuple[int, int]],
) -> StripeLayout:
    m = max(l for l, _ in assignment) + 1
    binsets = [BinSet(bins=[Bin() for _ in range(params.k)]) for _ in range(m)]
    for item, (l, j) in zip(items, assignment):
        binsets[l].bins[j].add(item)
    # Drop empty bin sets (the solver may leave trailing sets unused).
    used = [bs for bs in binsets if any(b.items for b in bs.bins)]
    return StripeLayout(params=params, binsets=used, strategy="oracle")


def optimal_objective_lower_bound(params: CodeParams, items: list[ChunkItem]) -> float:
    """A cheap lower bound on the ILP objective: ``max(total/k, max_chunk)``.

    Every layout's objective is at least this, so a layout's gap to it
    bounds its gap to the optimum without running the solver.  When
    ``total/k`` is the larger term, that gap times ``(n-k)/n`` is exactly
    :attr:`StripeLayout.overhead_vs_optimal`.
    """
    total = sum(it.size for it in items)
    return max(total / params.k, max(it.size for it in items))


def brute_force_optimal(params: CodeParams, items: list[ChunkItem]) -> int:
    """Exhaustive optimum for tiny instances (test oracle for the oracle).

    Enumerates all assignments of items to ``(set, bin)`` slots; factorial
    blow-up means callers should keep ``len(items) <= 7``.
    """
    k = params.k
    m = math.ceil(len(items) / k)
    best = math.inf
    slots = [(l, j) for l in range(m) for j in range(k)]
    capacity = max(it.size for it in items)
    for combo in itertools.product(slots, repeat=len(items)):
        loads: dict[tuple[int, int], int] = {}
        for item, slot in zip(items, combo):
            loads[slot] = loads.get(slot, 0) + item.size
        if any(v > capacity for v in loads.values()):
            continue
        per_set: dict[int, int] = {}
        for (l, _j), v in loads.items():
            per_set[l] = max(per_set.get(l, 0), v)
        best = min(best, sum(per_set.values()))
    return int(best)
