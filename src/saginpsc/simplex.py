"""Dense bounded-variable simplex for small linear programs.

Solves  min c'x  s.t.  A x <= b,  lower <= x <= upper  with a two-phase
primal simplex using Bland's rule throughout (cycling safety matters more
than speed at the K-by-K scale this repo needs).  Nonbasic variables start
at their lower bounds, so a zero objective returns the lower corner of the
box, which callers rely on as a deterministic tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LPResult", "solve_bounded_lp"]

_TOL = 1e-9
# Pivots allowed in each phase before a solve reports "infeasible".
_MAX_ITERS = 10000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float
    iterations: int


class _Tableau:
    """Bounded-variable simplex state over structural + slack (+ artificial)
    columns.  Basis inverse is re-solved densely each pivot; fine for the
    tiny systems this is used on."""

    def __init__(self, A: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                 basis: list[int], values: np.ndarray, at_upper: np.ndarray):
        self.A = A
        self.lower = lower
        self.upper = upper
        self.basis = basis
        self.values = values  # basic variable values, aligned with basis
        self.at_upper = at_upper  # nonbasic-at-upper flags (full length)
        self.m, self.n = A.shape

    def full_solution(self) -> np.ndarray:
        x = np.where(self.at_upper, self.upper, self.lower).astype(float)
        x[np.isinf(x)] = 0.0
        for i, j in enumerate(self.basis):
            x[j] = self.values[i]
        return x

    def iterate(self, c: np.ndarray) -> tuple[str, int]:
        for it in range(_MAX_ITERS):
            B = self.A[:, self.basis]
            y = np.linalg.solve(B.T, c[self.basis])
            reduced = c - y @ self.A
            in_basis = np.zeros(self.n, dtype=bool)
            in_basis[self.basis] = True

            entering = -1
            for j in range(self.n):  # Bland: lowest eligible index
                if in_basis[j]:
                    continue
                if self.lower[j] == self.upper[j]:
                    continue
                if not self.at_upper[j] and reduced[j] < -_TOL:
                    entering = j
                    break
                if self.at_upper[j] and reduced[j] > _TOL:
                    entering = j
                    break
            if entering < 0:
                return "optimal", it

            direction = -1.0 if self.at_upper[entering] else 1.0
            d = np.linalg.solve(B, self.A[:, entering])

            # Ratio test: entering moves by t >= 0 toward its other bound;
            # each basic variable must stay inside its own bounds.
            span = self.upper[entering] - self.lower[entering]
            t_max = span
            leaving = -1  # row index; -1 means bound flip of entering
            leave_to_upper = False
            for i in range(self.m):
                delta = direction * d[i]
                if delta > _TOL:
                    limit = (self.values[i] - self.lower[self.basis[i]]) / delta
                    hits_upper = False
                elif delta < -_TOL:
                    ub = self.upper[self.basis[i]]
                    if math.isinf(ub):
                        continue
                    limit = (ub - self.values[i]) / (-delta)
                    hits_upper = True
                else:
                    continue
                if limit < t_max - _TOL or (
                        limit < t_max + _TOL and
                        (leaving < 0 or self.basis[i] < self.basis[leaving])):
                    t_max = max(limit, 0.0)
                    leaving = i
                    leave_to_upper = hits_upper
            if math.isinf(t_max):
                return "unbounded", it

            self.values -= t_max * direction * d
            if leaving < 0:
                self.at_upper[entering] = not self.at_upper[entering]
                continue
            left = self.basis[leaving]
            self.at_upper[left] = leave_to_upper
            self.basis[leaving] = entering
            if self.at_upper[entering]:
                enter_val = self.upper[entering] - t_max
            else:
                enter_val = self.lower[entering] + t_max
            self.at_upper[entering] = False
            self.values[leaving] = enter_val
        return "iteration_limit", _MAX_ITERS


def solve_bounded_lp(c, A_ub, b_ub, lower, upper) -> LPResult:
    """Minimize ``c @ x`` subject to ``A_ub @ x <= b_ub`` and box bounds.

    Ties in the objective resolve to the lowest box corner reachable by
    Bland's rule from the all-lower start.  Returns status "infeasible"
    when phase 1 cannot clear the artificial variables.
    """
    c = np.asarray(c, dtype=float)
    A_ub = np.asarray(A_ub, dtype=float).reshape(-1, c.size)
    b_ub = np.asarray(b_ub, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, n = A_ub.shape

    # Structural + slack columns; artificials appended for rows violated at
    # the all-lower starting corner.
    A = np.hstack([A_ub, np.eye(m)])
    lo = np.concatenate([lower, np.zeros(m)])
    hi = np.concatenate([upper, np.full(m, np.inf)])

    x0 = lower.copy()
    resid = b_ub - A_ub @ x0
    art_rows = [i for i in range(m) if resid[i] < -_TOL]
    art_cols = {}
    if art_rows:
        extra = np.zeros((m, len(art_rows)))
        for idx, row in enumerate(art_rows):
            extra[row, idx] = -1.0
            art_cols[row] = n + m + idx
        A = np.hstack([A, extra])
        lo = np.concatenate([lo, np.zeros(len(art_rows))])
        hi = np.concatenate([hi, np.full(len(art_rows), np.inf)])

    total = A.shape[1]
    basis = []
    values = np.zeros(m)
    for i in range(m):
        if resid[i] < -_TOL:
            basis.append(art_cols[i])
            values[i] = -resid[i]
        else:
            basis.append(n + i)
            values[i] = resid[i]
    at_upper = np.zeros(total, dtype=bool)
    tab = _Tableau(A, lo, hi, basis, values, at_upper)

    iters = 0
    if art_rows:
        c1 = np.zeros(total)
        for col in art_cols.values():
            c1[col] = 1.0
        status, it = tab.iterate(c1)
        iters += it
        if status == "iteration_limit":
            return LPResult("infeasible", None, math.inf, iters)
        art_total = sum(tab.values[i] for i, j in enumerate(tab.basis)
                        if j >= n + m)
        x_full = tab.full_solution()
        art_total += sum(x_full[col] for col in art_cols.values()
                         if col not in tab.basis)
        if art_total > 1e-7:
            return LPResult("infeasible", None, math.inf, iters)
        # Pin artificials at zero and keep them; degenerate basics are fine.
        for col in art_cols.values():
            tab.upper[col] = 0.0

    c2 = np.zeros(total)
    c2[:n] = c
    status, it = tab.iterate(c2)
    iters += it
    if status == "unbounded":
        return LPResult("unbounded", None, -math.inf, iters)
    if status == "iteration_limit":
        return LPResult("infeasible", None, math.inf, iters)
    x = tab.full_solution()[:n]
    return LPResult("optimal", x, float(c @ x), iters)
