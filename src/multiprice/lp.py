"""Hindsight linear programs and bid prices.

A small dense-tableau simplex solves the per-customer assignment LP (the
upper bound on any online policy) and the restricted masters of the
choice-based LP, whose exponentially many assortment columns are generated
on demand by the single-shot assortment oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .choice import optimize_assortment
from .engine import validate
from .errors import DomainError, SolverLimitError

PIVOT_TOL = 1e-9
MAX_NONZEROS = 100_000


@dataclass
class LpSolution:
    objective: float
    primal: dict
    duals_items: list
    duals_arrivals: list
    meta: dict = field(default_factory=dict)


def simplex_max(c, A, b, max_iter=None):
    """Maximize c'x subject to Ax <= b, x >= 0, with b >= 0.

    Dense tableau, slack starting basis, largest-coefficient pivoting with
    a switch to Bland's rule to break potential cycling.  Returns
    (objective, x, duals).  Degenerate ties go to the lowest row index.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, nv = A.shape
    if np.any(b < -PIVOT_TOL):
        raise DomainError("simplex_max requires b >= 0")
    b = np.maximum(b, 0.0)
    if max_iter is None:
        max_iter = 50 * (m + nv) + 1000
    bland_after = max_iter // 2

    # tableau: [A | I | b] with objective row [-c | 0 | 0] on top of it
    T = np.zeros((m + 1, nv + m + 1))
    T[:m, :nv] = A
    T[:m, nv : nv + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :nv] = -c
    basis = list(range(nv, nv + m))

    for it in range(max_iter):
        costs = T[m, :-1]
        if it < bland_after:
            e = int(np.argmin(costs))
            if costs[e] >= -PIVOT_TOL:
                break
        else:
            neg = np.flatnonzero(costs < -PIVOT_TOL)
            if len(neg) == 0:
                break
            e = int(neg[0])
        col = T[:m, e]
        pos = col > PIVOT_TOL
        if not np.any(pos):
            raise SolverLimitError("unbounded LP")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        cand = np.flatnonzero(ratios <= rmin + 1e-12)
        if it >= bland_after:
            # Bland: leave the row whose basic variable has lowest index
            leave = int(min(cand, key=lambda r: basis[r]))
        else:
            leave = int(cand[0])
        piv = T[leave, e]
        T[leave] /= piv
        for r in range(m + 1):
            if r != leave and abs(T[r, e]) > 1e-14:
                T[r] -= T[r, e] * T[leave]
        basis[leave] = e
    else:
        raise SolverLimitError("simplex iteration limit reached")

    x = np.zeros(nv)
    for r, v in enumerate(basis):
        if v < nv:
            x[v] = T[r, -1]
    duals = T[m, nv : nv + m].copy()
    return float(T[m, -1]), x, duals


def solve_primal(setup, arrivals):
    """Hindsight assignment LP: x[t, i, j] is the chance that customer t is
    offered item i at price j, accepted with probability p; at most
    one offer per customer, expected sales within inventory.  Deterministic
    (p = 1) and single-offer arrivals only."""
    if arrivals.kind not in ("deterministic", "single_offer"):
        raise DomainError("solve_primal expects deterministic or single_offer arrivals")
    validate(setup, arrivals)
    n = setup.n
    T_len = arrivals.T

    # variables: one per (t, i, j) with positive probability
    var_keys = []
    var_p = []
    var_r = []
    if arrivals.kind == "deterministic":
        willing = np.asarray(arrivals.willing, dtype=int)
        for t in range(T_len):
            for i in range(n):
                for j in range(1, int(willing[t, i]) + 1):
                    var_keys.append((t, i, j))
                    var_p.append(1.0)
                    var_r.append(setup.items[i].priceset.price(j))
    else:
        for t, row in enumerate(arrivals.probs):
            for i in range(n):
                for j, p in enumerate(row[i], start=1):
                    if p > 0.0:
                        var_keys.append((t, i, j))
                        var_p.append(p)
                        var_r.append(setup.items[i].priceset.price(j))

    nv = len(var_keys)
    if nv * 2 > MAX_NONZEROS:
        raise SolverLimitError("primal LP too large (%d variables)" % nv)
    A = np.zeros((n + T_len, nv))
    # expected units sold count against inventory; the offers made to one
    # customer, accepted or not, are at most one in total
    for v, ((t, i, j), p) in enumerate(zip(var_keys, var_p)):
        A[i, v] = p
        A[n + t, v] = 1.0
    b = np.array([it.k for it in setup.items] + [1.0] * T_len, dtype=float)
    c = np.array(var_p) * np.array(var_r)

    obj, x, duals = simplex_max(c, A, b)
    primal = {k: xv for k, xv in zip(var_keys, x) if xv > 1e-12}
    return LpSolution(
        objective=obj,
        primal=primal,
        duals_items=list(duals[:n]),
        duals_arrivals=list(duals[n:]),
    )


def _column_for(model, a, assortment, products, fares, n_items, n_types):
    """Master column of offering `assortment` to one type-a customer."""
    from .choice import choice_probs

    probs, _ = choice_probs(model, a, assortment)
    col = np.zeros(n_items + n_types)
    rev = 0.0
    for p, prob in probs.items():
        i, _ = products[p]
        col[i] += prob
        rev += prob * fares[p]
    col[n_items + a] = 1.0
    return col, rev


class ColumnPool:
    """Reusable (type, assortment) columns across repeated choice-LP solves
    with the same model/products/fares (only capacities and counts vary)."""

    def __init__(self):
        self.cols = []  # (a, assortment, column vector, revenue)
        self.seen = set()


def solve_choice_lp(setup, type_counts, model, products, capacities=None,
                    family="unconstrained", tol=1e-7, max_columns=10_000,
                    pool=None):
    """Choice-based LP by column generation.

    Variables x_a(S) = number of type-a customers shown assortment S;
    inventory rows and per-type count rows (the count rows are <=, which is
    lossless because the empty assortment consumes and earns nothing).
    The pricing subproblem is the single-shot assortment oracle with
    adjusted values fare - y_i.  Returns bid prices y_i as item duals.
    """
    n = setup.n
    A_types = model.n_types
    if len(type_counts) != A_types:
        raise DomainError("type_counts length mismatch")
    if any(cnt < 0 for cnt in type_counts):
        raise DomainError("negative type count")
    caps = [it.k for it in setup.items] if capacities is None else list(capacities)
    fares = [setup.items[i].priceset.price(j) for i, j in products]

    if pool is None:
        pool = ColumnPool()
    cols = pool.cols
    seen = pool.seen

    def add_col(a, s):
        key = (a, s)
        if key in seen:
            return False
        col, rev = _column_for(model, a, s, products, fares, n, A_types)
        cols.append((a, s, col, rev))
        seen.add(key)
        return True

    # start from each type's myopic-best assortment
    for a in range(A_types):
        s, _ = optimize_assortment(model, a, fares, family=family)
        if s:
            add_col(a, s)

    b = np.array([float(c) for c in caps] + [float(cnt) for cnt in type_counts])
    y = np.zeros(n)
    z = np.zeros(A_types)
    obj = 0.0
    x = np.zeros(0)
    gap = None
    for _ in range(max_columns):
        if cols:
            A_mat = np.column_stack([col for _, _, col, _ in cols])
            c_vec = np.array([rev for _, _, _, rev in cols])
            obj, x, duals = simplex_max(c_vec, A_mat, b)
            y = duals[:n]
            z = duals[n:]
        # pricing: each type's best assortment under fare - y; a type with
        # no customers prices at 0 and adds nothing
        pi = [fares[p] - y[products[p][0]] for p in range(len(products))]
        priced = [optimize_assortment(model, a, pi, family=family) if type_counts[a] > 0
                  else ((), 0.0) for a in range(A_types)]
        added = False
        for a, (s, v) in enumerate(priced):
            if v > z[a] + tol and s:
                added = add_col(a, s) or added
        if not added:
            gap = 0.0
            break
    else:
        # iteration guard: report the duality-gap bound instead of looping
        best_bound = obj + sum(max(v - z[a], 0.0) * type_counts[a]
                               for a, (_, v) in enumerate(priced))
        gap = best_bound - obj

    primal = {
        (cols[v][0], cols[v][1]): x[v] for v in range(len(cols)) if len(x) and x[v] > 1e-12
    }
    return LpSolution(
        objective=obj,
        primal=primal,
        duals_items=[max(v, 0.0) for v in y],
        duals_arrivals=list(z),
        meta={"columns": len(cols), "gap": gap},
    )
