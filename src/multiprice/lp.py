"""Hindsight linear programs and bid prices.

A small dense-tableau simplex solves the per-customer assignment LP (the
upper bound on any online policy) and the restricted masters of the
choice-based LP, whose exponentially many assortment columns are generated
on demand by the single-shot assortment oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .choice import choice_probs, optimize_assortment
from .engine import check_products, validate
from .errors import DomainError, SolverLimitError

PIVOT_TOL = 1e-9
# the largest simplex tableau solve_primal builds, in cells of 8 bytes
MAX_TABLEAU_CELLS = 10_000_000
# column generation stops once no new column prices above its type's dual
# by more than COLGEN_TOL, or after MAX_COLGEN_ROUNDS master solves
COLGEN_TOL = 1e-7
MAX_COLGEN_ROUNDS = 10_000


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
    # views into T, kept across pivots; one ratio buffer
    costs, rhs, ratios = T[m, :-1], T[:m, -1], np.empty(m)

    for it in range(max_iter):
        if it < bland_after:
            e = int(costs.argmin())
            if costs[e] >= -PIVOT_TOL:
                break
        else:
            neg = np.flatnonzero(costs < -PIVOT_TOL)
            if len(neg) == 0:
                break
            e = int(neg[0])
        col = T[:, e]
        pos = col[:m] > PIVOT_TOL
        if not pos.any():
            raise SolverLimitError("unbounded LP")
        ratios.fill(np.inf)
        np.divide(rhs, col[:m], out=ratios, where=pos)
        ties = ratios <= ratios.min() + 1e-12
        if it >= bland_after:
            # Bland: leave the row whose basic variable has lowest index
            cand = np.flatnonzero(ties)
            leave = int(min(cand, key=lambda r: basis[r]))
        else:
            leave = int(ties.argmax())
        piv = T[leave, e]
        T[leave] /= piv
        # eliminate the pivot column only from the rows where it is nonzero
        row = T[leave]
        for r in (np.abs(col) > 1e-14).nonzero()[0].tolist():
            if r != leave:
                T[r] -= col[r] * row
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
    arrivals accept with p = 1 every price up to their willingness;
    single-offer arrivals carry their own p."""
    validate(setup, arrivals, "solve_primal", "deterministic", "single_offer")
    n = setup.n
    T_len = arrivals.T
    prices = setup.price_table  # prices[i, j] = r_i(j), 0 past item i's prices

    # one variable per (t, i, j) with positive probability; the tableau has a
    # row per constraint and the objective, a column per variable, slack and b
    if arrivals.kind == "deterministic":
        rows, counts = arrivals.runs
        nv = int(counts @ rows.sum(axis=1))
    else:
        nv = sum(p > 0.0 for row in arrivals.probs for r in row for p in r)
    cells = (n + T_len + 1) * (nv + n + T_len + 1)
    if cells > MAX_TABLEAU_CELLS:
        raise SolverLimitError("primal LP too large (%d variables, %d tableau cells)"
                               % (nv, cells))

    # probs[t, i, j]: the chance customer t buys item i at price j if offered
    if arrivals.kind == "deterministic":
        js = np.arange(prices.shape[1])
        probs = ((js >= 1) & (js <= np.asarray(arrivals.willing)[:, :, None])).astype(float)
    else:
        probs = np.zeros((T_len,) + prices.shape)
        for t, row in enumerate(arrivals.probs):
            for i, p_i in enumerate(row):
                probs[t, i, 1 : len(p_i) + 1] = p_i

    tv, iv, jv = np.nonzero(probs > 0.0)  # the variables in (t, i, j) order
    p = probs[tv, iv, jv]
    A = np.zeros((n + T_len, nv))
    # expected units sold count against inventory; the offers made to one
    # customer, accepted or not, are at most one in total
    A[iv, np.arange(nv)] = p
    A[n + tv, np.arange(nv)] = 1.0
    b = np.array([it.k for it in setup.items] + [1.0] * T_len, dtype=float)
    c = p * prices[iv, jv]

    obj, x, duals = simplex_max(c, A, b)
    var_keys = zip(tv.tolist(), iv.tolist(), jv.tolist())
    primal = {k: xv for k, xv in zip(var_keys, x) if xv > 1e-12}
    return LpSolution(
        objective=obj,
        primal=primal,
        duals_items=list(duals[:n]),
        duals_arrivals=list(duals[n:]),
    )


def _column_for(model, a, assortment, products, fares, n_items, n_types):
    """Master column of offering `assortment` to one type-a customer."""
    probs, _ = choice_probs(model, a, assortment)
    col = np.zeros(n_items + n_types)
    rev = 0.0
    for p, prob in probs.items():
        i, _ = products[p]
        col[i] += prob
        rev += prob * fares[p]
    col[n_items + a] = 1.0
    return col, rev


def solve_choice_lp(setup, type_counts, model, products, capacities=None, pool=None):
    """Choice-based LP by column generation.

    Variables x_a(S) = number of type-a customers shown assortment S;
    inventory rows and per-type count rows (the count rows are <=, which is
    lossless because the empty assortment consumes and earns nothing).
    The pricing subproblem is the single-shot assortment oracle with
    adjusted values fare - y_i.  Returns bid prices y_i as item duals.

    The pool, a dict {(type, assortment): (column, revenue)} in the order
    the columns were generated, carries columns across solves with the same
    model, products and fares.  A solve from a fresh pool (None or empty)
    is memoized on the other arguments (8 entries) and fills the pool, if
    given, with the columns that solve generated.
    """
    check_products(setup, products)
    caps = tuple(it.k for it in setup.items) if capacities is None else tuple(capacities)
    _check_amounts(caps, setup.n, "capacities")
    _check_amounts(type_counts, model.n_types, "type counts")
    if pool:
        return _column_generation(setup, type_counts, model, products, caps, pool)
    sol, cols = _fresh_solve(setup, tuple(type_counts), model, tuple(map(tuple, products)),
                             caps)
    if pool is not None:
        pool.update(cols)
    return LpSolution(sol.objective, dict(sol.primal), list(sol.duals_items),
                      list(sol.duals_arrivals), dict(sol.meta))


@lru_cache(maxsize=8)
def _fresh_solve(setup, type_counts, model, products, capacities):
    """The solution from an empty pool and the columns it generated, which
    are shared with every later caller's pool and so made read-only."""
    pool = {}
    sol = _column_generation(setup, type_counts, model, products, capacities, pool)
    for col, _ in pool.values():
        col.flags.writeable = False
    return sol, tuple(pool.items())


def _check_amounts(amounts, n, name):
    """Raise DomainError unless amounts holds n finite real numbers >= 0."""
    if len(amounts) != n:
        raise DomainError("%s needs %d entries, got %d" % (name, n, len(amounts)))
    if not all(isinstance(x, numbers.Real) and 0.0 <= x < math.inf for x in amounts):
        raise DomainError("%s must be finite numbers >= 0, got %r" % (name, amounts))


def _column_generation(setup, type_counts, model, products, capacities, pool):
    n = setup.n
    A_types = model.n_types
    fares = [setup.items[i].priceset.price(j) for i, j in products]

    def add_col(a, s):
        if (a, s) in pool:
            return False
        pool[a, s] = _column_for(model, a, s, products, fares, n, A_types)
        return True

    # start from each type's myopic-best assortment
    for a in range(A_types):
        s, _ = optimize_assortment(model, a, fares)
        if s:
            add_col(a, s)

    b = np.array([float(c) for c in capacities] + [float(cnt) for cnt in type_counts])
    obj, x = 0.0, ()
    y, z = np.zeros(n), np.zeros(A_types)
    for _ in range(MAX_COLGEN_ROUNDS):
        if pool:
            A_mat = np.column_stack([col for col, _ in pool.values()])
            c_vec = np.array([rev for _, rev in pool.values()])
            obj, x, duals = simplex_max(c_vec, A_mat, b)
            y = duals[:n]
            z = duals[n:]
        # pricing: each type's best assortment under fare - y; a type with
        # no customers prices at 0 and adds nothing
        pi = [fares[p] - y[products[p][0]] for p in range(len(products))]
        priced = [optimize_assortment(model, a, pi) if type_counts[a] > 0
                  else ((), 0.0) for a in range(A_types)]
        added = False
        for a, (s, v) in enumerate(priced):
            if v > z[a] + COLGEN_TOL and s:
                added = add_col(a, s) or added
        if not added:
            break
    # stalled on pooled columns or at the iteration guard: the objective is
    # within sum_a max(v_a - z_a, 0) * count_a of the LP optimum
    gap = 0.0
    if any(v > z[a] + COLGEN_TOL for a, (_, v) in enumerate(priced)):
        gap = sum(max(v - z[a], 0.0) * type_counts[a] for a, (_, v) in enumerate(priced))

    # at the iteration guard the columns of the last round are unsolved
    primal = {key: xv for key, xv in zip(pool, x) if xv > 1e-12}
    return LpSolution(
        objective=obj,
        primal=primal,
        duals_items=[max(v, 0.0) for v in y],
        duals_arrivals=list(z),
        meta={"columns": len(pool), "gap": gap},
    )
