"""Hindsight linear programs and bid prices.

A small dense-tableau simplex solves the per-customer assignment LP (the
upper bound on any online policy) and the restricted masters of the
choice-based LP, whose exponentially many assortment columns are generated
on demand by the single-shot assortment oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, isnan

import numpy as np

from .choice import choice_probs, optimize_assortment
from .engine import check_products, validate
from .errors import DomainError, SolverLimitError, as_int, as_real, as_tuple

PIVOT_TOL = 1e-9
# a pivot on a tableau of at most WHOLE_PIVOT_CELLS cells runs its ratio test
# in Python and updates the tableau whole; on a larger one it runs the test in
# numpy and updates blocks of at most PIVOT_BLOCK_CELLS touched cells
WHOLE_PIVOT_CELLS = 4_096
PIVOT_BLOCK_CELLS = 16_384
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
    (objective, x, duals), and (0.0, [], []) as arrays for the LP with no
    variables and no constraints.  max_iter, an integer >= 0 under
    errors.as_int, bounds the pivots (default 50 (m + n) + 1000); a last
    optimality check follows them.

    The ratio test reads a row whose pivot-column entry is not above
    PIVOT_TOL as inf and takes the first least ratio; the first row within
    1e-12 of it leaves, or under Bland's rule the tied row whose basic
    variable has the lowest index.  A NaN ratio, which only a tableau
    overflowed past the largest float gives, raises SolverLimitError.  On
    a tableau of at most WHOLE_PIVOT_CELLS cells, such as a 12-row
    choice-LP master, it reads the pivot column and the right-hand side
    once each with tolist() and scans them in Python, about 2.8 us a pivot
    against 4.4 us for numpy's calls; on a larger one it runs in numpy,
    about 4.6 us a pivot on the 120 rows of an n = 60 assignment LP, where
    the Python scan takes 14 us.  Both give the same row: Python's / is
    numpy's IEEE division, and a positive entry whose ratio overflows to
    inf ties with the rows read as inf.

    A pivot updates only the touched rows, those whose pivot-column entry
    exceeds 1e-14 in size.  A tableau of at most WHOLE_PIVOT_CELLS cells
    is updated whole, by one subtraction of the multipliers times the
    scaled pivot row masked by `where=` to the touched rows: a touched row
    gets a full-row update's arithmetic, and no other row is written.  A
    larger tableau, such as the 121 x 2071 one of the n = 60 adversarial
    instance, updates only the touched rows times the columns where the
    scaled pivot row is nonzero and the right-hand side, gathering each
    block of at most PIVOT_BLOCK_CELLS cells with one flat `take`,
    subtracting in place and scattering it back.  A cell it writes gets
    the float a full-row update gives it; a skipped cell would have had a
    zero subtracted, which can only turn -0.0 into +0.0.  So on either
    path the pivots, the right-hand side (x and the objective) and the
    duals, whose slack columns hold no -0.0, are the floats of a full-row
    update.  The cut sits where the two updates cost the same on k = 1
    adversarial assignment LPs.
    """
    try:
        A, b, c = (np.asarray(x, dtype=float) for x in (A, b, c))
    except (TypeError, ValueError) as exc:  # ragged, or not numbers
        raise DomainError("simplex_max needs arrays of numbers: %s" % exc) from None
    if A.ndim != 2 or b.shape != A.shape[:1] or c.shape != A.shape[1:]:
        raise DomainError("simplex_max needs A of shape (m, n), b of m and c of n entries, "
                          "got shapes %s, %s and %s" % (A.shape, b.shape, c.shape))
    m, nv = A.shape
    if (b < -PIVOT_TOL).any():
        raise DomainError("simplex_max requires b >= 0")
    b = np.maximum(b, 0.0)
    if max_iter is None:
        max_iter = 50 * (m + nv) + 1000
    max_iter = as_int(max_iter, 0, "max_iter")
    if m + nv == 0:  # no variables and no constraints: optimal as it stands
        return 0.0, np.zeros(0), np.zeros(0)
    bland_after = max_iter // 2

    # tableau: [A | I | b] with objective row [-c | 0 | 0] on top of it
    T = np.zeros((m + 1, nv + m + 1))
    T[:m, :nv] = A
    np.fill_diagonal(T[:m, nv : nv + m], 1.0)
    T[:m, -1] = b
    T[m, :nv] = -c
    if not np.isfinite(T).all():  # one pass over A, b and c together
        raise DomainError("simplex_max needs finite A, b and c")
    basis = list(range(nv, nv + m))
    # views into T, kept across pivots; one ratio buffer
    costs, rhs, ratios = T[m, :-1], T[:m, -1], np.empty(m)
    flat, width = T.reshape(-1), T.shape[1]
    whole = T.size <= WHOLE_PIVOT_CELLS

    for it in range(max_iter + 1):  # max_iter pivots, then a last optimality check
        if it < bland_after:
            e = int(costs.argmin())
            if costs[e] >= -PIVOT_TOL:
                break
        else:
            neg = np.flatnonzero(costs < -PIVOT_TOL)
            if len(neg) == 0:
                break
            e = int(neg[0])
        if it == max_iter:
            raise SolverLimitError("simplex iteration limit reached")
        col = T[:, e]
        if whole:
            # the same ratio test on Python floats, each column read once
            colv = col.tolist()
            ratio = [v / a if a > PIVOT_TOL else inf for v, a in zip(rhs.tolist(), colv)]
            if isnan(sum(ratio)) and any(map(isnan, ratio)):
                raise SolverLimitError("simplex tableau overflowed")
            least = min(ratio) if m else inf
            if least == inf and not any(a > PIVOT_TOL for a in colv[:m]):
                raise SolverLimitError("unbounded LP")
            cut = least + 1e-12
            if it >= bland_after:
                leave = min((r for r, q in enumerate(ratio) if q <= cut), key=basis.__getitem__)
            else:
                for leave, q in enumerate(ratio):
                    if q <= cut:
                        break
            pivot = colv[leave]
        else:
            pos = col[:m] > PIVOT_TOL
            ratios.fill(np.inf)
            np.divide(rhs, col[:m], out=ratios, where=pos)
            least = ratios[ratios.argmin()] if m else np.inf
            if least != least:  # argmin takes the first NaN
                raise SolverLimitError("simplex tableau overflowed")
            if least == np.inf and not pos.any():
                raise SolverLimitError("unbounded LP")
            ties = ratios <= least + 1e-12
            if it >= bland_after:
                # Bland: leave the row whose basic variable has lowest index
                cand = np.flatnonzero(ties)
                leave = int(min(cand, key=lambda r: basis[r]))
            else:
                leave = int(ties.argmax())
            pivot = T[leave, e]
        row = T[leave]
        row /= pivot
        # eliminate the pivot column from the rows where it is nonzero
        touched = np.abs(col) > 1e-14
        touched[leave] = False
        if whole:
            np.subtract(T, col[:, None] * row, out=T, where=touched[:, None])
        else:
            # only the columns where the pivot row is nonzero and the
            # right-hand side, a block of rows at a time
            keep = row != 0
            keep[-1] = True
            nz = keep.nonzero()[0]
            rows = touched.nonzero()[0]
            mult, row_nz = col.take(rows), row.take(nz)
            step = max(1, PIVOT_BLOCK_CELLS // len(nz))
            for s in range(0, len(rows), step):
                idx = (rows[s : s + step] * width)[:, None] + nz
                vals = flat.take(idx)
                vals -= mult[s : s + step, None] * row_nz
                flat[idx] = vals
        basis[leave] = e

    x = np.zeros(nv)
    for v, xv in zip(basis, rhs.tolist()):
        if v < nv:
            x[v] = xv
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
        probs = arrivals.prob_table
        nv = int(np.count_nonzero(probs > 0.0))
    cells = (n + T_len + 1) * (nv + n + T_len + 1)
    if cells > MAX_TABLEAU_CELLS:
        raise SolverLimitError("primal LP too large (%d variables, %d tableau cells)"
                               % (nv, cells))

    if arrivals.kind == "deterministic":
        js = np.arange(prices.shape[1])
        probs = ((js >= 1) & (js <= np.asarray(arrivals.willing)[:, :, None])).astype(float)

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
    caps = (tuple(it.k for it in setup.items) if capacities is None
            else as_tuple(capacities, "capacities"))
    type_counts = as_tuple(type_counts, "type counts")
    _check_amounts(caps, setup.n, "capacities")
    _check_amounts(type_counts, model.n_types, "type counts")
    if pool:
        return _column_generation(setup, type_counts, model, products, caps, pool)
    sol, cols = _fresh_solve(setup, type_counts, model, tuple(map(tuple, products)), caps)
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
    for x in amounts:
        as_real(x, 0.0, "each of the " + name)


class _Master:
    """The restricted master's matrix and revenue vector, one column per
    pooled column in pool order.  The pool is copied in once; after that
    each new column is appended in place, and the buffer doubles when full,
    so a round costs no re-stacking of the whole pool."""

    MIN_WIDTH = 64  # columns the buffer holds at least at first

    def __init__(self, rows, pool):
        self.size = len(pool)
        width = max(self.MIN_WIDTH, 2 * self.size)
        self.A = np.empty((rows, width), order="F")  # column-major: appends are contiguous
        self.c = np.empty(width)
        if pool:
            self.A[:, : self.size] = np.array([col for col, _ in pool.values()]).T
            self.c[: self.size] = [rev for _, rev in pool.values()]

    def append(self, col, rev):
        if self.size == len(self.c):
            A, c = self.A, self.c
            self.A = np.empty((len(A), 2 * self.size), order="F")
            self.c = np.empty(2 * self.size)
            self.A[:, : self.size], self.c[: self.size] = A, c
        self.A[:, self.size] = col
        self.c[self.size] = rev
        self.size += 1

    def solve(self, b):
        return simplex_max(self.c[: self.size], self.A[:, : self.size], b)


def _column_generation(setup, type_counts, model, products, capacities, pool):
    n = setup.n
    A_types = model.n_types
    fares = [setup.items[i].priceset.price(j) for i, j in products]
    master = _Master(n + A_types, pool)

    def add_col(a, s):
        if (a, s) in pool:
            return False
        pool[a, s] = col_rev = _column_for(model, a, s, products, fares, n, A_types)
        master.append(*col_rev)
        return True

    # start from each type's myopic-best assortment
    for a in range(A_types):
        s, _ = optimize_assortment(model, a, fares)
        if s:
            add_col(a, s)

    b = np.array([float(c) for c in capacities] + [float(cnt) for cnt in type_counts])
    obj, x = 0.0, ()
    y, z = [0.0] * n, [0.0] * A_types  # Python floats: pricing does scalar arithmetic on them
    for _ in range(MAX_COLGEN_ROUNDS):
        if pool:
            obj, x, duals = master.solve(b)
            y = duals[:n].tolist()
            z = duals[n:].tolist()
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
