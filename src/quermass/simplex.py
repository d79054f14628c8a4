"""Dense two-phase revised simplex for support-function LPs, by constraint generation.

Solves  max u.x  subject to  D x <= f  where the rows of D are sampled
directions and f are gauge values.  The dual,  min f.lam  s.t.
D^T lam = u, lam >= 0,  has only n equality rows (n <= 8 in practice), so
a dense revised simplex with Bland's anti-cycling rule is adequate and
dependency-free.  Dual infeasibility certifies that u is not in the
positive span of the directions, i.e. the primal is unbounded.

``support_lp`` does not hand all m rows to the simplex.  It solves on the
2n rows whose d.u is largest, checks the optimum x against every row in
O(mn), adds the violated rows and solves again (cutting planes, as in
Clarkson's constraint sampling); a subset that is unbounded is doubled.
Each subset's dual optimum lam, padded with zeros, is dual-feasible for
the full LP, so by weak duality every subset value f.lam is an upper
bound for the full optimum.  The loop stops when x satisfies every row,
which makes x feasible for the full LP and the value equal to its optimum.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, WulffUnboundedError

#: Pivoting and feasibility tolerance of the simplex steps.
TOL = 1e-9

#: Relative slack within which a row counts as satisfied (or, with the sign
#: turned, as tight) at an optimum x:  d.x <= f + SLACK (1 + |f|).
SLACK = 1e-13


class _DualUnbounded(Exception):
    pass


def _simplex_core(A, b, c, basis, allowed, max_iter):
    """Minimize c.lam s.t. A lam = b, lam >= 0 starting from a feasible basis.

    ``allowed`` marks columns permitted to enter the basis.  Bland's rule
    (lowest eligible index) is used throughout, which precludes cycling.
    Returns (basis, lam_B).
    """
    n = A.shape[0]
    basis = list(basis)
    for _ in range(max_iter):
        B = A[:, basis]
        try:
            lam_B = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular basis in simplex") from exc
        lam_B = np.where(lam_B < 0.0, 0.0, lam_B)
        reduced = c - A.T @ y
        candidates = np.flatnonzero(allowed & (reduced < -TOL))
        if candidates.size == 0:
            return basis, lam_B
        enter = int(candidates[0])
        w = np.linalg.solve(B, A[:, enter])
        positive = np.flatnonzero(w > TOL)
        if positive.size == 0:
            raise _DualUnbounded()
        ratios = lam_B[positive] / w[positive]
        theta = ratios.min()
        ties = positive[ratios <= theta + TOL * (1.0 + abs(theta))]
        leave_pos = min(ties, key=lambda i: basis[i])
        basis[leave_pos] = enter
    raise NumericalError("simplex iteration limit exceeded")


def support_lp(directions: np.ndarray, values: np.ndarray, u: np.ndarray):
    """Maximize u.x over {x : directions @ x <= values}.

    The simplex runs on a subset of the rows that grows by constraint
    generation (see the module docstring); the result is that of the full
    row set.

    Parameters
    ----------
    directions : (m, n) array
        Constraint normals (grid directions); must positively span R^n for
        the problem to be bounded.
    values : (m,) array
        Right-hand sides (gauge values), all >= 0 so that x = 0 is feasible.
    u : (n,) array
        Objective direction.

    Returns
    -------
    value : float
        The optimal objective value.
    x : (n,) array
        An optimal point; it satisfies the rows the simplex saw within
        ``TOL`` and every other row within ``SLACK (1 + |f|)``.

    Raises
    ------
    WulffUnboundedError
        If the LP is unbounded (directions do not positively span R^n).
    """
    D = np.asarray(directions, dtype=float)
    f = np.asarray(values, dtype=float)
    u = np.asarray(u, dtype=float)
    m, n = D.shape
    if f.shape != (m,):
        raise NumericalError("constraint value vector has wrong length")
    order = np.argsort(-(D @ u), kind="stable")
    active = np.zeros(m, dtype=bool)
    active[order[:2 * n]] = True
    while True:
        rows = np.flatnonzero(active)
        try:
            value, x = _dense_lp(D[rows], f[rows], u)
        except WulffUnboundedError:
            more = order[~active[order]][:rows.size]
            if more.size == 0:
                raise
            active[more] = True
            continue
        violated = ~active & (D @ x > f + SLACK * (1.0 + np.abs(f)))
        if not violated.any():
            return value, x
        active |= violated


def _dense_lp(D: np.ndarray, f: np.ndarray, u: np.ndarray):
    """``support_lp`` on all rows of D at once: the two-phase simplex itself."""
    m, n = D.shape
    A = np.hstack([D.T, np.diag(np.where(u >= 0.0, 1.0, -1.0))])  # (n, m+n)
    b = u
    max_iter = 50 * (m + n) + 200

    # Phase 1: drive artificial variables to zero.
    c1 = np.concatenate([np.zeros(m), np.ones(n)])
    allowed = np.ones(m + n, dtype=bool)
    basis = list(range(m, m + n))
    try:
        basis, lam_B = _simplex_core(A, b, c1, basis, allowed, max_iter)
    except _DualUnbounded as exc:
        raise NumericalError("phase-1 subproblem unbounded") from exc
    if float(c1[basis] @ lam_B) > 1e3 * TOL * (1.0 + np.abs(u).sum()):
        raise WulffUnboundedError(
            "support LP unbounded: sampled directions do not positively span "
            "the objective direction; refine the grid"
        )
    # Pivot each residual artificial (at zero level) out of the basis.  If no
    # real column can replace the artificial of row q, row q of the real
    # columns is a combination of the other rows: drop it and its basis slot.
    rows = list(range(n))
    pos = 0
    while pos < len(basis):
        if basis[pos] < m:
            pos += 1
            continue
        B = A[np.ix_(rows, basis)]
        for j in range(m):
            if j in basis:
                continue
            w = np.linalg.solve(B, A[rows, j])
            if abs(w[pos]) > 1e3 * TOL:
                basis[pos] = j
                pos += 1
                break
        else:
            rows.remove(basis.pop(pos) - m)
    A, b = A[rows], b[rows]

    # Phase 2: minimize the true cost over real columns only.
    c2 = np.concatenate([f, np.zeros(n)])
    allowed = np.concatenate([np.ones(m, dtype=bool), np.zeros(n, dtype=bool)])
    try:
        basis, lam_B = _simplex_core(A, b, c2, basis, allowed, max_iter)
    except _DualUnbounded as exc:
        # Dual unbounded below means the primal is infeasible; cannot occur
        # for values >= 0 (x = 0 feasible), so treat as numerical failure.
        raise NumericalError("dual simplex became unbounded") from exc

    # the primal point; a dropped (redundant) row leaves its coordinate at 0
    x = np.zeros(n)
    x[rows] = np.linalg.solve(A[:, basis].T, c2[basis])
    value = float(c2[basis] @ lam_B)
    direct = float(u @ x)
    if abs(direct - value) > 1e-6 * (1.0 + abs(value)):
        raise NumericalError("primal/dual objective mismatch in support LP")
    return value, x
