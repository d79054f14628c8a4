"""Convex bodies via support functions, p-combinations and Wulff shapes.

A convex body K is handled through its support function
h_K(u) = sup {u.y : y in K} sampled on unit directions.  For p in (0, 1]
and t in [0, 1] the p-combination (1-t).K_0 +_p t.K_1 is the Wulff shape
(Aleksandrov body) of the gauge

    f = ((1-t) h_0^p + t h_1^p)^{1/p},

and for p = 0 of the geometric mean h_0^{1-t} h_1^t, extended by 0
whenever either support value vanishes (for t strictly inside (0, 1)).
The Wulff shape of f is K[f] = {x : x.y <= f(y) for all sampled y}; its
support function never exceeds f, with equality when f is itself a
support function.  Sampling finitely many directions yields an outer
polyhedral approximation, so LP values are rigorous upper bounds for
h_{K[f]}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import Jet
from .errors import DomainError, UnsupportedBodyError
from .simplex import SLACK, support_lp
from .sphere import TestFunction


class Body:
    """Base class; subclasses implement vectorized ``support_values``.

    A smooth body is origin-symmetric: at -x its support jet has the value
    and the Hessian it has at x and the negated gradient.  The curvature
    quadratures rely on that to sum over one node of each antipodal pair.
    """

    #: Whether the support function is twice differentiable on the sphere.
    is_smooth = False

    def support_values(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def support_jet(self, U: np.ndarray) -> Jet:
        """Exact jet of a smooth extension of the support function to R^n.

        Q[h] and its derivatives are computed only from this jet, so a body
        without one has no curvature data.
        """
        raise DomainError(f"{type(self).__name__} has no exact support jet, so Q[h] "
                          "is not available for it")


@dataclass(frozen=True)
class Ball(Body):
    """Centered ball of a given radius; support is constant."""

    radius: float

    is_smooth = True

    def __post_init__(self):
        if not 0.0 <= self.radius < np.inf:
            raise DomainError("ball radius must be finite and non-negative")

    def support_values(self, U: np.ndarray) -> np.ndarray:
        return np.full(U.shape[0], float(self.radius))

    def support_jet(self, U: np.ndarray) -> Jet:
        """The constant extension R, so Q[h] = R I."""
        m, n = U.shape
        return Jet(self.support_values(U), np.zeros((m, n)), np.zeros((m, n, n)))


@dataclass(frozen=True)
class Box(Body):
    """Origin-symmetric axis-aligned box prod_i [-a_i, a_i].

    Zero half-lengths are allowed, so a lower-dimensional box, such as a
    cube spanning a coordinate subspace (``coordinate_cube``), is a Box too.
    """

    half_lengths: tuple[float, ...]

    def __post_init__(self):
        if not all(0.0 <= a < np.inf for a in self.half_lengths):
            raise DomainError("box half-lengths must be finite and non-negative")

    def support_values(self, U: np.ndarray) -> np.ndarray:
        a = np.asarray(self.half_lengths, dtype=float)
        return np.abs(U) @ a


def coordinate_cube(n: int, indices) -> Box:
    """The cube of side 2 spanning coordinates ``indices`` of R^n, as a Box.

    It is prod [-1, 1] over the indices and {0} on the other coordinates,
    so its support is the sum of |u_i| over the indices.
    """
    indices = tuple(indices)
    if any(i < 0 or i >= n for i in indices):
        raise DomainError("embedded cube indices out of range")
    if len(set(indices)) != len(indices):
        raise DomainError("embedded cube indices must be distinct")
    return Box(tuple(float(i in indices) for i in range(n)))


@dataclass(frozen=True)
class LogPerturbedBall(Body):
    """Smooth body with support e^{s psi} for an even polynomial psi.

    For small s * psi this stays inside the cone of support functions of
    smooth strictly convex bodies (Q[h] > 0).
    """

    psi: TestFunction
    s: float = 1.0

    is_smooth = True

    def support_values(self, U: np.ndarray) -> np.ndarray:
        return np.exp(self.s * self.psi(U))

    def support_jet(self, U: np.ndarray) -> Jet:
        """The extension e^{s psi(y)} with psi's polynomial continued to R^n."""
        return self.psi.jet(U).scaled(self.s).exp()


def _check_gauge(directions, values) -> tuple[np.ndarray, np.ndarray]:
    """(D, f) as float arrays: D an (m, n) array, f of shape (m,), both
    finite and f non-negative, else DomainError."""
    D = np.asarray(directions, dtype=float)
    f = np.asarray(values, dtype=float)
    if D.ndim != 2:
        raise DomainError(f"directions must be an (m, n) array, got shape {D.shape}")
    if f.shape != D.shape[:1]:
        raise DomainError(f"values must have shape ({D.shape[0]},), got {f.shape}")
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(f))):
        raise DomainError("directions and gauge values must be finite")
    if np.any(f < 0.0):
        raise DomainError("gauge values must be non-negative")
    return D, f


@dataclass(frozen=True)
class WulffSampled(Body):
    """Wulff shape of gauge values sampled on a fixed direction set.

    Support values are maxima of u.x over the outer polytope
    {x : d_j.x <= f_j}, which contains the true Wulff shape, so they are
    upper bounds for its support function.  Each is an LP solved by
    constraint generation (``simplex.support_lp``), except at a U row that
    is bitwise a direction d_j: there f_j itself bounds the support, and
    once an earlier LP optimum x (a point of the polytope) has
    d_j.x >= f_j - SLACK (1 + f_j), the row takes f_j without an LP.  The
    value is then still an upper bound and within that slack of the LP's.
    At such a row an LP value is capped at f_j too (the lesser of two upper
    bounds), so the support never exceeds the gauge at its own directions.
    """

    directions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_gauge(self.directions, self.values)

    def support_values(self, U: np.ndarray) -> np.ndarray:
        D = np.asarray(self.directions, dtype=float)
        f = np.asarray(self.values, dtype=float)
        U = np.asarray(U, dtype=float)
        # bitwise row -> index of the direction with the least gauge value
        node = {D[j].tobytes(): j for j in np.argsort(f)[::-1]}
        tight = np.zeros(D.shape[0], dtype=bool)
        out = np.empty(U.shape[0])
        for i, u in enumerate(U):
            j = node.get(u.tobytes())
            if j is not None and tight[j]:
                out[i] = f[j]
                continue
            value, x = support_lp(D, f, u)
            out[i] = value if j is None else min(value, f[j])
            tight |= D @ x >= f - SLACK * (1.0 + f)
        return out


def body_from_json(doc: dict) -> Body:
    kind = doc.get("type")
    if kind == "ball":
        return Ball(float(doc["radius"]))
    if kind == "box":
        return Box(tuple(float(a) for a in doc["half_lengths"]))
    if kind == "embedded_cube":
        return coordinate_cube(int(doc["dimension"]), (int(i) for i in doc["indices"]))
    if kind == "log_perturbed_ball":
        return LogPerturbedBall(TestFunction.from_json(doc["psi"]), float(doc["s"]))
    raise DomainError(f"unknown body type {kind!r}")


@dataclass(frozen=True)
class PMeanSpec:
    """Parameters of the p-combination (1-t).K_0 +_p t.K_1."""

    p: float
    t: float
    body0: Body
    body1: Body

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {self.p}")
        if not 0.0 <= self.t <= 1.0:
            raise DomainError(f"t must lie in [0, 1], got {self.t}")


def pmean_values(spec: PMeanSpec, U: np.ndarray) -> np.ndarray:
    """Gauge of the p-combination at an array of unit directions.

    For p = 0 the gauge is the geometric mean h_0^{1-t} h_1^t, defined as
    0 when either support vanishes (continuous extension); at the
    endpoints t = 0, 1 it degenerates to the respective support function.

    For p > 0, with hi = max(h_0, h_1) and S = (1-t)(h_0/hi)^p + t (h_1/hi)^p
    in (0, 1], it is evaluated as exp(log hi + (log S)/p), with S - 1 from
    expm1.  Its relative error stays near (1 + |log M_p|) eps for every p,
    where the direct form ((1-t) h_0^p + t h_1^p)^{1/p} loses eps/p as
    p -> 0.  Below the smallest normal float M_p equals M_0 to rounding, so
    such p take the p = 0 route.
    """
    h0 = np.asarray(spec.body0.support_values(U), dtype=float)
    h1 = np.asarray(spec.body1.support_values(U), dtype=float)
    t, p = spec.t, spec.p
    if t == 0.0:
        return h0
    if t == 1.0:
        return h1
    if p < np.finfo(float).tiny:
        both = (h0 > 0.0) & (h1 > 0.0)
        out = np.zeros_like(h0)
        out[both] = h0[both] ** (1.0 - t) * h1[both] ** t
        return out
    hi = np.maximum(h0, h1)
    # log 0 = -inf, and (-inf) - (-inf) = nan where both supports vanish
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.log(hi)
        x0, x1 = p * (np.log(h0) - top), p * (np.log(h1) - top)
        s_m1 = (1.0 - t) * np.expm1(x0) + t * np.expm1(x1)
        log_s = np.where(s_m1 > -0.5, np.log1p(s_m1),
                         np.log((1.0 - t) * np.exp(x0) + t * np.exp(x1)))
        return np.where(hi > 0.0, np.exp(top + log_s / p), 0.0)


def wulff_support_upper(dirs: np.ndarray, values: np.ndarray, u: np.ndarray):
    """Upper bound for the support of the Wulff shape K[f] at direction u.

    Maximizes u.x over the outer polytope {x : x.y_j <= f_j}, with the
    directions y_j the rows of the (m, n) array ``dirs``; the result
    is >= h_{K[f]}(u) and converges to it under grid refinement.  Returns
    (value, x) with x an optimal point of the outer polytope.

    Raises
    ------
    WulffUnboundedError
        If the sampled directions fail to positively span; refine the grid.
    DomainError
        If the directions and gauge values fail ``_check_gauge``, or u is
        not a finite unit vector of length n.
    """
    D, f = _check_gauge(dirs, values)
    u = np.asarray(u, dtype=float)
    # written so that a NaN norm fails the test
    if u.shape != D.shape[1:] or not abs(np.linalg.norm(u) - 1.0) <= 1e-10:
        raise DomainError(f"direction must be a finite unit vector of length {D.shape[1]}")
    return support_lp(D, f, u)


def require_smooth(body: Body, operation: str) -> None:
    if not body.is_smooth:
        raise UnsupportedBodyError(
            f"{operation} needs a smooth support function; "
            f"{type(body).__name__} is not smooth"
        )
