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
from .simplex import support_lp
from .sphere import SphericalGrid, TestFunction


class Body:
    """Base class; subclasses implement vectorized ``support_values``."""

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

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Ball(Body):
    """Centered ball of a given radius; support is constant."""

    radius: float

    is_smooth = True

    def __post_init__(self):
        if self.radius < 0.0:
            raise DomainError("ball radius must be non-negative")

    def support_values(self, U: np.ndarray) -> np.ndarray:
        return np.full(U.shape[0], float(self.radius))

    def support_jet(self, U: np.ndarray) -> Jet:
        """The constant extension R, so Q[h] = R I."""
        m, n = U.shape
        return Jet(self.support_values(U), np.zeros((m, n)), np.zeros((m, n, n)))

    def to_json(self) -> dict:
        return {"type": "ball", "radius": self.radius}


@dataclass(frozen=True)
class Box(Body):
    """Origin-symmetric axis-aligned box prod_i [-a_i, a_i]."""

    half_lengths: tuple[float, ...]

    def __post_init__(self):
        if any(a < 0.0 for a in self.half_lengths):
            raise DomainError("box half-lengths must be non-negative")

    @property
    def dimension(self) -> int:
        return len(self.half_lengths)

    def support_values(self, U: np.ndarray) -> np.ndarray:
        a = np.asarray(self.half_lengths, dtype=float)
        return np.abs(U) @ a

    def to_json(self) -> dict:
        return {"type": "box", "half_lengths": list(self.half_lengths)}


@dataclass(frozen=True)
class EmbeddedCube(Body):
    """Cube of side 2 spanning a coordinate subspace of R^n.

    The cube is prod [-1, 1] over the active indices and {0} elsewhere;
    support is sum of |u_i| over active indices.
    """

    dimension: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if any(i < 0 or i >= self.dimension for i in self.indices):
            raise DomainError("embedded cube indices out of range")
        if len(set(self.indices)) != len(self.indices):
            raise DomainError("embedded cube indices must be distinct")

    def support_values(self, U: np.ndarray) -> np.ndarray:
        idx = list(self.indices)
        return np.abs(U[:, idx]).sum(axis=1)

    def to_json(self) -> dict:
        return {"type": "embedded_cube", "dimension": self.dimension,
                "indices": list(self.indices)}


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

    def to_json(self) -> dict:
        return {"type": "log_perturbed_ball", "s": self.s, "psi": self.psi.to_json()}


@dataclass(frozen=True)
class WulffSampled(Body):
    """Wulff shape of gauge values sampled on a fixed direction set.

    Support values are computed by linear programming and are upper bounds
    for the true Wulff shape's support function (outer approximation).
    """

    directions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.values) < 0.0):
            raise DomainError("gauge values must be non-negative")

    def support_values(self, U: np.ndarray) -> np.ndarray:
        out = np.empty(U.shape[0])
        for i, u in enumerate(U):
            out[i], _ = support_lp(self.directions, self.values, u)
        return out

    def to_json(self) -> dict:
        return {"type": "wulff_sampled",
                "directions": np.asarray(self.directions).tolist(),
                "values": np.asarray(self.values).tolist()}


def body_from_json(doc: dict) -> Body:
    kind = doc.get("type")
    if kind == "ball":
        return Ball(float(doc["radius"]))
    if kind == "box":
        return Box(tuple(float(a) for a in doc["half_lengths"]))
    if kind == "embedded_cube":
        return EmbeddedCube(int(doc["dimension"]), tuple(int(i) for i in doc["indices"]))
    if kind == "log_perturbed_ball":
        return LogPerturbedBall(TestFunction.from_json(doc["psi"]), float(doc["s"]))
    if kind == "wulff_sampled":
        return WulffSampled(np.asarray(doc["directions"], dtype=float),
                            np.asarray(doc["values"], dtype=float))
    raise DomainError(f"unknown body type {kind!r}")


def _check_unit(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise DomainError("direction must be a unit vector")
    return u


def support(body: Body, u: np.ndarray) -> float:
    """Support function h_K(u) at a unit direction."""
    u = _check_unit(u)
    return float(body.support_values(u[None, :])[0])


def minkowski_support(body0: Body, body1: Body, alpha: float, beta: float,
                      u: np.ndarray) -> float:
    """Support of the Minkowski combination alpha K_0 + beta K_1.

    Support functions are additive and positively homogeneous, so this is
    alpha h_0(u) + beta h_1(u); alpha, beta must be non-negative.
    """
    if alpha < 0.0 or beta < 0.0:
        raise DomainError("minkowski coefficients must be non-negative")
    u = _check_unit(u)
    U = u[None, :]
    return float(alpha * body0.support_values(U)[0] + beta * body1.support_values(U)[0])


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


def pmean(spec: PMeanSpec, u: np.ndarray) -> float:
    """Gauge of the p-combination at a single unit direction."""
    u = _check_unit(u)
    return float(pmean_values(spec, u[None, :])[0])


def _direction_array(dirs) -> np.ndarray:
    if isinstance(dirs, SphericalGrid):
        return dirs.nodes
    return np.asarray(dirs, dtype=float)


def wulff_support_upper(dirs, values: np.ndarray, u: np.ndarray):
    """Upper bound for the support of the Wulff shape K[f] at direction u.

    Maximizes u.x over the outer polytope {x : x.y_j <= f_j}; the result
    is >= h_{K[f]}(u) and converges to it under grid refinement.  Returns
    (value, x) with x an optimal point of the outer polytope.

    Raises
    ------
    WulffUnboundedError
        If the sampled directions fail to positively span; refine the grid.
    DomainError
        If any gauge value is negative.
    """
    D = _direction_array(dirs)
    f = np.asarray(values, dtype=float)
    if np.any(f < 0.0):
        raise DomainError("gauge values must be non-negative")
    u = _check_unit(u)
    return support_lp(D, f, u)


def wulff_membership(dirs, values: np.ndarray, x: np.ndarray,
                     tol: float = 1e-12) -> bool:
    """Whether x lies in the outer polytope {x : x.y_j <= f_j + tol}."""
    D = _direction_array(dirs)
    f = np.asarray(values, dtype=float)
    return bool(np.all(D @ np.asarray(x, dtype=float) <= f + tol))


def require_smooth(body: Body, operation: str) -> None:
    if not body.is_smooth:
        raise UnsupportedBodyError(
            f"{operation} needs a smooth support function; "
            f"{type(body).__name__} is not smooth"
        )
