"""Log-perturbation paths, curvature-integral derivatives and concavity scans.

For a smooth body with support h and an even test function psi, the path
h_s = h e^{s psi} stays in the support-function cone for s in a window
around 0.  The central object is

    f_k(s) = (1/k) int_{S^{n-1}} h_s S_{k-1}(Q[h_s]) dx,

proportional to the k-th intrinsic volume of the body with support h_s
(f_k = kappa_{n-k} V_k).  Because d/ds h_s = psi h_s, the derivatives have
closed expressions in the cofactors of S_{k-1}:

    f_k'   = int psi h_s S_{k-1}(Q[h_s])
    f_k''  = int psi^2 h_s S_{k-1} + int psi h_s <S_{k-1}^{ij}, Q[psi h_s]>
    f_k''' = int psi^3 h_s S_{k-1} + 2 int psi^2 h_s <S_{k-1}^{ij}, Q[psi h_s]>
             + int psi h_s <S_{k-1}^{ij,rs}, Q[psi h_s] (x) Q[psi h_s]>
             + int psi h_s <S_{k-1}^{ij}, Q[psi^2 h_s]>

The s-dependence of every Q here is exact and elementary: Q[h_s] =
e^{s psi} (U_0 + s U_1 + s^2 U_2) with per-path coefficients U_j, and
Q[psi h_s], Q[psi^2 h_s] are its first two s-derivatives, so no jet is
built per s.  One routine evaluates all four from the path's cached record
of h_s, and a concavity scan takes f_k, f_k' and f_k'' from one call per s.
The body and psi are even, so every integrand here is, and the path and
``ibp_check`` sum over the grid's half rule, one node of each antipodal
pair at twice its weight; the Poincare check, the Christoffel residual and
centering stay on the full grid.

The p-Brunn-Minkowski inequality for V_k along geodesics of the 0-sum is
log-concavity of f_k in s, i.e. H(s) = f_k f_k'' - (f_k')^2 <= 0.  For
constant psi, f_k(s) = f_k(0) e^{k psi s} exactly (scaling), so H = 0.

At the unit ball (h = 1) the derivatives reduce to closed forms:

    f_k(0)   = |S^{n-1}|/k binom(n-1, k-1)
    f_k'(0)  = binom(n-1, k-1) int psi
    f_k''(0) = binom(n-2, n-k) [ (n-1)k/(k-1) int psi^2 + int psi Lap psi ]

(the last for k >= 2; k = 1 is the linear mean-width functional).  The
spectral gap on even zero-mean functions gives the sharpened Poincare
inequality  int psi^2 <= (1/2n) int |grad psi|^2,  with equality exactly
on degree-2 harmonics, which is what makes f_k''(0) <= 0 above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import calculus
from .bodies import Body, require_smooth
from .errors import DomainError, PathValidityError
from .intrinsic import (
    _check_finite,
    _check_order,
    _cofactor_batch,
    _curvature,
    _pd_violation,
    _second_cofactor_batch,
)
from .sphere import SphericalGrid, TestFunction, integrate, surface_area

S_WINDOW = (-2.0, 2.0)
_VALIDITY_SAMPLES = (-2.0, -1.0, 0.0, 1.0, 2.0)
#: A scan's tolerance on H(s), relative to f_k(0)^2.
CONCAVITY_TOLERANCE = 1e-8
#: Relative and absolute slack of the Poincare inequality check.
POINCARE_SLACK = 1e-9


def _jet(f, X: np.ndarray, what: str) -> calculus.Jet:
    """The exact jet of a field such as a TestFunction; EvaluationError if not finite."""
    if not callable(getattr(f, "jet", None)):
        raise DomainError(f"{what} needs a field with an exact jet, such as a "
                          f"TestFunction; got {type(f).__name__}")
    jet = f.jet(X)
    _check_finite("the field or its derivatives", X, jet.value, jet.grad, jet.hess)
    return jet


def _even_jet(f, X: np.ndarray, what: str) -> calculus.Jet:
    """``_jet`` of a TestFunction, even by its constructor, as a sum over the
    half rule needs; DomainError for any other field."""
    if not isinstance(f, TestFunction):
        raise DomainError(f"{what} sums over one node of each antipodal pair, so its fields "
                          f"must be TestFunctions, which are even; got {type(f).__name__}")
    return _jet(f, X, what)


@dataclass
class VariationPath:
    """The family h_s = h e^{s psi} for a smooth base body.

    Q is linear, so Q[h_s] = e^{s psi} A(s) at every node with the
    quadratic A(s) = U_0 + s U_1 + s^2 U_2, where t_f = E grad f is the
    tangential gradient and

        U_0 = Q[h],  U_1 = t_h (x) t_psi + t_psi (x) t_h + h (Q[psi] - psi I),
        U_2 = h t_psi (x) t_psi.

    The coefficients come once from the exact jets of h and psi, so each new
    s costs one exp(s psi) and a few array operations, and every Q is exact.
    The body and psi (a TestFunction, else DomainError) are even, so every
    per-node array lives on the grid's half rule (``grid.half``, one node
    of each +/-x pair at twice its weight) and has ``grid.node_count // 2``
    rows, row i being full-grid node i.  Construction verifies that Q[h_s] is positive definite at every
    grid node for s in {-2, -1, 0, 1, 2} (else PathValidityError); a
    non-finite psi, h_s or Q[h_s] raises EvaluationError.  The record of h_s
    (e^{s psi}, h, Q, S_{k-1}(Q) and T_{k-1}(Q)) is cached for s = 0, which
    fixes the tolerance of a scan, and for the latest s, which a new s drops
    before its own record is built.
    """

    body: Body
    psi: TestFunction
    k: int
    grid: SphericalGrid
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _psi: np.ndarray = field(init=False, default=None, repr=False, compare=False)
    _h: np.ndarray = field(init=False, default=None, repr=False, compare=False)
    _u: tuple = field(init=False, default=(), repr=False, compare=False)

    def __post_init__(self):
        require_smooth(self.body, "VariationPath")
        _check_order("k", self.k, 1, self.grid.dimension)
        nodes, frames = self.grid.half.nodes, self.grid.half.frames
        psi = _even_jet(self.psi, nodes, "VariationPath")
        body = self.body.support_jet(nodes)
        self._psi, self._h = psi.value, body.value
        t_psi = np.einsum("mij,mj->mi", frames, psi.grad)
        t_h = np.einsum("mij,mj->mi", frames, body.grad)
        cross = t_h[:, :, None] * t_psi[:, None, :]
        U1 = calculus.q_from_jet(psi, nodes, frames)
        N = U1.shape[-1]
        U1[:, np.arange(N), np.arange(N)] -= psi.value[:, None]
        U1 = self._h[:, None, None] * U1 + cross + np.swapaxes(cross, 1, 2)
        U2 = self._h[:, None, None] * t_psi[:, :, None] * t_psi[:, None, :]
        self._u = (calculus.q_from_jet(body, nodes, frames), U1, U2)
        for s in _VALIDITY_SAMPLES:
            self._node_data(s)

    # -- node data of s = 0 and of the latest s ----------------------------
    def _node_data(self, s: float) -> dict:
        key = float(s)
        data = self._cache.get(key)
        if data is None:
            self._cache = {s0: d for s0, d in self._cache.items() if s0 == 0.0}
            e = np.exp(key * self._psi)
            U0, U1, U2 = self._u
            h, Q = self._h * e, e[:, None, None] * (U0 + key * (U1 + key * U2))
            _check_finite("h or Q[h]", self.grid.half.nodes, h, Q)
            dens, cof = _cofactor_batch(Q, self.k - 1)
            violation = _pd_violation(Q)
            if violation is not None:
                bad, lo = violation
                raise PathValidityError(
                    f"Q[h_s] not positive definite at s={key} (node {bad}, min eigenvalue "
                    f"{lo:.3e}); the path left the smooth convex cone", s=key, node_index=bad)
            data = {"e": e, "h": h, "Q": Q, "dens": dens, "cof": cof}
            self._cache[key] = data
        return data

    def _q_derivatives(self, s: float, order: int) -> list[np.ndarray]:
        """[Q[h_s], Q[psi h_s], Q[psi^2 h_s]][:order + 1].

        Since d/ds h_s = psi h_s, Q[psi^j h_s] = d/ds Q[psi^{j-1} h_s].  If
        Q[psi^{j-1} h_s] = e^{s psi} B(s), that is psi Q[psi^{j-1} h_s] +
        e^{s psi} B'(s): B = A gives Q[psi h_s] = psi Q[h_s] + e^{s psi} A',
        and B = psi A + A' gives Q[psi^2 h_s] = psi Q[psi h_s] +
        e^{s psi} (psi A' + A''), with A' = U_1 + 2 s U_2 and A'' = 2 U_2.
        """
        data = self._node_data(s)
        e, psi = data["e"][:, None, None], self._psi[:, None, None]
        _, U1, U2 = self._u
        out = [data["Q"]]
        if order >= 1:
            da = U1 + (2.0 * s) * U2
            out.append(psi * out[0] + e * da)
        if order >= 2:
            out.append(psi * out[1] + e * (psi * da + 2.0 * U2))
        return out


def _check_s(s: float) -> float:
    if not S_WINDOW[0] <= s <= S_WINDOW[1]:
        raise DomainError(f"s must lie in [{S_WINDOW[0]}, {S_WINDOW[1]}], got {s}")
    return float(s)


def _derivatives(path: VariationPath, s: float, order: int) -> list[float]:
    """[f_k, f_k', f_k'', f_k'''][:order + 1] at s from one node record.

    The record holds S_{k-1}(Q) and T_{k-1}(Q) (T_0 = 0, so for k = 1 every
    cofactor term vanishes).  Q[psi h_s] is built only for order >= 2, the
    second-cofactor contraction and Q[psi^2 h_s] only for order 3.
    """
    s = _check_s(s)
    data = path._node_data(s)
    w, psi = path.grid.half.weights, path._psi
    h, dens, Q, cof = data["h"], data["dens"], data["Q"], data["cof"]
    out = [float(np.dot(w, h * dens)) / path.k, float(np.dot(w, psi * h * dens))]
    if order < 2:
        return out[:order + 1]
    qs = path._q_derivatives(s, order - 1)
    qdot = qs[1]
    inner1 = np.einsum("mij,mij->m", cof, qdot)
    out.append(float(np.dot(w, psi * psi * h * dens)) + float(np.dot(w, psi * h * inner1)))
    if order < 3:
        return out
    inner2 = np.einsum("mij,mij->m", _second_cofactor_batch(Q, path.k - 1, qdot), qdot)
    inner3 = np.einsum("mij,mij->m", cof, qs[2])
    out.append(float(np.dot(w, psi ** 3 * h * dens))
               + 2.0 * float(np.dot(w, psi * psi * h * inner1))
               + float(np.dot(w, psi * h * inner2))
               + float(np.dot(w, psi * h * inner3)))
    return out


def f_k(path: VariationPath, s: float) -> float:
    """f_k(s) = (1/k) int h_s S_{k-1}(Q[h_s])."""
    return _derivatives(path, s, 0)[0]


def f_k_prime(path: VariationPath, s: float) -> float:
    """First s-derivative of f_k; uses d/ds h_s = psi h_s."""
    return _derivatives(path, s, 1)[1]


def f_k_second(path: VariationPath, s: float) -> float:
    """Second s-derivative of f_k via the first cofactor of S_{k-1}."""
    return _derivatives(path, s, 2)[2]


def f_k_third(path: VariationPath, s: float) -> float:
    """Third s-derivative of f_k via first and second cofactors.

    The second-cofactor term is the exact contraction
    <d/de T_{k-1}(Q + e Qdot), Qdot> with Qdot = Q[psi h_s], computed in
    O(k (n-1)^3) work per node for any dimension.
    """
    return _derivatives(path, s, 3)[3]


@dataclass(frozen=True)
class ConcavityReport:
    """Result of a log-concavity scan of f_k along a perturbation path."""

    s_values: tuple[float, ...]
    f_values: tuple[float, ...]
    fprime_values: tuple[float, ...]
    fsecond_values: tuple[float, ...]
    concavity_values: tuple[float, ...]  # H(s) = f f'' - (f')^2
    tolerance: float
    verdict: str  # strictly-concave | concave | violated
    violation_s: float | None = None


def concavity_scan(path: VariationPath, s_values=None) -> ConcavityReport:
    """Evaluate H(s) = f_k f_k'' - (f_k')^2 on a grid of s values.

    Verdict is ``strictly-concave`` if H < -tol everywhere, ``concave`` if
    H <= tol everywhere, else ``violated``; tol = CONCAVITY_TOLERANCE * f_k(0)^2
    absorbs quadrature and rounding noise (relevant for constant psi,
    where H vanishes identically).
    """
    if s_values is None:
        s_values = np.linspace(S_WINDOW[0], S_WINDOW[1], 21)
    s_values = [float(_check_s(s)) for s in s_values]
    if not s_values:
        raise DomainError("concavity_scan needs at least one s value")
    f0 = f_k(path, 0.0)
    tol = CONCAVITY_TOLERANCE * f0 * f0
    fs, f1s, f2s = zip(*(_derivatives(path, s, 2) for s in s_values))
    Hs = [fv * f2 - f1 * f1 for fv, f1, f2 in zip(fs, f1s, f2s)]
    H = np.asarray(Hs)
    if np.all(H < -tol):
        verdict, violation = "strictly-concave", None
    elif np.all(H <= tol):
        verdict, violation = "concave", None
    else:
        verdict = "violated"
        violation = s_values[int(np.argmax(H))]
    return ConcavityReport(
        s_values=tuple(s_values),
        f_values=fs,
        fprime_values=f1s,
        fsecond_values=f2s,
        concavity_values=tuple(Hs),
        tolerance=tol,
        verdict=verdict,
        violation_s=violation,
    )


# -- closed forms at the unit ball ----------------------------------------

def ball_fk(n: int, k: int) -> float:
    """f_k(0) for the unit ball: |S^{n-1}|/k * binom(n-1, k-1)."""
    _check_order("k", k, 1, n)
    return surface_area(n) / k * math.comb(n - 1, k - 1)


def ball_fk_prime(n: int, k: int, psi, grid: SphericalGrid) -> float:
    """f_k'(0) at the unit ball: binom(n-1, k-1) int psi."""
    _check_order("k", k, 1, n)
    return math.comb(n - 1, k - 1) * integrate(grid, psi)


def ball_fk_second(n: int, k: int, psi, grid: SphericalGrid) -> float:
    """f_k''(0) at the unit ball, for k >= 2:

    binom(n-2, n-k) [ (n-1)k/(k-1) int psi^2 + int psi Lap psi ].

    k = 1 is excluded: the mean-width functional is linear in h, so its
    second variation carries no cofactor term and needs no closed form.
    Lap psi = tr Q[psi] - (n-1) psi, exact from psi's jet.
    """
    if not 2 <= k <= n:
        raise DomainError("closed-form f_k''(0) requires 2 <= k <= n")
    jet = _jet(psi, grid.nodes, "ball_fk_second")
    psi_vals = jet.value
    Q = calculus.q_from_jet(jet, grid.nodes, grid.frames)
    lap = np.einsum("mii->m", Q) - (n - 1) * psi_vals
    int_psi2 = float(np.dot(grid.weights, psi_vals * psi_vals))
    int_psilap = float(np.dot(grid.weights, psi_vals * lap))
    return math.comb(n - 2, n - k) * ((n - 1) * k / (k - 1) * int_psi2 + int_psilap)


# -- Poincare inequality ---------------------------------------------------

@dataclass(frozen=True)
class PoincareResult:
    lhs: float        # int psi^2
    rhs: float        # (1/2n) int |grad psi|^2
    ratio: float      # lhs / rhs (0 for the trivial zero function)
    satisfied: bool
    degenerate: bool = False


def poincare_check(psi, grid: SphericalGrid) -> PoincareResult:
    """Check int psi^2 <= (1/2n) int |grad psi|^2 for even zero-mean psi.

    Equality holds exactly on degree-2 spherical harmonics (the first even
    eigenvalue of -Lap is 2n); higher even harmonics give ratio < 1.  It is
    satisfied within the relative and absolute slack POINCARE_SLACK.  The
    spherical gradient (I - x x^T) grad psi is exact from psi's jet.

    Raises
    ------
    DomainError
        If psi has no exact jet, is not even (checked by sampling
        antipodes) or not zero-mean (|int psi| > 1e-8 * scale).
    EvaluationError
        If psi's jet is not finite at some node.
    """
    jet = _jet(psi, grid.nodes, "poincare_check")
    vals = jet.value
    anti = np.asarray(psi(-grid.nodes), dtype=float)
    scale = 1.0 + np.max(np.abs(vals))
    if np.max(np.abs(vals - anti)) > 1e-10 * scale:
        raise DomainError("poincare_check requires an even test function")
    mean = float(np.dot(grid.weights, vals))
    if abs(mean) > 1e-8 * scale * grid.area:
        raise DomainError("poincare_check requires a zero-mean test function")
    n = grid.dimension
    lhs = float(np.dot(grid.weights, vals * vals))
    grad = jet.grad - np.einsum("mi,mi->m", jet.grad, grid.nodes)[:, None] * grid.nodes
    rhs = float(np.dot(grid.weights, (grad * grad).sum(axis=1))) / (2.0 * n)
    if lhs < 1e-14 * scale * scale and rhs < 1e-14 * scale * scale:
        return PoincareResult(lhs=lhs, rhs=rhs, ratio=0.0, satisfied=True,
                              degenerate=True)
    ratio = lhs / rhs
    return PoincareResult(lhs=lhs, rhs=rhs, ratio=ratio,
                          satisfied=lhs <= rhs * (1.0 + POINCARE_SLACK) + POINCARE_SLACK)


# -- integration-by-parts identities ---------------------------------------

@dataclass(frozen=True)
class IbpResult:
    """Absolute residuals of the two cofactor integration-by-parts identities."""

    residual_first: float
    residual_second: float
    scale_first: float
    scale_second: float


def ibp_check(body: Body, phi, phibar, psi, k: int, grid: SphericalGrid) -> IbpResult:
    """Residuals of the symmetry identities of cofactor contractions.

    First identity:  int phibar <S_k^{ij}(Q[h]), Q[phi]> =
                     int phi    <S_k^{ij}(Q[h]), Q[phibar]>.
    Second identity: int psi    <S_k^{ij,rs}(Q[h]), Q[phi] (x) Q[phibar]> =
                     int phibar <S_k^{ij,rs}(Q[h]), Q[phi] (x) Q[psi]>.

    Both sides of the second share one exact contraction
    <S_k^{ij,rs}(Q[h]), Q[phi]_rs>.  Here k indexes S_k directly,
    1 <= k <= n - 1.  Every Q is exact from the jets of the body and of
    phi, phibar and psi, which must have them; a non-finite jet or Q[h]
    raises EvaluationError.  Body and fields are even (the fields must be
    TestFunctions, else DomainError), so both sides are summed on the
    grid's half rule.
    """
    require_smooth(body, "ibp_check")
    _check_order("k", k, 1, grid.dimension - 1)
    w, nodes, frames = grid.half.weights, grid.half.nodes, grid.half.frames
    _, Qh, _, cof = _curvature(body.support_jet(nodes), nodes, frames, k)
    jphi, jphibar, jpsi = (_even_jet(f, nodes, "ibp_check") for f in (phi, phibar, psi))
    qphi, qphibar, qpsi = (calculus.q_from_jet(j, nodes, frames) for j in (jphi, jphibar, jpsi))
    vphi, vphibar, vpsi = jphi.value, jphibar.value, jpsi.value

    a1 = float(np.dot(w, vphibar * np.einsum("mij,mij->m", cof, qphi)))
    a2 = float(np.dot(w, vphi * np.einsum("mij,mij->m", cof, qphibar)))

    dcof = _second_cofactor_batch(Qh, k, qphi)
    b1 = float(np.dot(w, vpsi * np.einsum("mij,mij->m", dcof, qphibar)))
    b2 = float(np.dot(w, vphibar * np.einsum("mij,mij->m", dcof, qpsi)))

    return IbpResult(
        residual_first=abs(a1 - a2),
        residual_second=abs(b1 - b2),
        scale_first=max(abs(a1), abs(a2), 1.0),
        scale_second=max(abs(b1), abs(b2), 1.0),
    )


# -- Christoffel-Minkowski residual ----------------------------------------

def christoffel_residual_grid(body: Body, p: float, k: int, grid: SphericalGrid):
    """Residual h^{1-p} S_{k-1}(Q[h]) - binom(n-1, k-1) at every grid node.

    Returns (values, max_abs).  Zero exactly at the unit ball; the scaled
    ball R B_n gives the constant (R^{k-p} - 1) binom(n-1, k-1).  A
    non-finite h or Q[h] raises EvaluationError.
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"p must lie in [0, 1), got {p}")
    n = grid.dimension
    _check_order("k", k, 2, n)
    require_smooth(body, "christoffel_residual_grid")
    h, _, S, _ = _curvature(body.support_jet(grid.nodes), grid.nodes, grid.frames, k - 1)
    if np.any(h <= 0.0):
        raise DomainError("christoffel residual requires positive support")
    vals = h ** (1.0 - p) * S - math.comb(n - 1, k - 1)
    return vals, float(np.max(np.abs(vals)))


# -- centering -------------------------------------------------------------

def center_test_function(psi: TestFunction, grid: SphericalGrid):
    """Subtract the grid mean: returns (psi_bar, mean) with int psi_bar = 0.

    The mean uses the grid's own weight sum, so the centered function
    integrates to zero on that grid to rounding accuracy.  Centering shifts
    f_k along the path by the exact factor e^{-k s mean}.  psi must be a
    TestFunction (else DomainError), so psi_bar is one too and keeps its jet.
    """
    if not isinstance(psi, TestFunction):
        raise DomainError(f"center_test_function needs a TestFunction; "
                          f"got {type(psi).__name__}")
    mean = float(np.dot(grid.weights, psi(grid.nodes))) / grid.area
    return psi.shifted(-mean), mean
