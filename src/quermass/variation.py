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
    _cofactor_batch,
    _elem_sym_all_batch,
    _second_cofactor_batch,
    q_matrix,
    q_matrix_nodes,
)
from .sphere import SphericalGrid, TestFunction, integrate

S_WINDOW = (-2.0, 2.0)
_VALIDITY_SAMPLES = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _min_eig(Q: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(Q)[:, 0]


def _jet(f, X: np.ndarray, what: str) -> calculus.Jet:
    """The exact jet of a field such as a TestFunction; other callables have none."""
    if not callable(getattr(f, "jet", None)):
        raise DomainError(f"{what} needs a field with an exact jet, such as a "
                          f"TestFunction; got {type(f).__name__}")
    return f.jet(X)


@dataclass
class VariationPath:
    """The family h_s = h e^{s psi} for a smooth base body.

    The jets of psi and of h at the grid nodes are computed once, so each
    new s costs one exp plus product-rule arithmetic, and every Q is
    exact.  Construction verifies that Q[h_s] is positive definite at every
    grid node for s in {-2, -1, 0, 1, 2}.  Node data is cached for s = 0,
    which fixes the tolerance of a scan, and for the most recent s only.
    """

    body: Body
    psi: TestFunction
    k: int
    grid: SphericalGrid
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _psi_jet: calculus.Jet = field(default=None, repr=False, compare=False)
    _body_jet: calculus.Jet = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        require_smooth(self.body, "VariationPath")
        n = self.grid.dimension
        if not 1 <= self.k <= n:
            raise DomainError(f"order k must satisfy 1 <= k <= {n}, got {self.k}")
        self._psi_jet = _jet(self.psi, self.grid.nodes, "VariationPath")
        self._body_jet = self.body.support_jet(self.grid.nodes)
        for s in _VALIDITY_SAMPLES:
            self._node_data(s)

    def _q(self, jet: calculus.Jet) -> np.ndarray:
        return calculus.q_from_jet(jet, self.grid.nodes, self.grid.frames)

    # -- node data of s = 0 and of the latest s ----------------------------
    def _node_data(self, s: float) -> dict:
        key = float(s)
        data = self._cache.get(key)
        if data is None:
            jet = self._body_jet * self._psi_jet.scaled(key).exp()
            Q = self._q(jet)
            lo = _min_eig(Q)
            if not np.all(lo > 0.0):
                bad = int(np.argmin(lo))
                raise PathValidityError(
                    f"Q[h_s] not positive definite at s={key} (node {bad}, "
                    f"min eigenvalue {lo[bad]:.3e}); the path left the smooth "
                    "convex cone",
                    s=key,
                    node_index=bad,
                )
            data = {
                "jet": jet,
                "h": jet.value,
                "Q": Q,
                "dens": _elem_sym_all_batch(Q)[:, self.k - 1],
            }
            self._cache = {s0: d for s0, d in self._cache.items() if s0 == 0.0}
            self._cache[key] = data
        return data

    def _cofactors(self, s: float) -> np.ndarray:
        data = self._node_data(s)
        if "cof" not in data:
            if self.k == 1:
                m, N, _ = data["Q"].shape
                data["cof"] = np.zeros((m, N, N))
            else:
                data["cof"] = _cofactor_batch(data["Q"], self.k - 1)
        return data["cof"]

    def _q_psih(self, s: float) -> np.ndarray:
        data = self._node_data(s)
        if "q_psih" not in data:
            data["psih"] = self._psi_jet * data["jet"]
            data["q_psih"] = self._q(data["psih"])
        return data["q_psih"]

    def _q_psi2h(self, s: float) -> np.ndarray:
        data = self._node_data(s)
        if "q_psi2h" not in data:
            self._q_psih(s)
            data["q_psi2h"] = self._q(self._psi_jet * data["psih"])
        return data["q_psi2h"]


def _check_s(s: float) -> float:
    if not S_WINDOW[0] <= s <= S_WINDOW[1]:
        raise DomainError(f"s must lie in [{S_WINDOW[0]}, {S_WINDOW[1]}], got {s}")
    return float(s)


def f_k(path: VariationPath, s: float) -> float:
    """f_k(s) = (1/k) int h_s S_{k-1}(Q[h_s])."""
    s = _check_s(s)
    data = path._node_data(s)
    w = path.grid.weights
    return float(np.dot(w, data["h"] * data["dens"])) / path.k


def f_k_prime(path: VariationPath, s: float) -> float:
    """First s-derivative of f_k; uses d/ds h_s = psi h_s."""
    s = _check_s(s)
    data = path._node_data(s)
    w, psi = path.grid.weights, path._psi_jet.value
    return float(np.dot(w, psi * data["h"] * data["dens"]))


def f_k_second(path: VariationPath, s: float) -> float:
    """Second s-derivative of f_k via the first cofactor of S_{k-1}."""
    s = _check_s(s)
    data = path._node_data(s)
    w, psi = path.grid.weights, path._psi_jet.value
    hd = data["h"]
    term1 = float(np.dot(w, psi * psi * hd * data["dens"]))
    cof = path._cofactors(s)
    qdot = path._q_psih(s)
    inner = np.einsum("mij,mij->m", cof, qdot)
    term2 = float(np.dot(w, psi * hd * inner))
    return term1 + term2


def f_k_third(path: VariationPath, s: float) -> float:
    """Third s-derivative of f_k via first and second cofactors.

    The second-cofactor term is the exact contraction
    <d/de T_{k-1}(Q + e Qdot), Qdot> with Qdot = Q[psi h_s], computed in
    O(k (n-1)^3) work per node for any dimension.
    """
    s = _check_s(s)
    data = path._node_data(s)
    w, psi = path.grid.weights, path._psi_jet.value
    hd = data["h"]
    cof = path._cofactors(s)
    qdot = path._q_psih(s)
    inner1 = np.einsum("mij,mij->m", cof, qdot)
    term1 = float(np.dot(w, psi ** 3 * hd * data["dens"]))
    term2 = 2.0 * float(np.dot(w, psi * psi * hd * inner1))
    dcof = _second_cofactor_batch(data["Q"], path.k - 1, qdot)
    inner2 = np.einsum("mij,mij->m", dcof, qdot)
    term3 = float(np.dot(w, psi * hd * inner2))
    qddot = path._q_psi2h(s)
    inner3 = np.einsum("mij,mij->m", cof, qddot)
    term4 = float(np.dot(w, psi * hd * inner3))
    return term1 + term2 + term3 + term4


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

    def to_json(self) -> dict:
        return {
            "s_values": list(self.s_values),
            "f_values": list(self.f_values),
            "fprime_values": list(self.fprime_values),
            "fsecond_values": list(self.fsecond_values),
            "concavity_values": list(self.concavity_values),
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "violation_s": self.violation_s,
        }

    def csv_rows(self) -> list[list]:
        rows = [["s", "f_k", "f_k_prime", "f_k_second", "H"]]
        for i, s in enumerate(self.s_values):
            rows.append([s, self.f_values[i], self.fprime_values[i],
                         self.fsecond_values[i], self.concavity_values[i]])
        return rows


def concavity_scan(path: VariationPath, s_values=None,
                   tolerance_scale: float = 1e-8) -> ConcavityReport:
    """Evaluate H(s) = f_k f_k'' - (f_k')^2 on a grid of s values.

    Verdict is ``strictly-concave`` if H < -tol everywhere, ``concave`` if
    H <= tol everywhere, else ``violated``; tol = tolerance_scale * f_k(0)^2
    absorbs quadrature and rounding noise (relevant for constant psi,
    where H vanishes identically).
    """
    if s_values is None:
        s_values = np.linspace(S_WINDOW[0], S_WINDOW[1], 21)
    s_values = [float(_check_s(s)) for s in s_values]
    if not s_values:
        raise DomainError("concavity_scan needs at least one s value")
    f0 = f_k(path, 0.0)
    tol = tolerance_scale * f0 * f0
    fs, f1s, f2s, Hs = [], [], [], []
    for s in s_values:
        fv = f_k(path, s)
        f1 = f_k_prime(path, s)
        f2 = f_k_second(path, s)
        fs.append(fv)
        f1s.append(f1)
        f2s.append(f2)
        Hs.append(fv * f2 - f1 * f1)
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
        f_values=tuple(fs),
        fprime_values=tuple(f1s),
        fsecond_values=tuple(f2s),
        concavity_values=tuple(Hs),
        tolerance=tol,
        verdict=verdict,
        violation_s=violation,
    )


# -- closed forms at the unit ball ----------------------------------------

def ball_fk(n: int, k: int) -> float:
    """f_k(0) for the unit ball: |S^{n-1}|/k * binom(n-1, k-1)."""
    if not 1 <= k <= n:
        raise DomainError(f"order k must satisfy 1 <= k <= {n}, got {k}")
    from .sphere import surface_area

    return surface_area(n) / k * math.comb(n - 1, k - 1)


def ball_fk_prime(n: int, k: int, psi, grid: SphericalGrid) -> float:
    """f_k'(0) at the unit ball: binom(n-1, k-1) int psi."""
    if not 1 <= k <= n:
        raise DomainError(f"order k must satisfy 1 <= k <= {n}, got {k}")
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


def poincare_check(psi, grid: SphericalGrid, slack: float = 1e-9) -> PoincareResult:
    """Check int psi^2 <= (1/2n) int |grad psi|^2 for even zero-mean psi.

    Equality holds exactly on degree-2 spherical harmonics (the first even
    eigenvalue of -Lap is 2n); higher even harmonics give ratio < 1.  The
    spherical gradient (I - x x^T) grad psi is exact from psi's jet.

    Raises
    ------
    DomainError
        If psi is not even (checked by sampling antipodes), not
        zero-mean (|int psi| > 1e-8 * scale) or has no exact jet.
    """
    vals = np.asarray(psi(grid.nodes), dtype=float)
    anti = np.asarray(psi(-grid.nodes), dtype=float)
    scale = 1.0 + np.max(np.abs(vals))
    if np.max(np.abs(vals - anti)) > 1e-10 * scale:
        raise DomainError("poincare_check requires an even test function")
    mean = float(np.dot(grid.weights, vals))
    if abs(mean) > 1e-8 * scale * grid.area:
        raise DomainError("poincare_check requires a zero-mean test function")
    n = grid.dimension
    lhs = float(np.dot(grid.weights, vals * vals))
    ambient = _jet(psi, grid.nodes, "poincare_check").grad
    grad = ambient - np.einsum("mi,mi->m", ambient, grid.nodes)[:, None] * grid.nodes
    rhs = float(np.dot(grid.weights, (grad * grad).sum(axis=1))) / (2.0 * n)
    if lhs < 1e-14 * scale * scale and rhs < 1e-14 * scale * scale:
        return PoincareResult(lhs=lhs, rhs=rhs, ratio=0.0, satisfied=True,
                              degenerate=True)
    ratio = lhs / rhs
    return PoincareResult(lhs=lhs, rhs=rhs, ratio=ratio,
                          satisfied=lhs <= rhs * (1.0 + slack) + slack)


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
    phi, phibar and psi, which must have them.
    """
    require_smooth(body, "ibp_check")
    n = grid.dimension
    if not 1 <= k <= n - 1:
        raise DomainError(f"order k must satisfy 1 <= k <= {n - 1}, got {k}")
    w, nodes, frames = grid.weights, grid.nodes, grid.frames
    Qh, _ = q_matrix_nodes(body, grid)
    cof = _cofactor_batch(Qh, k)
    jphi, jphibar, jpsi = (_jet(f, nodes, "ibp_check") for f in (phi, phibar, psi))
    qphi = calculus.q_from_jet(jphi, nodes, frames)
    qphibar = calculus.q_from_jet(jphibar, nodes, frames)
    vphi, vphibar = jphi.value, jphibar.value

    a1 = float(np.dot(w, vphibar * np.einsum("mij,mij->m", cof, qphi)))
    a2 = float(np.dot(w, vphi * np.einsum("mij,mij->m", cof, qphibar)))

    dcof = _second_cofactor_batch(Qh, k, qphi)
    qpsi = calculus.q_from_jet(jpsi, nodes, frames)
    vpsi = jpsi.value
    b1 = float(np.dot(w, vpsi * np.einsum("mij,mij->m", dcof, qphibar)))
    b2 = float(np.dot(w, vphibar * np.einsum("mij,mij->m", dcof, qpsi)))

    return IbpResult(
        residual_first=abs(a1 - a2),
        residual_second=abs(b1 - b2),
        scale_first=max(abs(a1), abs(a2), 1.0),
        scale_second=max(abs(b1), abs(b2), 1.0),
    )


# -- Christoffel-Minkowski residual ----------------------------------------

def christoffel_residual(body: Body, p: float, k: int, x: np.ndarray,
                         frame=None) -> float:
    """Residual h^{1-p} S_{k-1}(Q[h]) - binom(n-1, k-1) at direction x.

    Zero exactly at the unit ball; the scaled ball R B_n gives the constant
    (R^{k-p} - 1) binom(n-1, k-1).
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"p must lie in [0, 1), got {p}")
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if not 2 <= k <= n:
        raise DomainError(f"order k must satisfy 2 <= k <= {n}, got {k}")
    h = float(np.asarray(body.support_values(x[None, :]))[0])
    if h <= 0.0:
        raise DomainError("christoffel residual requires positive support at x")
    Q = q_matrix(body, x, frame)
    dens = float(_elem_sym_all_batch(Q[None])[0, k - 1])
    return h ** (1.0 - p) * dens - math.comb(n - 1, k - 1)


def christoffel_residual_grid(body: Body, p: float, k: int, grid: SphericalGrid):
    """Residual field on all grid nodes; returns (values, max_abs)."""
    if not 0.0 <= p < 1.0:
        raise DomainError(f"p must lie in [0, 1), got {p}")
    n = grid.dimension
    if not 2 <= k <= n:
        raise DomainError(f"order k must satisfy 2 <= k <= {n}, got {k}")
    h = np.asarray(body.support_values(grid.nodes), dtype=float)
    if np.any(h <= 0.0):
        raise DomainError("christoffel residual requires positive support")
    Q, _ = q_matrix_nodes(body, grid)
    dens = _elem_sym_all_batch(Q)[:, k - 1]
    vals = h ** (1.0 - p) * dens - math.comb(n - 1, k - 1)
    return vals, float(np.max(np.abs(vals)))


# -- centering -------------------------------------------------------------

def center_test_function(psi, grid: SphericalGrid):
    """Subtract the grid mean: returns (psi_bar, mean) with int psi_bar = 0.

    The mean uses the grid's own weight sum, so the centered function
    integrates to zero on that grid to rounding accuracy.  Centering shifts
    f_k along the path by the exact factor e^{-k s mean}.
    """
    vals = np.asarray(psi(grid.nodes), dtype=float)
    mean = float(np.dot(grid.weights, vals)) / grid.area
    if isinstance(psi, TestFunction):
        return psi.shifted(-mean), mean

    def centered(X):
        return np.asarray(psi(X), dtype=float) - mean

    return centered, mean
