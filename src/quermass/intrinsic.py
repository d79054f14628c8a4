"""Elementary symmetric functions, cofactor tensors and intrinsic volumes.

For a symmetric N x N matrix A, S_r(A) is the r-th elementary symmetric
function of its eigenvalues (S_0 = 1, S_1 = trace, S_N = det), computed
by the Faddeev-LeVerrier recursion without eigendecomposition.  The first
cofactor is the derivative with respect to the independent matrix entries,

    S_r^{ij}(A) = d S_r / d a_ij,

which evaluates in closed form to the matrix polynomial

    T_r(A) = sum_{m=0}^{r-1} (-1)^m S_{r-1-m}(A) A^m,

so T_1 = I, T_2 = S_1 I - A, ..., T_N = adj(A).  The Faddeev-LeVerrier
auxiliary matrix B_r is exactly T_r, so one recursion gives both.  The
second cofactor S_r^{ij,kl} = d T_r^{ij} / d a_kl is only ever needed
contracted against a symmetric direction X,

    <S_r^{ij,kl}(A), X_kl> = d/de T_r(A + e X) at e = 0,

and that contraction is exact by forward-mode differentiation of the
same recursion.

For a convex body with smooth support function h, the matrix
Q[h] = (h_ij + h delta_ij) in an orthonormal tangent frame, exact from the
body's support jet (``calculus.q_from_jet``), gives the area-measure
densities S_{k-1}(Q[h]) and the intrinsic volumes

    V_k(K) = (1 / (k kappa_{n-k})) int_{S^{n-1}} h S_{k-1}(Q[h]) dx,

normalized so that V_k of the unit ball is binom(n,k) kappa_n/kappa_{n-k}
and V_k of a box with half-lengths a_i is 2^k e_k(a_1..a_n).  V_k, f_k,
the integration-by-parts check and the Christoffel-Minkowski residual all
take S_r(Q[h]) and T_r(Q[h]) from one Faddeev-LeVerrier pass,
``_cofactor_batch``, stopped at the order r they read (through
``_curvature`` from a support jet, or, along a variation path, on Q in
closed form in s); V_k and f_k decide Q[h] > 0 with ``_pd_violation``.

Smooth bodies are origin-symmetric, so h S_{k-1}(Q[h]) is even, and V_k
(with its coarse companion), f_k and the integration-by-parts check sum
over the grid's half rule (``SphericalGrid.half``): one node of each
antipodal pair at twice its weight, half the work.  Its row i is full-grid
node i, so errors name full-grid nodes.  The Christoffel residual returns
per-node values and stays on the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus
from .bodies import Ball, Body, Box, require_smooth
from .errors import DomainError, EvaluationError
# unit_ball_volume lives in sphere and stays importable from here.
from .sphere import SphericalGrid, build_grid, unit_ball_volume


def _check_order(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise DomainError(f"order {name} must satisfy {lo} <= {name} <= {hi}, got {value}")


def _check_symmetric(A: np.ndarray, r: int, lo: int) -> np.ndarray:
    """A as a float symmetric square matrix of size N, with lo <= r <= N."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("expected a square matrix")
    if A.size and np.max(np.abs(A - A.T)) > 1e-10 * (1.0 + np.max(np.abs(A))):
        raise DomainError("matrix must be symmetric")
    _check_order("r", r, lo, A.shape[0])
    return A


def _fl_step(AB: np.ndarray, j: int) -> np.ndarray:
    """S_j = tr(A B_j) / j, the output of Faddeev-LeVerrier step j.

    It is linear in A B_j, so applied to d(A B_j) it gives dS_j.
    """
    return np.einsum("mii->m", AB) / j


def _fl_next(S: np.ndarray, AB: np.ndarray) -> np.ndarray:
    """B_{j+1} = S_j I - A B_j; linear too, so (dS_j, d(A B_j)) give dB_{j+1}."""
    return S[:, None, None] * np.eye(AB.shape[-1]) - AB


def _elem_sym_all_batch(A: np.ndarray) -> np.ndarray:
    """S_0..S_N for a batch of matrices, shape (m, N, N) -> (m, N + 1).

    Faddeev-LeVerrier steps from B_1 = I, so A B_1 = A.
    """
    m, N, _ = A.shape
    out = np.empty((m, N + 1))
    out[:, 0] = 1.0
    AB = A
    for r in range(1, N + 1):
        out[:, r] = _fl_step(AB, r)
        if r < N:
            AB = A @ _fl_next(out[:, r], AB)
    return out


def elem_sym(r: int, A: np.ndarray) -> float:
    """Elementary symmetric function S_r of the eigenvalues of symmetric A."""
    A = _check_symmetric(A, r, 0)
    return float(_elem_sym_all_batch(A[None])[0, r])


def _cofactor_batch(A: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_r, T_r) for a batch (m, N, N): shapes (m,) and (m, N, N).

    r Faddeev-LeVerrier steps from B_1 = I (so A B_1 = A): T_r = B_r is the
    input of step r and S_r its output, and B_{r+1} is never formed (T_1 is
    a read-only view of I); r = 0 gives S_0 = 1 and T_0 = 0.
    """
    if r == 0:
        return np.ones(len(A)), np.zeros(A.shape)
    T, AB = np.broadcast_to(np.eye(A.shape[-1]), A.shape), A
    for j in range(1, r):
        T = _fl_next(_fl_step(AB, j), AB)
        AB = A @ T
    return _fl_step(AB, r), T


def cofactor(r: int, A: np.ndarray) -> np.ndarray:
    """First cofactor matrix (S_r^{ij}(A)) = (d S_r / d a_ij).

    Closed form: sum_{m=0}^{r-1} (-1)^m S_{r-1-m}(A) A^m; for r = N this
    is the adjugate, and at A = I_N it equals binom(N-1, r-1) I_N.
    """
    A = _check_symmetric(A, r, 1)
    return _cofactor_batch(A[None], r)[1][0].copy()


def _second_cofactor_batch(A: np.ndarray, r: int, X: np.ndarray) -> np.ndarray:
    """Contractions <S_r^{ij,kl}(A), X_kl> = d/de T_r(A + e X) at e = 0.

    A has shape (m, N, N) and X, symmetric, (N, N) or (m, N, N).  Forward
    mode through the steps of ``_cofactor_batch`` from B_1 = I, dB_1 = 0,
    with d(A B_j) = X B_j + A dB_j (so X at j = 1); exact, and zero for
    r <= 1.  Returns (m, N, N).
    """
    dB = np.zeros(A.shape)
    AB, dAB = A, np.broadcast_to(X, A.shape)
    for j in range(1, r):
        S, dS = _fl_step(AB, j), _fl_step(dAB, j)
        dB = _fl_next(dS, dAB)
        if j + 1 < r:
            B = _fl_next(S, AB)
            AB, dAB = A @ B, X @ B + A @ dB
    return dB


def second_cofactor(r: int, A: np.ndarray) -> np.ndarray:
    """Second cofactor tensor (S_r^{ij,kl}(A)), shape (N, N, N, N).

    Stored symmetrized over (k, l): slice [:, :, k, l] is the contraction
    along E_kk on the diagonal and along (E_kl + E_lk) / 2 off it, which is
    what contractions against symmetric matrices see.  S_1^{ij,kl}
    vanishes identically; r = 2 gives a constant tensor.
    """
    A = _check_symmetric(A, r, 1)
    N = A.shape[0]
    k, l = np.triu_indices(N)
    X = np.zeros((k.size, N, N))
    X[np.arange(k.size), k, l] += 0.5
    X[np.arange(k.size), l, k] += 0.5
    D = _second_cofactor_batch(np.broadcast_to(A, X.shape), r, X)
    out = np.empty((N, N, N, N))
    out[:, :, k, l] = D.transpose(1, 2, 0)
    out[:, :, l, k] = D.transpose(1, 2, 0)
    return out


def _check_finite(what: str, nodes: np.ndarray, *arrays: np.ndarray) -> None:
    """EvaluationError naming the first node, and its point, where an entry of
    one of the arrays (each with one leading row per node) is not finite.

    On a grid's half rule row i is full-grid node i, so the name holds there
    too; for even fields it is the first bad node of the full grid.
    """
    finite = np.all([np.isfinite(a).reshape(len(nodes), -1).all(axis=1) for a in arrays], axis=0)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise EvaluationError(f"{what} is not finite at node {bad}, x = {nodes[bad].tolist()}",
                              node_index=bad, point=np.array(nodes[bad]))


def _curvature(jet: calculus.Jet, nodes: np.ndarray, frames: np.ndarray, r: int):
    """(h, Q[h], S_r(Q[h]), T_r(Q[h])) at the nodes from an exact support jet.

    Shapes (m,), (m, N, N), (m,) and (m, N, N).  Raises EvaluationError naming
    the first node, and its point, where h or an entry of Q is not finite.
    """
    h, Q = jet.value, calculus.q_from_jet(jet, nodes, frames)
    _check_finite("h or Q[h]", nodes, h, Q)
    return (h, Q) + _cofactor_batch(Q, r)


#: Least eigenvalues within this relative distance of the least one tie.
EIGENVALUE_TIE = 1e-9


def _pd_violation(Q: np.ndarray) -> tuple[int, float] | None:
    """None if every matrix of the finite batch Q is positive definite.

    One batched Cholesky decides; only when it fails does ``eigvalsh`` run,
    to confirm and to return (index, least eigenvalue) of the worst matrix.
    The index is the lowest among the matrices whose least eigenvalue ties
    with the least (within EIGENVALUE_TIE), so a symmetric ring of equal
    matrices is named independently of last-ulp rounding; on a half rule it
    is the lowest full-grid index of the tie set, as in ``_check_finite``.
    """
    try:
        np.linalg.cholesky(Q)
        return None
    except np.linalg.LinAlgError:
        lo = np.linalg.eigvalsh(Q)[:, 0]
    least = float(lo.min())
    if least > 0.0:
        return None
    return int(np.flatnonzero(lo <= least - EIGENVALUE_TIE * least)[0]), least


@dataclass(frozen=True)
class IntrinsicVolumeResult:
    """Value of an intrinsic volume with provenance and error metadata."""

    value: float
    k: int
    method: str
    error_estimate: float = 0.0
    q_positive_definite: bool = True


def _vk_integral(body: Body, k: int, grid: SphericalGrid):
    """(V_k, Q > 0 everywhere) on the grid's half rule."""
    rule = grid.half
    h, Q, S, _ = _curvature(body.support_jet(rule.nodes), rule.nodes, rule.frames, k - 1)
    n = grid.dimension
    value = float(np.dot(rule.weights, h * S)) / (k * unit_ball_volume(n - k))
    return value, _pd_violation(Q) is None


def vk_quadrature(body: Body, k: int, grid: SphericalGrid) -> IntrinsicVolumeResult:
    """V_k of a smooth body by spherical quadrature of h S_{k-1}(Q[h]).

    The error estimate is the difference against a companion grid at half
    the resolution (same method and seed); it is 0 when no coarser grid
    exists.  A non-positive-definite Q at some node is reported through
    ``q_positive_definite`` rather than raised, since it usually signals
    loss of convexity rather than an evaluation failure; a non-finite h or
    Q at some node raises EvaluationError.
    """
    n = grid.dimension
    _check_order("k", k, 1, n)
    require_smooth(body, "vk_quadrature")
    value, pd = _vk_integral(body, k, grid)
    delta = 0.0
    if grid.resolution >= 2:
        coarse = build_grid(n, grid.resolution // 2, grid.method, seed=grid.seed)
        coarse_value, _ = _vk_integral(body, k, coarse)
        delta = abs(value - coarse_value)
    return IntrinsicVolumeResult(value=value, k=k, method="quadrature",
                                 error_estimate=delta, q_positive_definite=pd)


def vk_ball(n: int, k: int, radius: float = 1.0) -> IntrinsicVolumeResult:
    """Closed form V_k(R B_n) = binom(n, k) kappa_n R^k / kappa_{n-k}."""
    _check_order("k", k, 0, n)
    if not 0.0 <= radius < np.inf:
        raise DomainError("radius must be finite and non-negative")
    value = math.comb(n, k) * unit_ball_volume(n) * radius ** k / unit_ball_volume(n - k)
    return IntrinsicVolumeResult(value=value, k=k, method="ball-closed-form")


def vk_box(half_lengths, k: int) -> IntrinsicVolumeResult:
    """V_k of a box with given half-lengths: 2^k e_k(a_1, ..., a_n).

    e_k is the elementary symmetric polynomial, evaluated by the standard
    one-pass recurrence (exact for small integer or dyadic inputs).
    """
    a = [float(v) for v in half_lengths]
    n = len(a)
    _check_order("k", k, 0, n)
    if not all(0.0 <= v < np.inf for v in a):
        raise DomainError("box half-lengths must be finite and non-negative")
    e = [0.0] * (k + 1)
    e[0] = 1.0
    for v in a:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return IntrinsicVolumeResult(value=(2.0 ** k) * e[k], k=k, method="box-formula")


def vk_closed_form(body: Body, k: int, n: int | None = None) -> IntrinsicVolumeResult:
    """V_k of a body with a closed form: a Ball or a Box.

    A Ball carries no ambient dimension, so ``n`` is required for it; a Box
    has its own.  Other bodies raise DomainError.
    """
    if isinstance(body, Ball):
        if n is None:
            raise DomainError("closed-form V_k of a Ball needs the ambient dimension n")
        return vk_ball(n, k, body.radius)
    if isinstance(body, Box):
        return vk_box(body.half_lengths, k)
    raise DomainError(f"no closed-form V_k for {type(body).__name__}; use quadrature")
