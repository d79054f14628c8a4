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
and V_k of a box with half-lengths a_i is 2^k e_k(a_1..a_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus
from .bodies import Ball, Body, Box, EmbeddedCube, require_smooth
from .errors import DomainError
# KAPPA and unit_ball_volume live in sphere and stay importable from here.
from .sphere import (KAPPA, SphericalGrid, TangentFrame, build_grid,
                     tangent_frame, unit_ball_volume)


def _check_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("expected a square matrix")
    return A


def _check_symmetric(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    A = _check_square(A)
    if A.size and np.max(np.abs(A - A.T)) > tol * (1.0 + np.max(np.abs(A))):
        raise DomainError("matrix must be symmetric")
    return A


def _fl_step(AB: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """One Faddeev-LeVerrier step from AB = A B_j: returns (S_j, B_{j+1}) with

        S_j = tr(A B_j) / j,  B_{j+1} = S_j I - A B_j.

    The step is linear in A B_j, so applied to d(A B_j) it gives dS_j and
    dB_{j+1}.
    """
    s = np.einsum("mii->m", AB) / j
    return s, s[:, None, None] * np.eye(AB.shape[-1]) - AB


def _elem_sym_all_batch(A: np.ndarray) -> np.ndarray:
    """S_0..S_N for a batch of matrices, shape (m, N, N) -> (m, N + 1).

    Faddeev-LeVerrier steps from B_1 = I.
    """
    m, N, _ = A.shape
    out = np.empty((m, N + 1))
    out[:, 0] = 1.0
    B = np.broadcast_to(np.eye(N), A.shape)
    for r in range(1, N + 1):
        out[:, r], B = _fl_step(A @ B, r)
    return out


def elem_sym(r: int, A: np.ndarray) -> float:
    """Elementary symmetric function S_r of the eigenvalues of symmetric A."""
    A = _check_symmetric(A)
    N = A.shape[0]
    if not 0 <= r <= N:
        raise DomainError(f"order r must satisfy 0 <= r <= {N}, got {r}")
    return float(_elem_sym_all_batch(A[None])[0, r])


def _cofactor_batch(A: np.ndarray, r: int) -> np.ndarray:
    """Exact first cofactors T_r = B_r for a batch (m, N, N) -> (m, N, N).

    r - 1 Faddeev-LeVerrier steps from B_1 = I.
    """
    B = np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()
    for j in range(1, r):
        _, B = _fl_step(A @ B, j)
    return B


def cofactor(r: int, A: np.ndarray) -> np.ndarray:
    """First cofactor matrix (S_r^{ij}(A)) = (d S_r / d a_ij).

    Closed form: sum_{m=0}^{r-1} (-1)^m S_{r-1-m}(A) A^m; for r = N this
    is the adjugate, and at A = I_N it equals binom(N-1, r-1) I_N.
    """
    A = _check_symmetric(A)
    N = A.shape[0]
    if not 1 <= r <= N:
        raise DomainError(f"order r must satisfy 1 <= r <= {N}, got {r}")
    return _cofactor_batch(A[None], r)[0]


def _second_cofactor_batch(A: np.ndarray, r: int, X: np.ndarray) -> np.ndarray:
    """Contractions <S_r^{ij,kl}(A), X_kl> = d/de T_r(A + e X) at e = 0.

    A has shape (m, N, N) and X, symmetric, (N, N) or (m, N, N).  Forward
    mode through the steps of ``_cofactor_batch`` from dB_1 = 0, with
    d(A B_j) = X B_j + A dB_j; exact, and zero for r <= 1.  Returns (m, N, N).
    """
    B = np.broadcast_to(np.eye(A.shape[-1]), A.shape)
    dB = np.zeros(A.shape)
    for j in range(1, r):
        dAB = X @ B + A @ dB
        _, B = _fl_step(A @ B, j)
        _, dB = _fl_step(dAB, j)
    return dB


def second_cofactor(r: int, A: np.ndarray) -> np.ndarray:
    """Second cofactor tensor (S_r^{ij,kl}(A)), shape (N, N, N, N).

    Stored symmetrized over (k, l): slice [:, :, k, l] is the contraction
    along E_kk on the diagonal and along (E_kl + E_lk) / 2 off it, which is
    what contractions against symmetric matrices see.  S_1^{ij,kl}
    vanishes identically; r = 2 gives a constant tensor.
    """
    A = _check_symmetric(A)
    N = A.shape[0]
    if not 1 <= r <= N:
        raise DomainError(f"order r must satisfy 1 <= r <= {N}, got {r}")
    k, l = np.triu_indices(N)
    X = np.zeros((k.size, N, N))
    X[np.arange(k.size), k, l] += 0.5
    X[np.arange(k.size), l, k] += 0.5
    D = _second_cofactor_batch(np.broadcast_to(A, X.shape), r, X)
    out = np.empty((N, N, N, N))
    out[:, :, k, l] = D.transpose(1, 2, 0)
    out[:, :, l, k] = D.transpose(1, 2, 0)
    return out


def q_matrix(body: Body, x: np.ndarray, frame: TangentFrame | None = None) -> np.ndarray:
    """Q[h] = (h_ij + h delta_ij) at a unit direction, in the given frame.

    Requires a smooth body with an exact support jet; Q is exact.  The
    result is frame-covariant: its elementary symmetric functions do not
    depend on the frame choice.
    """
    require_smooth(body, "q_matrix")
    if frame is None:
        frame = tangent_frame(x)
    X = np.asarray(x, dtype=float)[None, :]
    return calculus.q_from_jet(body.support_jet(X), X, frame.vectors[None, :, :])[0]


def q_matrix_nodes(body: Body, grid: SphericalGrid):
    """Q[h] at every grid node using the grid's cached frames.

    Returns (Q, err) with Q of shape (m, n-1, n-1), exact from the body's
    support jet, and err the per-node derivative error, which is zero on
    this exact route (shape (m,)).
    """
    require_smooth(body, "q_matrix_nodes")
    Q = calculus.q_from_jet(body.support_jet(grid.nodes), grid.nodes, grid.frames)
    return Q, np.zeros(grid.node_count)


def area_measure_density(body: Body, k: int, x: np.ndarray,
                         frame: TangentFrame | None = None) -> float:
    """Density S_{k-1}(Q[h]) of the (k-1)-st area measure at direction x."""
    n = np.asarray(x).shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"order k must satisfy 1 <= k <= {n}, got {k}")
    Q = q_matrix(body, x, frame)
    return float(_elem_sym_all_batch(Q[None])[0, k - 1])


@dataclass(frozen=True)
class IntrinsicVolumeResult:
    """Value of an intrinsic volume with provenance and error metadata."""

    value: float
    k: int
    method: str
    error_estimate: float = 0.0
    q_positive_definite: bool = True


def _vk_integral(body: Body, k: int, grid: SphericalGrid):
    h = np.asarray(body.support_values(grid.nodes), dtype=float)
    Q, _ = q_matrix_nodes(body, grid)
    dens = _elem_sym_all_batch(Q)[:, k - 1]
    pd = bool(np.all(np.linalg.eigvalsh(Q)[:, 0] > 0.0))
    n = grid.dimension
    value = float(np.dot(grid.weights, h * dens)) / (k * unit_ball_volume(n - k))
    return value, pd


def vk_quadrature(body: Body, k: int, grid: SphericalGrid,
                  error_estimate: bool = True) -> IntrinsicVolumeResult:
    """V_k of a smooth body by spherical quadrature of h S_{k-1}(Q[h]).

    The error estimate is the difference against a companion grid at half
    the resolution (same method and seed); it is 0 when no coarser grid
    exists.  A non-positive-definite Q at some node is reported through
    ``q_positive_definite`` rather than raised, since it usually signals
    loss of convexity rather than an evaluation failure.
    """
    n = grid.dimension
    if not 1 <= k <= n:
        raise DomainError(f"order k must satisfy 1 <= k <= {n}, got {k}")
    require_smooth(body, "vk_quadrature")
    value, pd = _vk_integral(body, k, grid)
    delta = 0.0
    if error_estimate and grid.resolution >= 2:
        coarse = build_grid(n, grid.resolution // 2, grid.method, seed=grid.seed)
        coarse_value, _ = _vk_integral(body, k, coarse)
        delta = abs(value - coarse_value)
    return IntrinsicVolumeResult(value=value, k=k, method="quadrature",
                                 error_estimate=delta, q_positive_definite=pd)


def vk_ball(n: int, k: int, radius: float = 1.0) -> IntrinsicVolumeResult:
    """Closed form V_k(R B_n) = binom(n, k) kappa_n R^k / kappa_{n-k}."""
    if not 0 <= k <= n:
        raise DomainError(f"order k must satisfy 0 <= k <= {n}, got {k}")
    if radius < 0.0:
        raise DomainError("radius must be non-negative")
    value = math.comb(n, k) * unit_ball_volume(n) * radius ** k / unit_ball_volume(n - k)
    return IntrinsicVolumeResult(value=value, k=k, method="ball-closed-form")


def vk_box(half_lengths, k: int) -> IntrinsicVolumeResult:
    """V_k of a box with given half-lengths: 2^k e_k(a_1, ..., a_n).

    e_k is the elementary symmetric polynomial, evaluated by the standard
    one-pass recurrence (exact for small integer or dyadic inputs).
    """
    a = [float(v) for v in half_lengths]
    n = len(a)
    if not 0 <= k <= n:
        raise DomainError(f"order k must satisfy 0 <= k <= {n}, got {k}")
    if any(v < 0.0 for v in a):
        raise DomainError("box half-lengths must be non-negative")
    e = [0.0] * (k + 1)
    e[0] = 1.0
    for v in a:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return IntrinsicVolumeResult(value=(2.0 ** k) * e[k], k=k, method="box-formula")


def vk_closed_form(body: Body, k: int, n: int | None = None) -> IntrinsicVolumeResult:
    """V_k of a body with a closed form: a Ball, a Box or an EmbeddedCube.

    A Ball carries no ambient dimension, so ``n`` is required for it; an
    EmbeddedCube is the box with half-lengths 1 on its indices and 0 on the
    other coordinates of its own dimension.  Other bodies raise DomainError.
    """
    if isinstance(body, Ball):
        if n is None:
            raise DomainError("closed-form V_k of a Ball needs the ambient dimension n")
        return vk_ball(n, k, body.radius)
    if isinstance(body, Box):
        return vk_box(body.half_lengths, k)
    if isinstance(body, EmbeddedCube):
        return vk_box([float(i in body.indices) for i in range(body.dimension)], k)
    raise DomainError(f"no closed-form V_k for {type(body).__name__}; use quadrature")
