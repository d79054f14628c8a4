"""Calculus for scalar fields on the sphere: exact jets and the finite-difference oracle.

A field f defined on S^{n-1} extends to R^n minus the origin either
1-homogeneously, F(y) = |y| f(y/|y|), or 0-homogeneously, f(y/|y|).  For a
support function h the matrix

    Q[h]_ij = e_i^T (Hess F) e_j = h_ij + h delta_ij

in any orthonormal tangent frame {e_i} carries the curvature data used by
the curvature-integral machinery: its elementary symmetric functions are
the area-measure densities.  The spherical gradient of f is the tangential
projection of the gradient of the 0-homogeneous extension, and the
spherical Laplacian satisfies  Delta f = tr Q[f] - (n-1) f.

Every field the package evaluates is P exp(R) for polynomials P and R, so
its value, gradient and Hessian on R^n (its ``Jet``) are exact.  For any
smooth extension g of f to R^n, with E the (n-1) x n frame at x,

    Q[f] = E (Hess g) E^T + (g - x . grad g) I,

which ``q_from_jet`` evaluates; the program computes every Q, spherical
gradient and Laplacian this way.

``tangent_hessian``, ``spherical_gradient`` and ``spherical_laplacian``
are the generic tool for an arbitrary callable and the test oracle for
the exact route.  They difference the field: second derivatives are
central differences at steps (d, 2d) combined by Richardson
extrapolation, which cancels the O(d^2) truncation term.  With the
default step the per-entry error is ~1e-9 for O(1)-smooth fields:
truncation after extrapolation is ~4 d^4 |f^(6)|/360 and rounding is
~4 eps/d^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default step for tangential second differences.  Chosen so that, after
#: Richardson extrapolation, truncation (~d^4) and rounding (~eps/d^2) are
#: both near 1e-9 for fields with derivatives of order unity.
HESSIAN_STEP = 2e-3

#: Default step for first differences (gradient); error ~ eps/d + d^2/6.
GRADIENT_STEP = 1e-5


@dataclass(frozen=True)
class Jet:
    """Value, gradient and Hessian of a field on R^n at m points.

    Shapes (m,), (m, n) and (m, n, n).  Products and ``exp`` follow the
    product and chain rules, so a jet of P exp(R) is exact to rounding.
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    def __mul__(self, other: "Jet") -> "Jet":
        u, w = self.value[:, None], other.value[:, None]
        cross = self.grad[:, :, None] * other.grad[:, None, :]
        return Jet(
            self.value * other.value,
            u * other.grad + w * self.grad,
            u[:, :, None] * other.hess + w[:, :, None] * self.hess
            + cross + np.swapaxes(cross, 1, 2),
        )

    def scaled(self, c: float) -> "Jet":
        return Jet(c * self.value, c * self.grad, c * self.hess)

    def exp(self) -> "Jet":
        e = np.exp(self.value)
        outer = self.grad[:, :, None] * self.grad[:, None, :]
        return Jet(e, e[:, None] * self.grad, e[:, None, None] * (self.hess + outer))


def q_from_jet(jet: Jet, nodes: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Q at unit nodes from a jet of any smooth extension, shape (m, n-1, n-1).

    Q = E (Hess g) E^T + (g - x . grad g) I with E the (n-1, n) frame of
    each node; exact, frame-covariant and symmetric to rounding.
    """
    Q = frames @ jet.hess @ np.swapaxes(frames, 1, 2)
    radial = jet.value - np.einsum("mi,mi->m", jet.grad, nodes)
    N = Q.shape[-1]
    Q[:, np.arange(N), np.arange(N)] += radial[:, None]
    return Q


def extension_deg1(f):
    """1-homogeneous extension: y -> |y| f(y/|y|)."""

    def F(Y):
        Y = np.asarray(Y, dtype=float)
        norms = np.linalg.norm(Y, axis=-1)
        return norms * np.asarray(f(Y / norms[..., None]), dtype=float)

    return F


def extension_deg0(f):
    """0-homogeneous extension: y -> f(y/|y|)."""

    def F(Y):
        Y = np.asarray(Y, dtype=float)
        norms = np.linalg.norm(Y, axis=-1)
        return np.asarray(f(Y / norms[..., None]), dtype=float)

    return F


def _hessian_single_step(F, nodes, frames, f0, d):
    """Tangential Hessian of the extension F by central differences at step d."""
    m, n = nodes.shape
    N = n - 1
    pieces = []
    for i in range(N):
        e = frames[:, i, :]
        pieces.append(nodes + d * e)
        pieces.append(nodes - d * e)
    for i in range(N):
        for j in range(i + 1, N):
            eij = frames[:, i, :] + frames[:, j, :]
            dij = frames[:, i, :] - frames[:, j, :]
            pieces.append(nodes + d * eij)
            pieces.append(nodes + d * dij)
            pieces.append(nodes - d * dij)
            pieces.append(nodes - d * eij)
    stacked = np.concatenate(pieces, axis=0)
    vals = np.asarray(F(stacked), dtype=float).reshape(len(pieces), m)

    Q = np.empty((m, N, N))
    idx = 0
    for i in range(N):
        plus, minus = vals[idx], vals[idx + 1]
        idx += 2
        Q[:, i, i] = (plus - 2.0 * f0 + minus) / (d * d)
    for i in range(N):
        for j in range(i + 1, N):
            pp, pm, mp, mm = vals[idx], vals[idx + 1], vals[idx + 2], vals[idx + 3]
            idx += 4
            # (F(x+d(ei+ej)) - F(x+d(ei-ej)) - F(x-d(ei-ej)) + F(x-d(ei+ej))) / (4 d^2)
            cross = (pp - pm - mp + mm) / (4.0 * d * d)
            Q[:, i, j] = cross
            Q[:, j, i] = cross
    return Q


def tangent_hessian(f, nodes, frames, step: float = HESSIAN_STEP):
    """Q[f] at each node: tangential Hessian of the 1-homogeneous extension.

    Parameters
    ----------
    f : callable
        Scalar field on the sphere, vectorized over an (m, n) array.
    nodes : (m, n) array of unit vectors.
    frames : (m, n-1, n) array of orthonormal tangent frames.
    step : float
        Base step d; differences at d and 2d are Richardson-combined.

    Returns
    -------
    Q : (m, n-1, n-1) array
    err : (m,) array
        Per-node error estimate, max-norm over matrix entries, from the
        discrepancy of the two step sizes.
    """
    F = extension_deg1(f)
    f0 = np.asarray(f(nodes), dtype=float)
    Q1 = _hessian_single_step(F, nodes, frames, f0, step)
    Q2 = _hessian_single_step(F, nodes, frames, f0, 2.0 * step)
    err = np.max(np.abs(Q1 - Q2), axis=(1, 2)) / 3.0
    Q = (4.0 * Q1 - Q2) / 3.0
    return Q, err


def spherical_gradient(f, nodes, step: float = GRADIENT_STEP):
    """Tangential gradient of f at each node, shape (m, n).

    Central differences of the 0-homogeneous extension along the ambient
    axes, projected onto the tangent space.
    """
    F = extension_deg0(f)
    nodes = np.asarray(nodes, dtype=float)
    m, n = nodes.shape
    pieces = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        pieces.append(nodes + e)
        pieces.append(nodes - e)
    vals = np.asarray(F(np.concatenate(pieces, axis=0)), dtype=float).reshape(2 * n, m)
    grad = np.empty((m, n))
    for a in range(n):
        grad[:, a] = (vals[2 * a] - vals[2 * a + 1]) / (2.0 * step)
    grad -= np.einsum("ma,ma->m", grad, nodes)[:, None] * nodes
    return grad


def spherical_laplacian(f, nodes, frames, step: float = HESSIAN_STEP):
    """Laplace-Beltrami of f at each node via Delta f = tr Q[f] - (n-1) f."""
    n = nodes.shape[1]
    Q, _ = tangent_hessian(f, nodes, frames, step=step)
    f0 = np.asarray(f(nodes), dtype=float)
    return np.einsum("mii->m", Q) - (n - 1) * f0
