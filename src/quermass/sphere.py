"""Quadrature grids, tangent frames and polynomial test functions on S^{n-1}.

A grid is a finite set of unit nodes x_j with positive weights w_j such that
sum_j w_j f(x_j) approximates the surface integral of f over the unit sphere
in R^n.  Three constructions are provided:

``product-angular``
    Recursive polar parameterization x = (t, sqrt(1-t^2) * omega) with
    Gauss-Jacobi nodes in each polar variable (weight (1-t^2)^{(d-3)/2} at
    the level where d coordinates remain) and a uniform rule on the base
    circle.  Spectrally accurate for smooth integrands; exact for all
    polynomials of total degree < 2*resolution.

``icosphere-n3``
    n = 3 only.  Geodesic subdivision of the icosahedron at a given
    frequency; nodes are normalized face centroids, weights are the exact
    spherical areas of the subdivided faces (Oosterom-Strackee formula).
    Second-order accurate; useful for cross-checks, not for tight
    tolerances.

``monte-carlo``
    Uniform random nodes (normalized Gaussians) with equal weights summing
    to the exact surface area.  Error is statistical, O(1/sqrt(N)).

Every grid is closed under x -> -x exactly: node sets are built from one
half and mirrored by IEEE negation, so odd integrands cancel to rounding.
Nodes, weights and per-node tangent frames are immutable after
construction and a grid is reproducible from (n, resolution, method, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from .calculus import Jet
from .errors import ConfigurationError, DomainError, EvaluationError, NumericalError

GRID_METHODS = ("product-angular", "icosphere-n3", "monte-carlo")

#: Largest dimension for which the product-angular construction is allowed
#: before node counts become impractical; use monte-carlo beyond it.
MAX_PRODUCT_DIMENSION = 6

#: Default resolutions giving effectively exact quadrature for the smooth
#: integrands handled in this package, at manageable node counts.
REFERENCE_RESOLUTION = {2: 64, 3: 14, 4: 8, 5: 7, 6: 5}


def _circle_half(half_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform rule on S^1 built from one half and its exact negation."""
    m = 2 * half_count
    theta = (np.arange(half_count) + 0.5) * (2.0 * np.pi / m)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    nodes = np.vstack([pts, -pts])
    weights = np.full(m, 2.0 * np.pi / m)
    return nodes, weights


def _jacobi_rule(m: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for weight (1-t^2)^alpha on [-1, 1], symmetrized.

    Nodes are forced into exact +/- pairs (and an exact zero for odd m) so
    that grids built from them are closed under central symmetry.
    """
    t, w = roots_jacobi(m, alpha, alpha)
    order = np.argsort(t)
    t = t[order].copy()
    w = w[order].copy()
    half = m // 2
    for i in range(half):
        j = m - 1 - i
        mag = 0.5 * (t[j] - t[i])
        t[i], t[j] = -mag, mag
        mean = 0.5 * (w[i] + w[j])
        w[i] = w[j] = mean
    if m % 2 == 1:
        t[half] = 0.0
    return t, w


def _product_rule(n: int, res: int) -> tuple[np.ndarray, np.ndarray]:
    if n == 2:
        return _circle_half(res)
    t, wt = _jacobi_rule(res, (n - 3) / 2.0)
    sub_nodes, sub_w = _product_rule(n - 1, res)
    m_sub = sub_nodes.shape[0]
    r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    nodes = np.empty((res * m_sub, n))
    for i in range(res):
        block = slice(i * m_sub, (i + 1) * m_sub)
        nodes[block, 0] = t[i]
        nodes[block, 1:] = r[i] * sub_nodes
    weights = np.kron(wt, sub_w)
    return nodes, weights


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        [-1, _GOLDEN, 0], [1, _GOLDEN, 0], [-1, -_GOLDEN, 0], [1, -_GOLDEN, 0],
        [0, -1, _GOLDEN], [0, 1, _GOLDEN], [0, -1, -_GOLDEN], [0, 1, -_GOLDEN],
        [_GOLDEN, 0, -1], [_GOLDEN, 0, 1], [-_GOLDEN, 0, -1], [-_GOLDEN, 0, 1],
    ],
    dtype=float,
)

_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def _spherical_triangle_area(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    # Oosterom-Strackee: tan(E/2) = |det[a b c]| / (1 + a.b + b.c + c.a)
    num = abs(np.dot(a, np.cross(b, c)))
    den = 1.0 + np.dot(a, b) + np.dot(b, c) + np.dot(c, a)
    return 2.0 * math.atan2(num, den)


def _icosphere_half(freq: int) -> tuple[np.ndarray, np.ndarray]:
    """Subdivide one face per antipodal pair; caller mirrors the result."""
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    # Pair faces antipodally and keep one representative per pair.
    anti = {}
    for i, v in enumerate(verts):
        dots = verts @ v
        anti[i] = int(np.argmin(dots))
    kept = []
    seen: set[frozenset] = set()
    for f in _ICO_FACES:
        key = frozenset(f)
        if key in seen:
            continue
        seen.add(key)
        seen.add(frozenset(anti[i] for i in f))
        kept.append(f)
    assert len(kept) == 10
    nodes = []
    weights = []
    for (ia, ib, ic) in kept:
        A, B, C = verts[ia], verts[ib], verts[ic]
        # Barycentric lattice points of the subdivided flat face, projected.
        grid = {}
        for a in range(freq + 1):
            for b in range(freq + 1 - a):
                c = freq - a - b
                p = (a * A + b * B + c * C) / freq
                grid[(a, b)] = p / np.linalg.norm(p)
        for a in range(freq):
            for b in range(freq - a):
                # upward triangle
                p0, p1, p2 = grid[(a, b)], grid[(a + 1, b)], grid[(a, b + 1)]
                cen = p0 + p1 + p2
                nodes.append(cen / np.linalg.norm(cen))
                weights.append(_spherical_triangle_area(p0, p1, p2))
                if a + b < freq - 1:
                    # downward triangle
                    q0, q1, q2 = grid[(a + 1, b)], grid[(a + 1, b + 1)], grid[(a, b + 1)]
                    cen = q0 + q1 + q2
                    nodes.append(cen / np.linalg.norm(cen))
                    weights.append(_spherical_triangle_area(q0, q1, q2))
    return np.array(nodes), np.array(weights)


def _kappa_table(top: int) -> tuple:
    # recurrence kappa_j = kappa_{j-2} 2 pi / j from exact seeds; one ulp
    # tighter than the gamma-function formula for small j
    vals = [1.0, 2.0]
    for j in range(2, top + 1):
        vals.append(vals[j - 2] * 2.0 * math.pi / j)
    return tuple(vals)


#: Unit-ball volumes kappa_j, precomputed for j = 0..16.
KAPPA = _kappa_table(16)


def unit_ball_volume(j: int) -> float:
    """kappa_j, the volume of the unit ball in R^j (table for j <= 16)."""
    if j < 0:
        raise DomainError("dimension must be non-negative")
    if j < len(KAPPA):
        return KAPPA[j]
    return math.pi ** (j / 2.0) / math.gamma(j / 2.0 + 1.0)


def surface_area(n: int) -> float:
    """Surface area of S^{n-1} in R^n, i.e. n * kappa_n."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return n * unit_ball_volume(n)


def _monte_carlo_half(n: int, res: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    half = (res + 1) // 2
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((half, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    nodes = np.vstack([raw, -raw])
    weights = np.full(2 * half, surface_area(n) / (2 * half))
    return nodes, weights


def _householder_frames(nodes: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames at unit nodes, shape (m, n-1, n).

    Uses the Householder reflection mapping the dominant coordinate axis to
    the node; its remaining columns are an orthonormal basis of the tangent
    space.  Deterministic and stable since the pivot entry is >= 1/sqrt(n).
    """
    m, n = nodes.shape
    a = np.argmax(np.abs(nodes), axis=1)
    rows = np.arange(m)
    pivot = nodes[rows, a]
    sigma = np.where(pivot >= 0.0, 1.0, -1.0)
    v = nodes.copy()
    v[rows, a] += sigma
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # Columns j != a of H = I - 2 v v^T, each orthogonal to the node.
    H = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    H -= 2.0 * v[:, :, None] * v[:, None, :]
    frames = np.empty((m, n - 1, n))
    cols = np.array([[j for j in range(n) if j != ai] for ai in a])
    for idx in range(n - 1):
        frames[:, idx, :] = H[rows, :, cols[:, idx]]
    return frames


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal basis of the tangent space of S^{n-1} at ``base_point``."""

    base_point: np.ndarray
    vectors: np.ndarray  # (n-1, n), rows orthonormal and orthogonal to base_point


def tangent_frame(x: np.ndarray) -> TangentFrame:
    """Deterministic orthonormal tangent frame at a unit vector x.

    Raises
    ------
    DomainError
        If ``|x|`` differs from 1 by more than 1e-10.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("tangent_frame expects a single vector")
    if abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise DomainError("tangent_frame requires a unit vector")
    vecs = _householder_frames(x[None, :])[0]
    return TangentFrame(base_point=x.copy(), vectors=vecs)


@dataclass(frozen=True)
class SphericalGrid:
    """Immutable quadrature grid on S^{n-1} with cached tangent frames."""

    dimension: int
    resolution: int
    method: str
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    frames: np.ndarray = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.frames):
            arr.setflags(write=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def area(self) -> float:
        """Sum of weights; approximates (for product rules, equals) |S^{n-1}|."""
        return float(np.sum(self.weights))

    def fingerprint(self) -> str:
        """SHA-256 over node and weight bytes; identifies the grid in reports."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.nodes).tobytes())
        digest.update(np.ascontiguousarray(self.weights).tobytes())
        return digest.hexdigest()

    def to_json(self) -> dict:
        return {
            "schema": "quermass.grid/1",
            "dimension": self.dimension,
            "resolution": self.resolution,
            "method": self.method,
            "seed": self.seed,
            "nodes": self.nodes.tolist(),
            "weights": self.weights.tolist(),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @staticmethod
    def from_json(doc: dict) -> "SphericalGrid":
        if doc.get("schema") != "quermass.grid/1":
            raise ConfigurationError("unrecognized grid document schema")
        nodes = np.asarray(doc["nodes"], dtype=float)
        weights = np.asarray(doc["weights"], dtype=float)
        return SphericalGrid(
            dimension=int(doc["dimension"]),
            resolution=int(doc["resolution"]),
            method=str(doc["method"]),
            nodes=nodes,
            weights=weights,
            frames=_householder_frames(nodes),
            seed=doc.get("seed"),
        )

    @staticmethod
    def load(path) -> "SphericalGrid":
        with open(path) as fh:
            return SphericalGrid.from_json(json.load(fh))


def build_grid(n: int, resolution: int, method: str, seed: int | None = None) -> SphericalGrid:
    """Construct a quadrature grid on S^{n-1}.

    Parameters
    ----------
    n : int
        Ambient dimension, n >= 2.
    resolution : int
        Refinement parameter; node count grows monotonically with it.
        For ``product-angular`` the node count is 2 * resolution^{n-1}
        (for n = 2, ``resolution`` rounded up to an even node count);
        for ``icosphere-n3`` it is 20 * resolution^2 faces; for
        ``monte-carlo`` it is ``resolution`` rounded up to even.
    method : str
        One of ``product-angular``, ``icosphere-n3``, ``monte-carlo``.
    seed : int, optional
        Required meaning only for ``monte-carlo`` (defaults to 0).

    Raises
    ------
    ConfigurationError
        For an unsupported (n, method) pairing.
    DomainError
        For a non-positive resolution, n < 2 or a negative monte-carlo seed.
    """
    if n < 2:
        raise DomainError(f"sphere dimension must satisfy n >= 2, got n={n}")
    if resolution < 1:
        raise DomainError(f"resolution must be >= 1, got {resolution}")
    if method not in GRID_METHODS:
        raise ConfigurationError(f"unknown grid method {method!r}; choose from {GRID_METHODS}")

    used_seed = None
    if method == "product-angular":
        if n > MAX_PRODUCT_DIMENSION:
            raise ConfigurationError(
                f"product-angular grids are limited to n <= {MAX_PRODUCT_DIMENSION}; "
                "use monte-carlo for higher dimensions"
            )
        if n == 2:
            nodes, weights = _circle_half((resolution + 1) // 2)
        else:
            nodes, weights = _product_rule(n, resolution)
    elif method == "icosphere-n3":
        if n != 3:
            raise ConfigurationError("icosphere-n3 grids exist only for n = 3")
        half_nodes, half_weights = _icosphere_half(resolution)
        nodes = np.vstack([half_nodes, -half_nodes])
        weights = np.concatenate([half_weights, half_weights])
    else:  # monte-carlo
        used_seed = 0 if seed is None else int(seed)
        if used_seed < 0:
            raise DomainError(f"monte-carlo seed must be >= 0, got {used_seed}")
        nodes, weights = _monte_carlo_half(n, resolution, used_seed)

    if not np.all(weights > 0.0):
        raise NumericalError("grid construction produced a non-positive weight")
    frames = _householder_frames(nodes)
    return SphericalGrid(
        dimension=n,
        resolution=resolution,
        method=method,
        nodes=nodes,
        weights=weights,
        frames=frames,
        seed=used_seed,
    )


def integrate(grid: SphericalGrid, f) -> float:
    """Integrate a scalar field over the sphere with the grid's rule.

    ``f`` is called with the full (m, n) node array and must return m
    values; a callable accepting single points is handled as a fallback.

    Raises
    ------
    EvaluationError
        If any field value is non-finite; the error records the offending
        node index and coordinates.
    """
    try:
        vals = np.asarray(f(grid.nodes), dtype=float)
        if vals.shape != (grid.node_count,):
            raise TypeError
    except TypeError:
        vals = np.array([float(f(x)) for x in grid.nodes])
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise EvaluationError(
            f"field returned non-finite value at node {bad}",
            node_index=bad,
            point=np.array(grid.nodes[bad]),
        )
    return float(np.dot(grid.weights, vals))


def _even_total_degree(exponents: tuple[int, ...]) -> bool:
    return sum(exponents) % 2 == 0


@dataclass(frozen=True)
class TestFunction:
    """Even polynomial test function on the sphere.

    Represented as a list of monomial terms (coefficient, exponent tuple);
    every term must have even total degree, which makes psi(-x) = psi(x)
    exact in floating point.  ``amplitude`` scales the whole function.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    dimension: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]
    amplitude: float = 1.0

    def __post_init__(self):
        for coeff, exps in self.terms:
            if len(exps) != self.dimension:
                raise DomainError("term exponent tuple length must equal the dimension")
            if any(e < 0 for e in exps):
                raise DomainError("monomial exponents must be non-negative")
            if not _even_total_degree(exps):
                raise DomainError(
                    f"test functions must be even; term {exps} has odd total degree"
                )

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        out = np.zeros(X.shape[0])
        for coeff, exps in self.terms:
            term = np.full(X.shape[0], coeff)
            for axis, e in enumerate(exps):
                if e:
                    term = term * X[:, axis] ** e
            out += term
        out *= self.amplitude
        return out[0] if single else out

    def jet(self, X: np.ndarray) -> Jet:
        """Exact value, gradient and Hessian on R^n at the rows of X.

        Each term c x^e contributes the monomials of its first and second
        partial derivatives; every distinct monomial is evaluated once and
        the derivative rows are one coefficient matrix product.
        """
        X = np.asarray(X, dtype=float)
        m, n = X.shape
        rows: list[tuple[int, float, tuple[int, ...]]] = []  # (row, coefficient, exponents)
        for coeff, exps in self.terms:
            for a in range(n):
                if exps[a]:
                    da = exps[:a] + (exps[a] - 1,) + exps[a + 1:]
                    rows.append((a, coeff * exps[a], da))
                    for b in range(n):
                        if da[b]:
                            dab = da[:b] + (da[b] - 1,) + da[b + 1:]
                            rows.append((n + a * n + b, coeff * exps[a] * da[b], dab))
        monomials = {e: i for i, e in enumerate(dict.fromkeys(e for _, _, e in rows))}
        C = np.zeros((n + n * n, len(monomials)))
        for row, c, e in rows:
            C[row, monomials[e]] += c
        M = np.ones((len(monomials), m))
        for e, i in monomials.items():
            for a, p in enumerate(e):
                if p:
                    M[i] *= X[:, a] ** p
        D = self.amplitude * (C @ M)
        return Jet(self(X), D[:n].T, D[n:].T.reshape(m, n, n))

    def scaled(self, factor: float) -> "TestFunction":
        return TestFunction(self.dimension, self.terms, self.amplitude * factor)

    def shifted(self, constant: float) -> "TestFunction":
        """Add a constant (as an extra degree-0 term inside the amplitude)."""
        if self.amplitude == 0.0:
            return TestFunction.constant(self.dimension, constant)
        extra = (constant / self.amplitude, (0,) * self.dimension)
        return TestFunction(self.dimension, self.terms + (extra,), self.amplitude)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "amplitude": self.amplitude,
            "terms": [[c, list(e)] for c, e in self.terms],
        }

    @staticmethod
    def from_json(doc: dict) -> "TestFunction":
        terms = tuple((float(c), tuple(int(v) for v in e)) for c, e in doc["terms"])
        return TestFunction(int(doc["dimension"]), terms, float(doc.get("amplitude", 1.0)))

    @staticmethod
    def constant(n: int, value: float) -> "TestFunction":
        return TestFunction(n, ((value, (0,) * n),), 1.0)

    @staticmethod
    def quadratic(A: np.ndarray, constant: float = 0.0, amplitude: float = 1.0) -> "TestFunction":
        """x -> x^T A x + constant for a symmetric coefficient matrix A."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n) or not np.allclose(A, A.T, atol=1e-12):
            raise DomainError("quadratic test functions need a symmetric matrix")
        terms: list[tuple[float, tuple[int, ...]]] = []
        for i in range(n):
            if A[i, i] != 0.0:
                exps = tuple(2 if j == i else 0 for j in range(n))
                terms.append((float(A[i, i]), exps))
            for j in range(i + 1, n):
                if A[i, j] != 0.0:
                    exps = tuple(1 if k in (i, j) else 0 for k in range(n))
                    terms.append((float(2.0 * A[i, j]), exps))
        if constant != 0.0 or not terms:
            terms.append((float(constant), (0,) * n))
        return TestFunction(n, tuple(terms), amplitude)

    @staticmethod
    def coordinate_harmonic(n: int, axis: int = 0) -> "TestFunction":
        """x_axis^2 - 1/n: the zero-mean degree-2 zonal harmonic."""
        sq = tuple(2 if j == axis else 0 for j in range(n))
        return TestFunction(n, ((1.0, sq), (-1.0 / n, (0,) * n)), 1.0)

    @staticmethod
    def zonal_degree4(n: int, axis: int = 0) -> "TestFunction":
        """Degree-4 zonal spherical harmonic in x_axis, zero-mean and even.

        x^4 - (6/(n+4)) x^2 + 3/((n+2)(n+4)); eigenvalue of the spherical
        Laplacian is 4(n+2).
        """
        q4 = tuple(4 if j == axis else 0 for j in range(n))
        q2 = tuple(2 if j == axis else 0 for j in range(n))
        return TestFunction(
            n,
            (
                (1.0, q4),
                (-6.0 / (n + 4), q2),
                (3.0 / ((n + 2) * (n + 4)), (0,) * n),
            ),
            1.0,
        )
