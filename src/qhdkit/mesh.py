"""Regular grids on the unit box: wavefunction storage, finite-difference
operators, position observables, sampling, and success statistics.

Indexing convention (fixed so cross-module checks compare bit-exactly): flat
arrays over a d-dimensional grid are in C order with the *first* axis slowest,
i.e. flat index = j_1 * npe^(d-1) + ... + j_d for multi-index (j_1, ..., j_d).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EvaluationError

if TYPE_CHECKING:
    import scipy.sparse as sp

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

#: unit-norm tolerance for wavefunctions
NORM_TOL = 1e-10


def _is_integer(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _require_count(name: str, value, low: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    >= ``low`` (bools are not)."""
    if not (_is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class Mesh:
    """Regular grid over [0, 1]^dim.

    A Dirichlet grid with r cells per edge has r + 1 nodes per edge at j/r,
    endpoints included (vanishing-boundary discretizations). A periodic grid
    with N cells per edge has N nodes at j/N; the node at 1 is identified
    with the node at 0 (pseudo-spectral discretizations). Mixing the two
    boundary kinds across operations is a hard error.
    """

    dim: int
    cells_per_edge: int
    boundary: str

    def __post_init__(self):
        _require_count("dimension", self.dim)
        _require_count("cells_per_edge", self.cells_per_edge)
        if self.boundary not in (DIRICHLET, PERIODIC):
            raise ValueError(f"unknown boundary kind {self.boundary!r}")

    @property
    def nodes_per_edge(self) -> int:
        if self.boundary == DIRICHLET:
            return self.cells_per_edge + 1
        return self.cells_per_edge

    @property
    def shape(self) -> tuple:
        return (self.nodes_per_edge,) * self.dim

    @property
    def size(self) -> int:
        return self.nodes_per_edge ** self.dim

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one edge."""
        return np.arange(self.nodes_per_edge) / self.cells_per_edge

    def node_coords(self) -> np.ndarray:
        """All node coordinates as a (size, dim) array in flat-index order."""
        axes = np.meshgrid(*([self.axis_coords()] * self.dim), indexing="ij")
        return np.stack([a.reshape(-1) for a in axes], axis=1)

    def flat_index(self, multi) -> int:
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def require(self, boundary: str):
        if self.boundary != boundary:
            raise ValueError(
                f"operation requires a {boundary} mesh, got {self.boundary}")


@dataclass(frozen=True)
class WaveFunction:
    """Normalized complex amplitude field on a mesh (flat, C order)."""

    mesh: Mesh
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amp)
        if amp.size != self.mesh.size:
            raise ValueError(
                f"expected {self.mesh.size} amplitudes, got {amp.size}")
        nrm = np.sum(np.abs(amp) ** 2)
        if not np.isfinite(nrm) or abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"wavefunction is not unit norm: sum|c|^2 = {nrm}")

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_json(self) -> str:
        doc = {
            "mesh": {
                "dim": self.mesh.dim,
                "cells_per_edge": self.mesh.cells_per_edge,
                "boundary": self.mesh.boundary,
            },
            "amplitudes": [[float(c.real), float(c.imag)]
                           for c in self.amplitudes],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "WaveFunction":
        doc = json.loads(text)
        m = doc["mesh"]
        mesh = Mesh(m["dim"], m["cells_per_edge"], m["boundary"])
        amp = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        return WaveFunction(mesh, amp)


@dataclass(frozen=True)
class DiagonalOperator:
    """Real multiplication operator aligned with WaveFunction indexing."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", vals)
        if vals.size != self.mesh.size:
            raise ValueError(
                f"expected {self.mesh.size} values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("diagonal operator has non-finite entries")


def _chain_adjacency(n: int) -> sp.csr_matrix:
    import scipy.sparse as sp
    ones = np.ones(n - 1)
    return sp.diags([ones, ones], offsets=[1, -1], format="csr")


def kron_sum(a1, dim: int) -> sp.csr_matrix:
    """Kronecker sum of ``dim`` copies of the square sparse matrix ``a1``:
    the sum over axes k of I x ... x a1 (at k) x ... x I, first axis
    slowest as in the flat-index convention. Built as K_1 = a1,
    K_{k+1} = K_k x I + I x a1, which adds the axes' terms in axis order."""
    import scipy.sparse as sp
    n = a1.shape[0]
    total = a1
    for k in range(1, dim):
        total = (sp.kron(total, sp.identity(n), format="csr")
                 + sp.kron(sp.identity(n ** k), a1, format="csr"))
    return total.tocsr()


def lattice_adjacency(mesh: Mesh) -> sp.csr_matrix:
    """Adjacency matrix of the d-dimensional regular lattice on the mesh
    (Kronecker sum of per-axis chain adjacencies)."""
    return kron_sum(_chain_adjacency(mesh.nodes_per_edge), mesh.dim)


def build_fdm_operators(mesh: Mesh):
    """Central finite-difference Laplacian and position observables.

    Returns ``(laplacian, positions)`` where laplacian = r^2 (A_d - 2 d I)
    on all (r+1)^d nodes, A_d the lattice adjacency, and positions[k] is the
    diagonal observable with value j_k / r at node (j_1, ..., j_d).
    """
    import scipy.sparse as sp
    mesh.require(DIRICHLET)
    r = mesh.cells_per_edge
    adj = lattice_adjacency(mesh)
    lap = (r ** 2) * (adj - 2 * mesh.dim * sp.identity(mesh.size, format="csr"))
    coords = mesh.node_coords()
    positions = [DiagonalOperator(mesh, coords[:, k]) for k in range(mesh.dim)]
    return lap.tocsr(), positions


def discretize_objective(mesh: Mesh, f) -> DiagonalOperator:
    """Sample an objective at the mesh nodes (same arithmetic as the caller's
    evaluator). ``f`` maps an (n, dim) array of points to n values."""
    values = np.asarray(f(mesh.node_coords()), dtype=float).reshape(-1)
    if values.size != mesh.size:
        raise ValueError("objective did not return one value per node")
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = int(np.argmax(bad))
        multi = np.unravel_index(idx, mesh.shape)
        raise EvaluationError(
            f"objective is non-finite at node {multi}", index=idx)
    return DiagonalOperator(mesh, values)


def uniform_state(mesh: Mesh) -> WaveFunction:
    """Equal positive real amplitudes on every node."""
    amp = np.full(mesh.size, 1.0 / np.sqrt(mesh.size), dtype=complex)
    return WaveFunction(mesh, amp)


def gaussian_state(mesh: Mesh, center, variance: float) -> WaveFunction:
    """State whose node density is the isotropic Gaussian of the given
    (density) variance centered at ``center``, renormalized; phase is zero."""
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.size != mesh.dim:
        raise ValueError("center has wrong dimension")
    if np.any(center < 0.0) or np.any(center > 1.0):
        raise ValueError(f"center {center} lies outside [0,1]^d")
    coords = mesh.node_coords()
    d2 = np.sum((coords - center) ** 2, axis=1)
    density = np.exp(-d2 / (2.0 * variance))
    amp = np.sqrt(density / np.sum(density)).astype(complex)
    return WaveFunction(mesh, amp)


def point_mass(mesh: Mesh, point) -> WaveFunction:
    """State concentrated on the mesh node nearest to ``point``."""
    coords = mesh.node_coords()
    idx = int(np.argmin(np.sum((coords - np.asarray(point)) ** 2, axis=1)))
    amp = np.zeros(mesh.size, dtype=complex)
    amp[idx] = 1.0
    return WaveFunction(mesh, amp)


def expectation(psi: WaveFunction, obs: DiagonalOperator) -> float:
    if psi.mesh != obs.mesh:
        raise ValueError("wavefunction and observable live on different meshes")
    return float(np.real(np.sum(obs.values * psi.density())))


def sample_positions(psi: WaveFunction, shots: int, seed: int) -> np.ndarray:
    """i.i.d. node draws from |amplitudes|^2; deterministic given ``seed``.

    Returns a (shots, dim) array of node coordinates.
    """
    _require_count("shots", shots)
    rng = np.random.default_rng(seed)
    p = psi.density()
    p = p / p.sum()
    idx = rng.choice(psi.mesh.size, size=shots, p=p)
    return psi.mesh.node_coords()[idx]


def success_probability(psi: WaveFunction, x_star, radius: float) -> float:
    """Probability mass of nodes strictly within Euclidean ``radius`` of
    ``x_star``; ties at exactly the radius are excluded, with a relative
    guard of 1e-12 so ties survive floating-point coordinate noise."""
    return float(np.sum(psi.density()[success_mask(psi.mesh, x_star, radius)]))


def within_radius(points, x_star, radius: float) -> np.ndarray:
    """Mask of the points (last axis = coordinates) strictly within
    Euclidean ``radius`` of ``x_star``; ties at exactly the radius are
    excluded with a relative guard of 1e-12 against coordinate noise. A
    radius that is not finite and positive raises ``ValueError``."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    d = np.linalg.norm(points - np.asarray(x_star, dtype=float), axis=-1)
    return d < radius * (1.0 - 1e-12)


def success_mask(mesh: Mesh, x_star, radius: float) -> np.ndarray:
    """Boolean node mask used by evolution loops to track success mass."""
    return within_radius(mesh.node_coords(), x_star, radius)
