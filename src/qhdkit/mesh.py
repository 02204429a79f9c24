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

#: most rows an evaluator receives in one call when a whole grid or a
#: batch of points is evaluated, and most nodes in a block of the split
#: step's potential phase or of ``lyapunov_W``'s J psi, so their
#: temporaries stay a few hundred KiB whatever the grid size
GRID_BLOCK = 2 ** 12


def _is_integer(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _require_count(name: str, value, low: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    >= ``low`` (bools are not)."""
    if not (_is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_real(name: str, value, *, strict=True) -> float:
    """``value`` as a float; raise ``ValueError`` naming ``name`` unless it
    is a real number (bools are not), finite and > 0 (>= 0 when not
    ``strict``)."""
    if not ((_is_integer(value) or isinstance(value, (float, np.floating)))
            and (0 < value if strict else 0 <= value) and value < np.inf):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='}"
                         f" 0, got {value!r}")
    return float(value)


def _axis_shapes(dim: int) -> list:
    """Broadcast shapes that lay a 1-D array along each axis of a d-grid."""
    return [tuple(-1 if a == ax else 1 for a in range(dim))
            for ax in range(dim)]


def _coords_table(axis: np.ndarray, dim: int) -> np.ndarray:
    """The (len(axis)^dim, dim) coordinates of the grid with ``axis`` on
    every edge, in flat-index order, each axis broadcast into its column of
    the one output array; one empty row at ``dim`` = 0."""
    out = np.empty((len(axis) ** dim, dim))
    grid = out.reshape((len(axis),) * dim + (dim,))
    for k, shape in enumerate(_axis_shapes(dim)):
        grid[..., k] = axis.reshape(shape)
    return out


def _density(amp: np.ndarray) -> np.ndarray:
    """|amp|^2 as one new float array: ``abs``, then squared in place, the
    same bits as ``np.abs(amp) ** 2`` without its second temporary."""
    out = np.abs(amp)
    return np.square(out, out=out)


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
        """All node coordinates as a (size, dim) array in flat-index order,
        each axis broadcast into its column of the one output array."""
        return _coords_table(self.axis_coords(), self.dim)

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
        nrm = np.sum(_density(amp))
        if not np.isfinite(nrm) or abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"wavefunction is not unit norm: sum|c|^2 = {nrm}")

    def density(self) -> np.ndarray:
        return _density(self.amplitudes)

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
    axis = mesh.axis_coords()
    positions = [DiagonalOperator(mesh, np.broadcast_to(axis.reshape(shape),
                                                        mesh.shape))
                 for shape in _axis_shapes(mesh.dim)]
    return lap.tocsr(), positions


def _coord_blocks(mesh: Mesh):
    """Yield ``(start, coords)``: the rows ``start, start + 1, ...`` of
    ``mesh.node_coords()``, in flat-index order, as blocks of at most
    ``GRID_BLOCK`` rows with the same bits. A block holds whole sub-grids
    of the trailing axes under consecutive indices of the leading ones, so
    it is filled by broadcasting, as ``node_coords`` is, with index
    arithmetic only for its few leading multi-indices (at least one axis
    leads)."""
    axis, n, dim = mesh.axis_coords(), mesh.nodes_per_edge, mesh.dim
    trail = 0
    while trail < dim - 1 and n ** (trail + 1) <= GRID_BLOCK:
        trail += 1
    tail = _coords_table(axis, trail)
    lead = dim - trail
    per_block = GRID_BLOCK // len(tail)
    for i in range(0, n ** lead, per_block):
        rows = min(per_block, n ** lead - i)
        block = np.empty((rows, len(tail), dim))
        block[:, :, lead:] = tail
        multi = np.unravel_index(np.arange(i, i + rows), (n,) * lead)
        for k, j in enumerate(multi):
            block[:, :, k] = axis[j, None]
        yield i * len(tail), block.reshape(-1, dim)


def _eval_blocks(f, blocks, n: int, dtype=float) -> np.ndarray:
    """One (n,) array of ``dtype`` holding ``f`` on each ``(start, rows)``
    block, f called once per block; a block given other than one value per
    row raises ``ValueError``."""
    out = np.empty(n, dtype)
    for start, rows in blocks:
        vals = np.asarray(f(rows), dtype=dtype).reshape(-1)
        if vals.size != len(rows):
            raise ValueError("objective did not return one value per node")
        out[start:start + len(rows)] = vals
    return out


def _axis_slices(n: int, line: int) -> list:
    """Slices that cut an axis of ``n`` indices, each index carrying ``line``
    nodes, into the fewest blocks of at most ``GRID_BLOCK`` nodes and at
    least one index, their lengths differing by at most one, so that a
    whole-grid pass runs on block-sized temporaries. Even lengths keep an
    axis of single nodes from ending in a one-node block: numpy multiplies
    a one-element complex array in place by another path, whose last bits
    can differ."""
    count = -(-n // max(1, GRID_BLOCK // line))
    cuts = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _eval_rows(f, points: np.ndarray, dtype=float) -> np.ndarray:
    """``f`` on the (n, d) ``points`` into one (n,) array, called on blocks
    of at most ``GRID_BLOCK`` rows so that its temporaries stay
    block-sized. The values equal one whole-array call bit for bit when f
    is row-local (each row's value the same whatever rows come with it)."""
    return _eval_blocks(f, ((i, points[i:i + GRID_BLOCK])
                            for i in range(0, len(points), GRID_BLOCK)),
                        len(points), dtype)


def discretize_objective(mesh: Mesh, f) -> DiagonalOperator:
    """Sample an objective at the mesh nodes (same arithmetic as the caller's
    evaluator). ``f`` maps an (n, dim) array of points to n values.

    ``f`` is called on blocks of at most ``GRID_BLOCK`` nodes in flat-index
    order, never on the whole (size, dim) coordinate table, so it must be
    row-local: a node's value may not depend on which other rows share its
    call. A call that returns other than one value per row raises
    ``ValueError``; a non-finite value raises ``EvaluationError`` with the
    flat index of the first such node."""
    values = _eval_blocks(f, _coord_blocks(mesh), mesh.size)
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


def _row_sum(terms):
    """Sum of arrays laid along disjoint grid axes (broadcast over the
    others) in the order ``np.sum(a, axis=-1)`` adds the columns of an
    (..., len(terms)) array: in turn below eight terms; else numpy's
    pairwise tree, eight running sums over every eighth term combined as
    ((0+1)+(2+3))+((4+5)+(6+7)), the remainder added in turn, and halves
    cut at a multiple of eight above 128 terms. So the sum has the same
    bits as numpy's row sum. Each addition joins disjoint axes, so no
    operand is as large as the result."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(terms[:half]) + _row_sum(terms[half:])
    if n < 8:
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return total
    r = list(terms[:8])
    i = 8
    while i < n - n % 8:
        r = [a + b for a, b in zip(r, terms[i:i + 8])]
        i += 8
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[i:]:
        total = total + t
    return total


def _sq_dist_grid(mesh: Mesh, point: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every node to ``point`` (one float
    per axis), shaped like the grid: each axis's 1-D squared differences,
    added in the order of ``np.sum((mesh.node_coords() - point) ** 2,
    axis=1)`` so the bits match it, with no (size, dim) temporary."""
    axis = mesh.axis_coords()
    return _row_sum([((axis - p) ** 2).reshape(shape)
                     for p, shape in zip(point, _axis_shapes(mesh.dim))])


def gaussian_state(mesh: Mesh, center, variance: float) -> WaveFunction:
    """State whose node density is the isotropic Gaussian of the given
    (density) variance centered at ``center``, renormalized; phase is zero."""
    _require_real("variance", variance)
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.size != mesh.dim:
        raise ValueError("center has wrong dimension")
    for c in center.tolist():
        _require_real("center", c, strict=False)
    if np.any(center > 1.0):
        raise ValueError(f"center {center} lies outside [0,1]^d")
    density = _sq_dist_grid(mesh, center).reshape(-1)
    np.negative(density, out=density)
    density /= 2.0 * variance
    np.exp(density, out=density)
    density /= np.sum(density)
    amp = np.sqrt(density, out=density).astype(complex)
    return WaveFunction(mesh, amp)


def point_mass(mesh: Mesh, point) -> WaveFunction:
    """State concentrated on the mesh node nearest to ``point``; the first
    in flat order on a tie. A ``point`` that is not ``mesh.dim`` finite
    coordinates raises ``ValueError``."""
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.size != mesh.dim or not np.all(np.isfinite(point)):
        raise ValueError(f"point must have {mesh.dim} finite coordinates, "
                         f"got {point.tolist()!r}")
    idx = int(np.argmin(_sq_dist_grid(mesh, point)))
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
    multi = np.unravel_index(idx, psi.mesh.shape)
    return psi.mesh.axis_coords()[np.stack(multi, axis=-1)]


def success_probability(psi: WaveFunction, x_star, radius: float) -> float:
    """Probability mass of nodes strictly within Euclidean ``radius`` of
    ``x_star``; ties at exactly the radius are excluded, with a relative
    guard of 1e-12 so ties survive floating-point coordinate noise."""
    return float(np.sum(psi.density()[success_mask(psi.mesh, x_star, radius)]))


def _inside(dist, radius) -> np.ndarray:
    """``dist < radius`` with ties excluded under a relative guard of
    1e-12 against coordinate noise."""
    return dist < radius * (1.0 - 1e-12)


def within_radius(points, x_star, radius: float) -> np.ndarray:
    """Mask of the points (last axis = coordinates) strictly within
    Euclidean ``radius`` of ``x_star``; ties at exactly the radius are
    excluded with a relative guard of 1e-12 against coordinate noise. A
    radius that is not finite and positive raises ``ValueError``."""
    _require_real("radius", radius)
    return _inside(np.linalg.norm(points - np.asarray(x_star, dtype=float),
                                  axis=-1), radius)


def success_mask(mesh: Mesh, x_star, radius: float) -> np.ndarray:
    """Boolean node mask used by evolution loops to track success mass:
    ``within_radius(mesh.node_coords(), x_star, radius)``, bit for bit,
    from one float grid of distances. An ``x_star`` that is not
    ``mesh.dim`` coordinates raises ``ValueError``."""
    _require_real("radius", radius)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if x_star.size != mesh.dim:
        raise ValueError(f"x_star must have {mesh.dim} coordinates, "
                         f"got {x_star.tolist()!r}")
    dist = _sq_dist_grid(mesh, x_star).reshape(-1)
    return _inside(np.sqrt(dist, out=dist), radius)
