"""Spectral diagnostics: discretized evolution Hamiltonians, low-energy
eigenpairs, probability spectra, energy ratios, semiclassical predictions,
and the convex Lyapunov monitor.

Two Hamiltonian realizations are provided. The vanishing-boundary (Dirichlet)
realization restricts the finite-difference operator to the interior nodes,
which is what makes the continuum box spectrum (ground energy pi^2 per unit
coefficient in 2D, kinetic-limit ratio 5/2) emerge at moderate resolution;
eigenvectors are reported on the full mesh with zeros on the boundary. The
periodic realization applies the pseudo-spectral operator via FFTs and is the
natural instantaneous Hamiltonian for states produced by the split-step
engine on the same mesh. Both builders need e_phi and e_chi finite, >= 0
and not both 0.

``lowest_eigenpairs`` has one solve path. Sparse matrices (box Hamiltonians
and bare matrices) with at most ``DENSE_LIMIT`` unknowns, or with k >= n - 1,
take a dense decomposition, which is also the test oracle. Above that, box
Hamiltonians use shift-invert Lanczos below the spectrum and other matrices
smallest-algebraic Lanczos. Periodic operators are always matrix-free
smallest-algebraic Lanczos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import Schedule, kinetic_eigenvalues
from .errors import ConvergenceError, DomainError
from .mesh import (DIRICHLET, PERIODIC, DiagonalOperator, Mesh, WaveFunction,
                   _axis_shapes, _axis_slices, _is_integer, _require_real,
                   build_fdm_operators, discretize_objective)

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

#: dense eigendecomposition below this many unknowns (also the test oracle)
DENSE_LIMIT = 2000

#: most eigenpairs one ``lowest_eigenpairs`` call returns
MAX_LEVELS = 32

RESIDUAL_RTOL = 1e-8
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Lowest eigenpairs of a grid Hamiltonian.

    ``eigenvectors[:, n]`` is the n-th mode on the full mesh (boundary nodes
    carry zeros for vanishing-boundary operators); ``mesh`` is None when the
    pairs came from a bare matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mesh: Mesh = None
    residuals: np.ndarray = None


@dataclass(frozen=True)
class BoxHamiltonian:
    """Vanishing-boundary Hamiltonian e_phi * (-1/2 Laplacian) + e_chi * f
    restricted to the interior nodes of a Dirichlet mesh."""

    mesh: Mesh
    matrix: sp.csr_matrix
    interior_mask: np.ndarray
    e_phi: float
    e_chi: float
    f_interior_min: float


@dataclass(frozen=True)
class FourierHamiltonian:
    """Periodic pseudo-spectral Hamiltonian applied matrix-free via FFTs."""

    mesh: Mesh
    e_phi: float
    e_chi: float
    f_values: np.ndarray
    kin_eigs: np.ndarray

    @property
    def shape(self):
        return (self.mesh.size, self.mesh.size)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        grid = np.asarray(v).reshape(self.mesh.shape)
        kin = np.fft.ifftn(self.kin_eigs * np.fft.fftn(grid))
        if not np.iscomplexobj(v):
            kin = kin.real
        out = self.e_phi * kin + self.e_chi * self.f_values.reshape(
            self.mesh.shape) * grid
        return out.reshape(-1)

    def as_linear_operator(self) -> spla.LinearOperator:
        import scipy.sparse.linalg as spla
        return spla.LinearOperator(self.shape, matvec=self.matvec,
                                   dtype=float)

    def norm_bound(self) -> float:
        return (self.e_phi * float(self.kin_eigs.max())
                + self.e_chi * float(np.abs(self.f_values).max()))


def _check_coefficients(e_phi, e_chi):
    if not (np.isfinite(e_phi) and np.isfinite(e_chi) and e_phi >= 0
            and e_chi >= 0 and (e_phi > 0 or e_chi > 0)):
        raise ValueError("coefficients must be finite, >= 0 and not both 0, "
                         f"got e_phi={e_phi!r}, e_chi={e_chi!r}")


def build_hamiltonian(mesh: Mesh, f, e_phi: float, e_chi: float) -> BoxHamiltonian:
    """e_phi * (-1/2 Laplacian) + e_chi * diag(f) with vanishing boundary:
    the interior block of the full-mesh finite-difference Laplacian.

    ``f`` may be an objective or an already discretized DiagonalOperator on
    the same mesh.
    """
    import scipy.sparse as sp
    mesh.require(DIRICHLET)
    _check_coefficients(e_phi, e_chi)
    fop = f if isinstance(f, DiagonalOperator) else discretize_objective(mesh, f)
    axis = mesh.axis_coords()
    inner = (axis > 0.0) & (axis < 1.0)
    mask = np.ones(mesh.shape, dtype=bool)
    for shape in _axis_shapes(mesh.dim):
        mask &= inner.reshape(shape)
    mask = mask.reshape(-1)
    if not mask.any():
        raise ValueError("need at least 2 cells per edge for interior nodes")
    lap, _ = build_fdm_operators(mesh)
    f_int = fop.values[mask]
    H = (-0.5 * e_phi) * lap[mask][:, mask] + e_chi * sp.diags(f_int)
    return BoxHamiltonian(mesh=mesh, matrix=H.tocsr(), interior_mask=mask,
                          e_phi=float(e_phi), e_chi=float(e_chi),
                          f_interior_min=float(f_int.min()))


def build_fourier_hamiltonian(mesh: Mesh, f, e_phi: float,
                              e_chi: float) -> FourierHamiltonian:
    """Periodic instantaneous Hamiltonian matching the split-step engine."""
    mesh.require(PERIODIC)
    _check_coefficients(e_phi, e_chi)
    fop = f if isinstance(f, DiagonalOperator) else discretize_objective(mesh, f)
    return FourierHamiltonian(mesh=mesh, e_phi=float(e_phi),
                              e_chi=float(e_chi), f_values=fop.values,
                              kin_eigs=kinetic_eigenvalues(mesh))


def _validate_eigensystem(apply_h, vals, vecs, h_norm):
    k = vals.size
    residuals = np.empty(k)
    for i in range(k):
        residuals[i] = np.linalg.norm(apply_h(vecs[:, i]) - vals[i] * vecs[:, i])
    tol = RESIDUAL_RTOL * max(h_norm, 1e-300)
    if np.any(residuals > tol):
        raise ConvergenceError(
            f"eigenpair residuals {residuals} exceed {tol}",
            residuals=residuals)
    gram = vecs.T @ vecs
    if np.max(np.abs(gram - np.eye(k))) > ORTHO_TOL:
        raise ConvergenceError("eigenvectors are not orthonormal to 1e-10",
                               residuals=residuals)
    return residuals


def lowest_eigenpairs(H, k: int) -> EigenSystem:
    """k smallest eigenpairs of a BoxHamiltonian, a FourierHamiltonian or a
    bare (sparse or dense) matrix, deterministic given the fixed all-ones
    Lanczos start vector; the solver rule is in the module docstring."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    if not (_is_integer(k) and 1 <= k <= MAX_LEVELS):
        raise ValueError(
            f"k must be an integer between 1 and {MAX_LEVELS}, got {k!r}")
    if isinstance(H, FourierHamiltonian):
        mat, op, apply_h = None, H.as_linear_operator(), H.matvec
        h_norm = H.norm_bound()
    else:
        mat = H.matrix if isinstance(H, BoxHamiltonian) else (
            H.tocsr() if sp.issparse(H) else sp.csr_matrix(H))
        op, apply_h = mat, (lambda v: mat @ v)
        h_norm = spla.norm(mat, np.inf)
    n = op.shape[0]
    if k > n:
        raise ValueError(f"k = {k} exceeds the {n} unknowns")
    if mat is not None and (n <= DENSE_LIMIT or k >= n - 1):
        vals, vecs = np.linalg.eigh(mat.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    elif k >= n - 1:
        raise ValueError("k too large for the matrix-free eigensolver")
    else:
        keys = {"which": "SA"}
        if isinstance(H, BoxHamiltonian):
            scale = H.e_phi * 2 * H.mesh.dim * H.mesh.cells_per_edge ** 2
            keys = {"which": "LM", "sigma": (H.e_chi * H.f_interior_min
                                             - 0.01 * scale - 1e-9)}
        try:
            vals, vecs = spla.eigsh(op, k=k, v0=np.full(n, 1.0 / np.sqrt(n)),
                                    maxiter=100 * n, **keys)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(str(exc)) from exc
    # stable, so exact ties in eigh's ascending output keep their order
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    residuals = _validate_eigensystem(apply_h, vals, vecs, h_norm)
    if isinstance(H, BoxHamiltonian):
        full = np.zeros((H.mesh.size, k))
        full[H.interior_mask] = vecs
        vecs = full
    return EigenSystem(eigenvalues=vals, eigenvectors=vecs,
                       mesh=getattr(H, "mesh", None), residuals=residuals)


def probability_spectrum(psi: WaveFunction, eig: EigenSystem):
    """Squared overlaps of a state with the eigenmodes, plus the residual
    mass 1 - sum |c_n|^2 left in higher levels.

    The eigen-system must live on the same node grid as the state. One
    cross-boundary pairing is supported because the node sets coincide on
    [0, 1): vanishing-boundary modes with r cells against a periodic state
    with N = r cells (the three-phase diagnostic of a split-step run reads
    its spectra in the sine-mode basis). The mode vectors vanish on the
    boundary layer, so truncating them to the shared nodes drops exact
    zeros only.

    Degenerate levels individually depend on the eigenbasis the solver
    returned; sums over a degenerate block are basis-free and are what
    downstream checks should compare.
    """
    vectors = eig.eigenvectors
    if eig.mesh is not None and psi.mesh != eig.mesh:
        if (eig.mesh.boundary == DIRICHLET and psi.mesh.boundary == PERIODIC
                and eig.mesh.cells_per_edge == psi.mesh.cells_per_edge
                and eig.mesh.dim == psi.mesh.dim):
            n = psi.mesh.nodes_per_edge
            cut = (slice(0, n),) * psi.mesh.dim
            full = vectors.reshape(eig.mesh.shape + (vectors.shape[1],))
            vectors = full[cut].reshape(psi.mesh.size, vectors.shape[1])
        else:
            raise ValueError(
                "state and eigen-system live on different meshes")
    overlaps = vectors.T @ psi.amplitudes
    probs = np.abs(overlaps) ** 2
    return probs, float(1.0 - probs.sum())


def energy_ratio(eig: EigenSystem) -> float:
    """First-excited to ground eigenvalue ratio E_1 / E_0."""
    if eig.eigenvalues.size < 2:
        raise ValueError("need at least two eigenvalues")
    e0, e1 = float(eig.eigenvalues[0]), float(eig.eigenvalues[1])
    if e0 <= 0:
        raise DomainError(
            "ground energy is not positive; shift the objective to f - f_min")
    return e1 / e0


def semiclassical_ratio(omega) -> float:
    """Low-spectrum energy ratio of the two-dimensional harmonic limit:
    (w1 + 3 w2) / (w1 + w2) for frequencies w1 >= w2 > 0."""
    omega = np.asarray(omega, dtype=float)
    if omega.size != 2:
        raise DomainError("closed form implemented for dimension 2 only")
    w1, w2 = omega.tolist()
    _require_real("w2", w2)
    if not w2 <= w1 < np.inf:
        raise ValueError("frequencies must be positive and sorted descending")
    return float((w1 + 3.0 * w2) / (w1 + w2))


def lyapunov_W(psi: WaveFunction, sched: Schedule, t: float,
               f: DiagonalOperator, center) -> float:
    """Convex-descent Lyapunov value at time t:

        W = <J^2 / 2> + exp(beta_t) <f>,   J = exp(-gamma_t) p + (x - x*)

    computed as one half the squared norm of J applied to the state, with
    momentum realized by spectral differentiation on the periodic mesh and
    position centered at the declared minimizer ``center``.

    Per axis, J psi is formed on blocks of whole lines along that axis, at
    most ``GRID_BLOCK`` nodes each (column blocks of the (n, size / n)
    view for axis 0, row blocks for the others), and |J psi|^2 written
    into one float density made once per call; the density is summed
    whole, and then reused for f |psi|^2. The momentum p psi is spectral
    differentiation: the FFT along the axis, written into one block buffer
    that grows to the largest block, times 2 pi k (the wavenumbers built
    once per call), and the inverse FFT in place. So the working memory is
    that density, the block buffer and a few block-sized temporaries.
    """
    mesh = psi.mesh
    mesh.require(PERIODIC)
    if sched.kind != "three_param":
        raise ValueError("the Lyapunov monitor needs a three-parameter schedule")
    if mesh != f.mesh:
        raise ValueError("state and objective live on different meshes")
    center = np.asarray(center, dtype=float).reshape(-1)
    n, rest = mesh.nodes_per_edge, mesh.size // mesh.nodes_per_edge
    grid = psi.amplitudes.reshape(mesh.shape)
    dens = np.empty(mesh.shape)
    coords = mesh.axis_coords()
    e_neg_gamma = np.exp(-sched.gamma(t))
    two_pi_k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    buf = np.empty(0, dtype=complex)
    j_sq = 0.0
    for ax, shape in enumerate(_axis_shapes(mesh.dim)):
        if ax == 0:
            grid_v, dens_v = grid.reshape(n, rest), dens.reshape(n, rest)
            shape = (-1, 1)
            blocks = [(slice(None), s) for s in _axis_slices(rest, n)]
        else:
            grid_v, dens_v, blocks = grid, dens, _axis_slices(n, rest)
        xc = (coords - center[ax]).reshape(shape)
        k_ax = two_pi_k.reshape(shape)
        for s in blocks:
            # J psi formed in the block buffer, each product's operands in
            # the order of e^-gamma p psi + (x - x*) psi; the wavenumbers
            # first, as numpy's complex product is not bitwise symmetric
            part, out = grid_v[s], dens_v[s]
            if buf.size < part.size:
                buf = np.empty(part.size, dtype=complex)
            j_psi = buf[:part.size].reshape(part.shape)
            np.fft.fft(part, axis=ax, out=j_psi)
            np.multiply(k_ax, j_psi, out=j_psi)
            np.fft.ifft(j_psi, axis=ax, out=j_psi)
            np.multiply(e_neg_gamma, j_psi, out=j_psi)
            j_psi += xc * part
            np.abs(j_psi, out=out)
            np.square(out, out=out)
        j_sq += float(np.sum(dens))
    prob = dens.reshape(-1)
    np.abs(psi.amplitudes, out=prob)
    np.square(prob, out=prob)
    ef = float(np.sum(np.multiply(f.values, prob, out=prob)))
    return 0.5 * j_sq + float(np.exp(sched.beta(t))) * ef
