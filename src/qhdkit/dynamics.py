"""Time evolution engines: schedule construction and validation,
time-dilation transforms, radix-2 tabulation and the two time-step loops,
the pseudo-spectral split step of the descent dynamics and the Strang loop
of the relaxed grid, the dense Ising machine and the adiabatic baseline.

Conventions pinned for reproducibility across modules:

* Signed Fourier frequencies are laid out as {0, ..., N/2-1, -N/2, ..., -1}
  (the numpy FFT order); the kinetic eigenvalue of mode vector k is
  (1/2) * sum_i (2 pi k_i)^2 on the unit box. ``_axis_kinetic_eigenvalues``
  is the one place that builds the per-axis term.
* A split step covering [t_j, t_j + dt] samples the schedule coefficients
  at the *end* of the interval, so schedules singular at t = 0 are never
  evaluated there and the first coefficients are those at t0 + dt.
* Each split step applies the potential phase first, then the kinetic phase
  in Fourier space. The kinetic phase is a product of per-axis 1-D phases,
  since its eigenvalue is a sum over axes. The potential phase is made one
  row block at a time (at most ``mesh.GRID_BLOCK`` nodes, at least one
  row) in a block buffer that each slab makes once per call: gathered from
  cos/sin taken once per distinct potential value when at most half the
  nodes carry distinct values, else cos/sin of each node's angle. Both do
  the same arithmetic on the same floats, so they agree bit for bit. The
  state is multiplied and transformed in place, so it is the only full
  complex grid a step holds.
* A split step runs in four stages on independent slabs of the grid: the
  potential phase and the FFTs along axes d-1, ..., 1 on slabs of axis 0;
  the FFT along axis 0 and the kinetic phases on slabs of the last axis;
  then the inverse FFTs in the same two groups. That is ``fftn``'s axis
  order, so the results are bit-identical whatever the slab count. Grids
  of d >= 2 axes are cut into min(usable CPUs, nodes // 2^17) slabs (at
  least one), run by this thread and a thread pool that each call makes
  and shuts down before it returns; grids below 2^18 nodes and 1-D grids
  run one slab on this thread without a pool.
* A Strang step samples the coefficients at the midpoint t_j + dt/2. Its
  kinetic step is a Kronecker product of one (r+1)x(r+1) unitary per axis,
  applied as one GEMM per block of axes (the "shuffle" algorithm for
  Kronecker products); at r = 1, the Ising machine and the adiabatic
  baseline, 12 qubits take three 16x16 GEMMs per step. Its half potential
  phase is cos/sin taken once per distinct potential value and gathered
  onto the grid, and the kinetic unitaries of ``STRANG_CHUNK`` steps are
  built together as stacked arrays. Both do the per-step arithmetic on the
  same operands, so the states keep the bits of a step-by-step loop. Its
  per-axis coupling is the dense (r+1)x(r+1) tridiagonal built with
  ``np.diag`` from the weights that ``relaxed_adjacency`` also uses, so the
  loop never loads scipy; ``relaxed_adjacency``, the sparse Kronecker sum,
  imports ``scipy.sparse`` when called.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (BlowupError, EvaluationError, ResourceError,
                     ScheduleValidationError, StabilityError, StepGridError)
from .mesh import (DIRICHLET, PERIODIC, DiagonalOperator, Mesh, WaveFunction,
                   _axis_shapes, _axis_slices, _density, _eval_rows,
                   _pairwise_sums, _require_count, _require_real, _sq_norm,
                   discretize_objective, kron_sum, success_mask,
                   uniform_state, within_radius)

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class Schedule:
    """Time-dependent coefficients of the evolution.

    ``kinetic_coeff(t)`` and ``potential_coeff(t)`` return the positive
    multipliers e^{phi_t} and e^{chi_t} of the kinetic and potential terms.
    ``kind`` names the shape, read from the optional fields that are set:
    ``"three_param"`` schedules carry alpha, beta, gamma with kinetic =
    exp(alpha - gamma) and potential = exp(alpha + beta + gamma);
    ``"piecewise_anneal"`` schedules carry the fraction g(t) =
    ``anneal_fraction(t)`` in [0, 1] with kinetic 1 - g and potential g;
    ``"two_param"`` schedules carry neither.
    """

    kinetic_coeff: object
    potential_coeff: object
    anneal_fraction: object = None
    alpha: object = None
    beta: object = None
    gamma: object = None

    @property
    def kind(self) -> str:
        if self.anneal_fraction is not None:
            return "piecewise_anneal"
        return "two_param" if self.alpha is None else "three_param"


def _three_param_schedule(alpha, beta, gamma,
                          sample_times=np.linspace(0.5, 50.0, 100)):
    def kin(t):
        return np.exp(alpha(t) - gamma(t))

    def pot(t):
        return np.exp(alpha(t) + beta(t) + gamma(t))

    _validate_ideal_scaling(alpha, beta, gamma, sample_times)
    return Schedule(kinetic_coeff=kin, potential_coeff=pot,
                    alpha=alpha, beta=beta, gamma=gamma)


def _validate_ideal_scaling(alpha, beta, gamma, sample_times, rtol=1e-6):
    """Check gamma' = exp(alpha) and beta' <= exp(alpha) on a sample grid."""
    ts = np.asarray(sample_times, dtype=float)
    h = 1e-6
    for t in ts:
        ea = np.exp(alpha(t))
        dgamma = (gamma(t + h) - gamma(t - h)) / (2 * h)
        dbeta = (beta(t + h) - beta(t - h)) / (2 * h)
        if abs(dgamma - ea) > rtol * max(1.0, abs(ea)):
            raise ScheduleValidationError(
                f"ideal scaling violated at t={t}: gamma' = {dgamma} but "
                f"exp(alpha) = {ea}", t=t)
        if dbeta > ea * (1 + rtol) + 1e-12:
            raise ScheduleValidationError(
                f"ideal scaling violated at t={t}: beta' = {dbeta} exceeds "
                f"exp(alpha) = {ea}", t=t)


def _anneal_schedule(g) -> Schedule:
    return Schedule(kinetic_coeff=lambda t: 1.0 - g(t), potential_coeff=g,
                    anneal_fraction=g)


def _piecewise_schedule(knots) -> Schedule:
    knots = tuple((float(t), float(s)) for t, s in knots)
    for i, knot in enumerate(knots):
        if not np.all(np.isfinite(knot)):
            raise ValueError(f"knot {i} {knot!r} is not finite")
    ts = np.array([t for t, _ in knots])
    ss = np.array([s for _, s in knots])
    if np.any(np.diff(ts) <= 0):
        raise ValueError("knot times must be strictly increasing")
    if np.any(np.diff(ss) < 0):
        raise ValueError("knot fractions must be non-decreasing")
    if ss[0] != 0.0 or ss[-1] != 1.0:
        raise ValueError("knot fractions must start at 0 and end at 1")
    return _anneal_schedule(lambda t: float(np.interp(t, ts, ss)))


def _nesterov_nonconvex(stepsize=1e-3) -> Schedule:
    s = _require_real("stepsize", stepsize)
    return Schedule(kinetic_coeff=lambda t: 2.0 / (s + t ** 3),
                    potential_coeff=lambda t: 2.0 * t ** 3)


def _local_adiabatic(horizon) -> Schedule:
    T = _require_real("horizon", horizon)
    # fraction whose rate tracks the squared instantaneous gap of the
    # unstructured-search model over N = 2^12 levels; closed form via
    # arctan inversion
    root = np.sqrt(2.0 ** 12 - 1.0)
    theta = np.arctan(root)
    return _anneal_schedule(lambda t: float(
        0.5 + np.tan((2.0 * t / T - 1.0) * theta) / (2.0 * root)))


_BUILTINS = {
    "nesterov_nonconvex": _nesterov_nonconvex,
    "nesterov_three_param": lambda: _three_param_schedule(
        alpha=lambda t: np.log(2.0 / t), beta=lambda t: 2.0 * np.log(t),
        gamma=lambda t: 2.0 * np.log(t)),
    "linear_qaa": lambda horizon: _piecewise_schedule(
        [(0.0, 0.0), (_require_real("horizon", horizon), 1.0)]),
    "custom_piecewise": _piecewise_schedule,
    "local_adiabatic": _local_adiabatic,
    "raw": lambda kinetic, potential: Schedule(kinetic, potential),
    "three_param_raw": _three_param_schedule,
}


def make_schedule(kind: str, **params) -> Schedule:
    """Build and validate a named schedule.

    Built-ins, with their keyword parameters:

    * ``nesterov_nonconvex`` (stepsize=1e-3): kinetic 2/(stepsize + t^3),
      potential 2 t^3; the regularized descent default.
    * ``nesterov_three_param``: alpha = log(2/t), beta = gamma = 2 log t.
    * ``linear_qaa`` (horizon): interpolation fraction g(t) = t / horizon.
    * ``custom_piecewise`` (knots): piecewise-linear fraction through
      (t, s) knots.
    * ``local_adiabatic`` (horizon): gap-adapted fraction from the
      unstructured-search literature over 2^12 levels (optional extra, not
      gate-checked).
    * ``raw`` (kinetic, potential): user-supplied coefficient functions.
    * ``three_param_raw`` (alpha, beta, gamma, sample_times): validated
      against the ideal scaling conditions gamma' = exp(alpha),
      beta' <= exp(alpha) at ``sample_times``.

    Annealing fractions drive kinetic 1 - g and potential g. An unknown
    kind, an unknown parameter or a missing required one raises
    ``ValueError`` naming it.
    """
    build = _BUILTINS.get(kind)
    if build is None:
        raise ValueError(f"unknown schedule kind {kind!r}")
    try:
        inspect.signature(build).bind(**params)
    except TypeError as err:
        raise ValueError(f"schedule {kind!r}: {err}") from None
    return build(**params)


def dilate_schedule(sched: Schedule, tau, tau_dot, sample_times=None) -> Schedule:
    """Reparametrize time: the dilated schedule drives, over [tau^-1(t0),
    tau^-1(T)], the same state path the original drives over [t0, T].

    Two-parameter schedules map to tau_dot(t) * coeff(tau(t)); three-parameter
    schedules map to (alpha o tau + log tau_dot, beta o tau, gamma o tau),
    which preserves ideal scaling.
    """
    if sample_times is None:
        sample_times = np.linspace(0.1, 10.0, 50)
    taus = [tau(t) for t in sample_times]
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau must be increasing")
    if sched.kind == "three_param":
        a, b, g = sched.alpha, sched.beta, sched.gamma
        return _three_param_schedule(
            alpha=lambda t: a(tau(t)) + np.log(tau_dot(t)),
            beta=lambda t: b(tau(t)),
            gamma=lambda t: g(tau(t)), sample_times=sample_times)
    if sched.kind == "two_param":
        kin, pot = sched.kinetic_coeff, sched.potential_coeff
        return Schedule(kinetic_coeff=lambda t: tau_dot(t) * kin(tau(t)),
                        potential_coeff=lambda t: tau_dot(t) * pot(tau(t)))
    raise ValueError("only descent schedules can be time-dilated")


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Observable traces plus thinned state snapshots of one evolution run.

    ``times`` indexes the per-step scalar observables; ``snapshots`` holds
    full states at ``snapshot_times`` (the final state is always included).
    """

    times: np.ndarray
    observables: dict
    snapshot_times: np.ndarray
    snapshots: list = field(default_factory=list)

    @property
    def final_state(self):
        return self.snapshots[-1]

    def snapshot_at(self, t: float):
        idx = int(np.argmin(np.abs(self.snapshot_times - t)))
        if abs(self.snapshot_times[idx] - t) > 1e-9:
            raise KeyError(f"no snapshot recorded at t={t}")
        return self.snapshots[idx]


def _step_count(t0, T, dt) -> int:
    """Number of steps of size dt from t0 to T; the span must hold a whole
    number of steps (within 1e-6) so the horizon is never silently moved."""
    _require_real("dt", dt)
    _require_real("T - t0", T - t0)
    m = (T - t0) / dt
    n = int(round(m))
    if abs(m - n) > 1e-6:
        raise StepGridError(
            f"(T - t0) / dt = {m} is not a whole number of steps")
    return n


class _Recorder:
    """Bookkeeping shared by the evolution engines.

    Owns the step count, the snapshot-step table, the E[f],
    success-probability and norm traces recorded every ``stride`` steps and
    at the last step, and the snapshots, the final state always among them.
    ``fvals`` and the boolean ``smask`` have one entry per entry of the
    engine's (contiguous) state, in its flat order; the recorder keeps
    ``smask`` as the flat indices of its success nodes. ``fvals`` may
    instead index a table of levels (see ``watch``), as on the level path
    of ``qhd_evolve``. ``mesh`` wraps snapshots as WaveFunctions (plain
    flat vectors when None). Steps are counted from 1, so step m ends at
    t0 + m dt. The step grid, the stride and the snapshot times are checked
    on construction, before ``fvals`` is needed; a stride that is not an
    integer >= 1 raises ``ValueError``. No observation or normalization
    makes a full-grid density: sums of |psi|^2 run one block at a time
    through ``mesh._pairwise_sums``, with the bits of whole-array sums.
    """

    def __init__(self, t0, T, dt, fvals=None, smask=None, *,
                 snapshot_times=(), stride=1, mesh=None):
        _require_count("observable stride", stride)
        self.t0, self.dt, self.stride = t0, dt, stride
        self.n_steps = _step_count(t0, T, dt)
        self.mesh = mesh
        if fvals is not None:
            self.watch(fvals, smask)
        self.snap_steps = {}
        for ts in snapshot_times:
            m = (ts - t0) / dt
            m_int = round(m) if np.isfinite(m) else 0
            if abs(m - m_int) > 1e-6 or not (1 <= m_int <= self.n_steps):
                raise StepGridError(
                    f"snapshot time {ts} does not lie on the step grid")
            self.snap_steps[m_int] = float(ts)
        self.times, self.efs, self.sps, self.norms = [], [], [], []
        self.snap_ts, self.snaps = [], []

    def watch(self, fvals, smask=None, levels=None):
        """Observe E[f] of ``fvals`` and the success mass on ``smask``; the
        constructor does this when given ``fvals``, an engine that checks
        the step grid before it evaluates its potential does it after.
        With ``levels``, ``fvals`` is an index into that table, and E[f]
        reads each leaf's values as ``levels.take(fvals[a:b])``."""
        self.fvals, self.levels = fvals.reshape(-1), levels
        self.success = None if smask is None else np.flatnonzero(smask)

    def due(self, step: int) -> bool:
        return step % self.stride == 0 or step == self.n_steps

    def observe(self, step: int, psi: np.ndarray):
        """Record the observables of the state ``psi`` after ``step``.
        Each leaf of ``mesh._pairwise_sums`` makes one density block: the
        norm is its sum, E[f] the sum of the block times the leaf's
        ``fvals`` (the levels its index names, on the level path: the same
        floats), multiplied in place. The success mass is the sum of the
        density of the amplitudes gathered at the success nodes, in index
        order. All three have the bits of sums over a whole-grid density.
        A grid of at most ``GRID_BLOCK`` nodes is one leaf."""
        amp, fvals, levels = psi.reshape(-1), self.fvals, self.levels

        def leaf(a, b):
            prob = _density(amp[a:b])
            nrm = prob.sum()
            if not math.isfinite(nrm):
                # a blown-up block is not multiplied: inf * 0 would warn
                return nrm, nrm
            f = fvals[a:b] if levels is None else levels.take(fvals[a:b])
            return nrm, np.multiply(prob, f, out=prob).sum()

        nrm, ef = _pairwise_sums(amp.size, leaf)
        nrm = float(nrm)
        if not np.isfinite(nrm):
            raise BlowupError(f"non-finite amplitudes at step {step - 1}",
                              step=step - 1)
        self.times.append(self.t0 + step * self.dt)
        self.norms.append(nrm)
        self.sps.append(float(_density(amp.take(self.success)).sum()) / nrm
                        if self.success is not None else np.nan)
        self.efs.append(float(ef) / nrm)

    def record(self, step: int, psi: np.ndarray):
        """Observables on due steps and a snapshot on snapshot steps; a
        snapshot is a normalized copy, as the engine goes on stepping
        ``psi``."""
        if self.due(step):
            self.observe(step, psi)
        if step in self.snap_steps:
            self._snapshot(self.snap_steps[step], psi / np.sqrt(_sq_norm(psi)))

    def _snapshot(self, t, amp):
        amp = amp.reshape(-1)
        self.snap_ts.append(t)
        self.snaps.append(amp if self.mesh is None
                          else WaveFunction(self.mesh, amp))

    def finish(self, psi: np.ndarray) -> Trajectory:
        """The trajectory, with ``psi`` as the final snapshot at T unless a
        snapshot was already recorded there. The engine is done with
        ``psi``, so that snapshot is ``psi`` itself, normalized in place."""
        t_end = self.t0 + self.n_steps * self.dt
        if not self.snap_ts or abs(self.snap_ts[-1] - t_end) > 1e-9:
            psi /= np.sqrt(_sq_norm(psi))
            self._snapshot(t_end, psi)
        return Trajectory(times=np.array(self.times),
                          observables={"Ef": np.array(self.efs),
                                       "success_prob": np.array(self.sps),
                                       "norm": np.array(self.norms)},
                          snapshot_times=np.array(self.snap_ts),
                          snapshots=self.snaps)


# ---------------------------------------------------------------------------
# The Strang loop
# ---------------------------------------------------------------------------

def _relaxed_weights(r: int) -> np.ndarray:
    """The r off-diagonal entries sqrt((j+1)(r-j)/r) of the per-axis
    coupling, shared by ``relaxed_adjacency`` and the Strang loop."""
    j = np.arange(r, dtype=float)
    return np.sqrt((j + 1.0) * (r - j) / r)


def relaxed_adjacency(r: int, d: int) -> sp.csr_matrix:
    """Weighted tridiagonal kinetic coupling extended by Kronecker sum.

    The per-axis entries are sqrt((j+1)(r-j)/r) between levels j and j+1;
    this is exactly the Hamming-subspace restriction of the transverse-field
    sum over r qubits scaled by 1/sqrt(r), so the subspace identities hold
    with zero defect (bit-flip symmetry forces the j <-> r-1-j symmetric
    profile). An r or d that is not an integer >= 1 raises ``ValueError``
    naming it.
    """
    _require_count("r", r)
    _require_count("d", d)
    import scipy.sparse as sp
    w = _relaxed_weights(r)
    return kron_sum(sp.diags([w, w], offsets=[1, -1], format="csr"), d)


def binomial_state(r: int, d: int) -> WaveFunction:
    """Per-axis amplitudes sqrt(C(r, j) / 2^r): the grid image of the
    uniform superposition over d blocks of r qubits. An r or d that is not
    an integer >= 1 raises ``ValueError`` naming it."""
    _require_count("r", r)
    _require_count("d", d)
    mesh = Mesh(d, r, DIRICHLET)
    axis = np.sqrt(np.array([math.comb(r, j) for j in range(r + 1)])
                   / 2.0 ** r)
    amp = axis
    for _ in range(d - 1):
        amp = np.multiply.outer(amp, axis)
    return WaveFunction(mesh, amp.reshape(-1).astype(complex))


#: the largest dimension (r+1)^g of a block unitary in the Strang kinetic step
STRANG_BLOCK_CAP = 16
#: steps whose kinetic unitaries the Strang loop builds together
STRANG_CHUNK = 64


def _strang_evolve(fvals, r, kin, pot, rec: _Recorder) -> np.ndarray:
    """The one Strang loop: from the per-axis binomial state on the grid of
    ``fvals``, evolve under -kin(t) A + pot(t) diag(fvals), A being
    ``relaxed_adjacency(r, 1)`` along every axis, with midpoint coefficients
    on the step grid of ``rec``; records each step and returns the state.

    The half potential phase is cos/sin of its angle, taken once per
    distinct value of ``fvals`` (a Hamming-encoded machine has at most
    (r+1)^d of them among its 2^n states) and gathered into a buffer made
    once per call. The kinetic coefficient is sampled for ``STRANG_CHUNK``
    steps at a time, never past the last midpoint, and those steps' unitaries,
    their polish and Kronecker powers are built as stacked (chunk, m, m)
    arrays that each step indexes. Every element sees the operations of a
    step-by-step loop on the same operands, so states and observables are
    bit-identical to it. The kinetic step applies the per-axis unitary U to
    blocks of g axes at a time, g the largest value with (r+1)^g <=
    ``STRANG_BLOCK_CAP`` and g <= d (at least 1), the last block holding
    the remainder: one GEMM per block with W = U^{(x)g}, built by
    broadcasting, against the state reshaped to (block, rest). Each GEMM
    moves its block to the end, so after every block the axes are back in
    order. At r >= 4, g = 1 and this is one GEMM per axis.
    """
    n, d = r + 1, fvals.ndim
    g = 1
    while g < d and n ** (g + 1) <= STRANG_BLOCK_CAP:
        g += 1
    blocks = [g] * (d // g) + ([d % g] if d % g else [])
    w = _relaxed_weights(r)
    lam, vecs = np.linalg.eigh(np.diag(w, 1) + np.diag(w, -1))
    t0, dt = rec.t0, rec.dt
    psi = binomial_state(r, d).amplitudes.reshape(fvals.shape)
    levels, where = np.unique(fvals, return_inverse=True)
    where = where.reshape(fvals.shape)
    level_angle = np.empty(levels.shape)
    level_phase = np.empty(levels.shape, dtype=complex)
    half_pot = np.empty(fvals.shape, dtype=complex)
    for j0 in range(0, rec.n_steps, STRANG_CHUNK):
        tms = [t0 + (j + 0.5) * dt
               for j in range(j0, min(j0 + STRANG_CHUNK, rec.n_steps))]
        coeff = np.array([1j * dt * kin(tm) for tm in tms])
        kin_u = (vecs * np.exp(coeff[:, None] * lam)[:, None, :]) @ vecs.T
        # eigh's vecs are orthogonal only to an ulp, the same way every
        # step, which drifts the norm; a Newton-Schulz polar step stops that
        kin_u = 1.5 * kin_u - 0.5 * kin_u @ (
            kin_u.conj().transpose(0, 2, 1) @ kin_u)
        powers = [kin_u]            # powers[s - 1][i] = kin_u[i]^{(x)s}
        for _ in range(g - 1):
            w = powers[-1]
            powers.append((w[:, :, None, :, None]
                           * kin_u[:, None, :, None, :])
                          .reshape(len(tms), w.shape[1] * n, -1))
        for i, tm in enumerate(tms):
            np.multiply(-0.5 * dt * pot(tm), levels, out=level_angle)
            np.cos(level_angle, out=level_phase.real)
            np.sin(level_angle, out=level_phase.imag)
            # every index is in range; the default mode="raise" would copy
            # the output through a buffer
            np.take(level_phase, where, out=half_pot, mode="clip")
            # phase first: numpy's complex product is not bitwise symmetric
            # in its operands, and this order keeps the earlier loop's bits
            # at g = 1
            np.multiply(half_pot, psi, out=psi)
            for s in blocks:
                psi = psi.reshape(n ** s, -1).T @ powers[s - 1][i].T
            psi = psi.reshape(fvals.shape)
            np.multiply(half_pot, psi, out=psi)
            rec.record(j0 + i + 1, psi)
    return psi


def _axis_kinetic_eigenvalues(n: int) -> np.ndarray:
    """(1/2)(2 pi k)^2 for the signed frequencies k of an n-node periodic
    axis, in FFT order {0, ..., N/2-1, -N/2, ..., -1}."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return 0.5 * (2.0 * np.pi * k) ** 2


def kinetic_eigenvalues(mesh: Mesh) -> np.ndarray:
    """Eigenvalues of -(1/2) Laplacian per Fourier mode on a periodic mesh,
    shaped like the grid."""
    mesh.require(PERIODIC)
    axis = _axis_kinetic_eigenvalues(mesh.nodes_per_edge)
    out = np.zeros(mesh.shape)
    for shape in _axis_shapes(mesh.dim):
        out = out + axis.reshape(shape)
    return out


#: grid nodes per split-step slab: a grid of d >= 2 axes gets one slab per
#: SLAB_NODES nodes, up to one per usable CPU
SLAB_NODES = 2 ** 17


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_count(mesh: Mesh) -> int:
    """Slabs a split step is cut into: one per usable CPU, at most one per
    ``SLAB_NODES`` grid nodes, and 1 on 1-D grids."""
    if mesh.dim < 2:
        return 1
    return max(1, min(_usable_cpus(), mesh.size // SLAB_NODES))


def _level_table(values: np.ndarray, own: bool):
    """``(levels, index, level_phase)`` for the flat float potential
    ``values`` when at most half its nodes carry distinct values, else
    None.

    ``levels`` holds each distinct bit pattern once, -0.0 and +0.0 apart,
    sorted as int64 bit patterns; ``index`` holds an int32 per node with
    ``levels[index]`` equal to ``values`` bit for bit; ``level_phase`` is
    an uninitialized complex buffer as long as ``levels``. The distinct
    values are found one block of at most ``GRID_BLOCK`` nodes at a time:
    a block's uniques wait until they hold as many entries as the running
    table, then all are merged, sorted in place; a table past half the
    nodes is dropped. So a merge holds about twice the table at most, and
    a grid left on the per-node path keeps nothing. The index is then
    searched block by block on the values' bit patterns. With ``own``,
    ``values`` is given up: the index is written into its first half, each
    block once the block is read, so it takes the potential's place, and
    the levels and their phases go into the other half when they fit."""
    def distinct(a):
        # np.unique would import numpy.ma, about 1 MiB, on its first call
        a.sort()
        return a[np.insert(a[1:] != a[:-1], 0, True)]

    n = values.size
    table, pending, count = np.empty(0), [], 0
    for s in _axis_slices(n, 1):
        pending.append(distinct(values[s].copy()))
        count += pending[-1].size
        if count >= table.size or s.stop == n:
            table = np.concatenate([table] + pending)
            pending, count = [], 0
            table = distinct(table)
            if 2 * table.size > n:
                return None
    # unique keeps one of -0.0 and +0.0; the bit patterns tell them apart
    keys = np.sort(np.append(table, -table[table == 0]).view(np.int64))
    index = values.view(np.int32)[:n] if own else np.empty(n, np.int32)
    for s in _axis_slices(n, 1):
        index[s] = np.searchsorted(keys, values[s].view(np.int64))
    m = keys.size
    if own and 3 * m <= n // 2:
        # the levels and their phases fit in the half the index left free
        spare = values[n - n // 2:]
        spare[:m] = keys.view(float)
        return spare[:m], index, spare[m:3 * m].view(complex)
    return keys.view(float), index, np.empty(m, dtype=complex)


def qhd_evolve(mesh: Mesh, f, sched: Schedule, T: float, dt: float,
               psi0: WaveFunction = None, snapshot_times=(), *,
               t0: float = 0.0, x_star=None, success_radius: float = 0.1,
               observable_stride: int = 1) -> Trajectory:
    """Split-step Fourier evolution of the descent dynamics on a periodic
    mesh: alternating diagonal potential phases and Fourier-space kinetic
    phases with per-step coefficients from the schedule.

    The state is stepped in place in one complex grid: a copy of
    ``psi0``, which is left unchanged, or else a fresh uniform state. The
    potential phase is made one row block at a time, at most
    ``mesh.GRID_BLOCK`` nodes and at least one row of axis 0, in a block
    buffer that each slab makes once per call, and the state's block is
    multiplied by it. Its angle is written into an imaginary part, cos of
    it into the real part, then sin in place: per node, into the block
    buffer, or, on the level path, once per distinct potential value into
    a table that this thread fills each step and the blocks gather from.
    The level path runs when at most half the nodes carry distinct values
    (see ``_level_table``, built after the step-grid checks and before the
    state is made). Its int32 index takes the place of a potential this
    call evaluated itself; a caller's ``DiagonalOperator`` is only read.
    E[f] reads the potential through the table, the same floats, so every
    output keeps the bits of the per-node phase. The FFTs overwrite the
    state. The kinetic eigenvalue is a sum over axes, so its phase is a
    product of one length-N phase per axis, built once per step and
    multiplied in along each axis in turn. So a run holds one full complex
    grid, the state. Observations and normalizations sum |psi|^2 one block
    of at most ``mesh.GRID_BLOCK`` nodes at a time, in numpy's pairwise
    order, so they make no full-grid density and keep the bits of
    whole-grid sums; the success nodes are kept as flat indices. The final
    state is normalized in place and returned as the last snapshot.

    Each step runs in four stages, each on independent slabs of the grid:
    (a) the potential phase, block by block, then the FFTs along axes
    d-1, ..., 1, on slabs of axis 0; (b) the FFT along axis 0, then the
    kinetic phases of axes 0, ..., d-1, on slabs of the last axis; (c) the
    inverse FFTs along axes d-1, ..., 1, on slabs of axis 0; (d) the
    inverse FFT along axis 0, on slabs of the last axis. That is
    ``fftn``'s axis order, so every node sees the same operations in the
    same order whatever the slab count, and the results do not depend on
    it; the phase's operations are elementwise, so neither do they depend
    on its blocks. A grid of d >= 2 axes is cut into
    min(usable CPUs, nodes // ``SLAB_NODES``) slabs, at least one; this
    thread runs the first and a pool of one thread per further slab the
    others. The pool is made by this call and shut down, its threads
    joined, before it returns, even when it raises. A second slab thus
    needs 2 * 2^17 nodes (512^2, 64^3); smaller grids, and every 1-D grid,
    run one slab on this thread and make no pool.

    Records E[f], success probability (when a minimizer is known), and the
    norm at every ``observable_stride`` steps; full states at
    ``snapshot_times`` and at T.
    """
    mesh.require(PERIODIC)
    # the step grid is checked before anything is computed
    rec = _Recorder(t0, T, dt, snapshot_times=snapshot_times,
                    stride=observable_stride, mesh=mesh)
    own = not isinstance(f, DiagonalOperator)
    fvals = (discretize_objective(mesh, f) if own else f).values
    if x_star is None and getattr(f, "minimizer", None) is not None:
        x_star = np.asarray(f.minimizer, dtype=float)
    # before the state is made; a caller's operator is never written to
    table = _level_table(fvals, own)
    levels = None
    if table is not None:
        levels, fvals, level_phase = table
    # the recorder keeps the mask's flat indices; the mask is not held
    rec.watch(fvals, None if x_star is None
              else success_mask(mesh, x_star, success_radius), levels)
    fvals = fvals.reshape(mesh.shape)

    n, last = mesh.nodes_per_edge, mesh.dim - 1
    kin_axis = _axis_kinetic_eigenvalues(n)
    axis_shapes = _axis_shapes(mesh.dim)
    inner_axes = range(last, 0, -1)
    # the default start is made fresh, so only a caller's psi0 is copied
    psi = (psi0.amplitudes.copy() if psi0 is not None
           else uniform_state(mesh).amplitudes).reshape(mesh.shape)
    k = _slab_count(mesh)
    cuts = [n * i // k for i in range(k + 1)]
    # made once: a row slab of the state and of the potential with the row
    # blocks of its phase and one phase buffer per slab, and a column slab
    # of the state with its range of the last axis
    rows = []
    for a, b in zip(cuts, cuts[1:]):
        blocks = _axis_slices(b - a, mesh.size // n)
        buf = np.empty((max(s.stop - s.start for s in blocks),)
                       + mesh.shape[1:], dtype=complex)
        rows.append((psi[a:b], fvals[a:b], buf, blocks))
    cols = [(psi[..., a:b], slice(a, b)) for a, b in zip(cuts, cuts[1:])]

    def potential_then_inner_ffts(row, coeff):
        part, f_part, buf, blocks = row
        for s in blocks:
            phase, block = buf[:s.stop - s.start], part[s]
            if levels is None:
                np.multiply(coeff, f_part[s], out=phase.imag)
                np.cos(phase.imag, out=phase.real)
                np.sin(phase.imag, out=phase.imag)
            else:
                # every index is in range; the default mode="raise" would
                # copy the output through a buffer
                np.take(level_phase, f_part[s], out=phase, mode="clip")
            block *= phase
        for ax in inner_axes:
            np.fft.fft(part, axis=ax, out=part)

    def first_fft_then_kinetic(col, kin_phase):
        part, span = col
        np.fft.fft(part, axis=0, out=part)
        for ax, shape in enumerate(axis_shapes):
            part *= (kin_phase[span] if ax == last
                     else kin_phase).reshape(shape)

    def inner_iffts(row):
        part = row[0]
        for ax in inner_axes:
            np.fft.ifft(part, axis=ax, out=part)

    def first_ifft(col):
        part = col[0]
        np.fft.ifft(part, axis=0, out=part)

    pool = None
    if k > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(k - 1, thread_name_prefix="qhdkit-slab")

    def on_slabs(stage, slabs, *args):
        """Run ``stage(s, *args)`` for every slab s: the first on this
        thread, the others on the pool, and return once all are done."""
        pending = [pool.submit(stage, s, *args) for s in slabs[1:]]
        try:
            stage(slabs[0], *args)
        finally:
            for fut in pending:
                fut.result()

    try:
        for j in range(rec.n_steps):
            te = t0 + (j + 1) * dt
            coeff = -dt * sched.potential_coeff(te)
            if levels is not None:
                # the operations of the per-node path, once per level
                np.multiply(coeff, levels, out=level_phase.imag)
                np.cos(level_phase.imag, out=level_phase.real)
                np.sin(level_phase.imag, out=level_phase.imag)
            on_slabs(potential_then_inner_ffts, rows, coeff)
            on_slabs(first_fft_then_kinetic, cols,
                     np.exp(-1j * dt * sched.kinetic_coeff(te) * kin_axis))
            on_slabs(inner_iffts, rows)
            on_slabs(first_ifft, cols)
            rec.record(j + 1, psi)
    finally:
        if pool is not None:
            pool.shutdown()
    return rec.finish(psi)


# ---------------------------------------------------------------------------
# Radix-2 baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Radix2Problem:
    """Diagonal problem over {0,1}^(d*q) from reading each variable's q bits
    as a binary fraction j / 2^q; the first variable owns the most
    significant bit block."""

    dim: int
    bits_per_var: int
    diag: np.ndarray
    points: np.ndarray

    def decode(self, bits: str) -> np.ndarray:
        q = self.bits_per_var
        if len(bits) != self.dim * q:
            raise ValueError("bitstring has wrong length")
        return np.array([int(bits[k * q:(k + 1) * q], 2) / 2 ** q
                         for k in range(self.dim)])


def radix2_problem(f, bits_per_var: int) -> Radix2Problem:
    """Tabulate an objective over the radix-2 hypercube (dense, dq <= 24);
    a ``bits_per_var`` that is not an integer >= 1 raises ``ValueError``."""
    _require_count("bits_per_var", bits_per_var)
    dim = f.dim
    n = dim * bits_per_var
    if n > 24:
        raise ResourceError(f"dense radix-2 table infeasible for {n} bits")
    points = Mesh(dim, 2 ** bits_per_var, PERIODIC).node_coords()
    diag = _eval_rows(f, points)
    return Radix2Problem(dim=dim, bits_per_var=bits_per_var, diag=diag,
                         points=points)


def qaa_evolve(diag: np.ndarray, sched: Schedule, T: float, dt: float, *,
               points: np.ndarray = None, x_star=None, radius: float = 0.1,
               observable_stride: int = 1) -> Trajectory:
    """Interpolation from the transverse-field mixer to a diagonal problem
    Hamiltonian, H(t) = -(1 - g) sum_j sigma_x^(j) + g diag, by the Strang
    loop at r = 1 on the (2,)*n grid: ``relaxed_adjacency(1, 1)`` is
    sigma_x, and ``binomial_state(1, n)`` is the uniform superposition (the
    mixer ground state) that the run starts from.

    A Strang step is unitary at any dt, but its phases alias once they span
    more than pi. At any t the eigenphases of one step's two factors span at
    most 2 n dt (1 - g) and ptp(diag) dt g, so dt * max(2n, ptp(diag)) > pi
    raises ``StabilityError`` before any step, without calling the schedule.
    A non-finite diag entry raises ``EvaluationError`` with its index before
    that, and more than 24 bits ``ResourceError``.
    """
    diag = np.asarray(diag, dtype=float)
    n = diag.size.bit_length() - 1
    if n < 1 or 2 ** n != diag.size:
        raise ValueError("diagonal length must be a power of two >= 2, got "
                         f"{diag.size}")
    if n > 24:
        raise ResourceError(f"state-vector evolution infeasible for {n} bits")
    if sched.anneal_fraction is None:
        raise ValueError("QAA evolution needs an annealing-fraction schedule")

    shape = (2,) * n
    diag_nd = diag.reshape(shape)
    # in row blocks: one whole-batch call makes three point-sized temporaries
    rec = _Recorder(0.0, T, dt, diag_nd,
                    None if points is None or x_star is None
                    else _eval_rows(lambda p: within_radius(p, x_star, radius),
                                    points, bool),
                    stride=observable_stride)
    bad = np.flatnonzero(~np.isfinite(diag))
    if bad.size:
        raise EvaluationError(f"diagonal is non-finite at index {bad[0]}",
                              index=int(bad[0]))
    span = max(2 * n, float(np.ptp(diag)))
    if dt * span > np.pi:
        raise StabilityError(f"dt * max(2n, ptp(diag)) = {dt * span:.3g} "
                             f"exceeds pi; reduce dt to {np.pi / span:.3g} "
                             f"or less")
    return rec.finish(_strang_evolve(diag_nd, 1, sched.kinetic_coeff,
                                     sched.potential_coeff, rec))
