"""Time evolution engines: pseudo-spectral split-step descent dynamics,
baseline adiabatic evolution over radix-2 encodings, schedule construction
and validation, and time-dilation transforms.

Conventions pinned for reproducibility across modules:

* Signed Fourier frequencies are laid out as {0, ..., N/2-1, -N/2, ..., -1}
  (the numpy FFT order); the kinetic eigenvalue of mode vector k is
  (1/2) * sum_i (2 pi k_i)^2 on the unit box. ``_axis_kinetic_eigenvalues``
  is the one place that builds the per-axis term.
* A step covering [t_j, t_j + dt] samples the schedule coefficients at the
  *end* of the interval, so schedules singular at t = 0 are never evaluated
  there and the first coefficients are those at t0 + dt.
* Each split step applies the potential phase first, then the kinetic phase
  in Fourier space. The kinetic phase is a product of per-axis 1-D phases,
  since its eigenvalue is a sum over axes; the potential phase is cos/sin
  of its angle written into a buffer made once per call; the state is
  multiplied and transformed in place.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import (BlowupError, ScheduleValidationError, StabilityError,
                     StepGridError)
from .mesh import (PERIODIC, DiagonalOperator, Mesh, WaveFunction,
                   _is_integer, discretize_objective, success_mask,
                   uniform_state, within_radius)

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


def _positive_horizon(horizon) -> float:
    T = float(horizon)
    if not T > 0:
        raise ValueError("horizon must be positive")
    return T


def _piecewise_schedule(knots) -> Schedule:
    knots = tuple((float(t), float(s)) for t, s in knots)
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
    s = float(stepsize)
    if s <= 0:
        raise ValueError("stepsize must be positive")
    return Schedule(kinetic_coeff=lambda t: 2.0 / (s + t ** 3),
                    potential_coeff=lambda t: 2.0 * t ** 3)


def _local_adiabatic(horizon) -> Schedule:
    T = _positive_horizon(horizon)
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
        [(0.0, 0.0), (_positive_horizon(horizon), 1.0)]),
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
    if dt <= 0 or T <= t0:
        raise ValueError("need dt > 0 and T > t0")
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
    ``fvals`` and ``smask`` are shaped like the engine's state; ``mesh``
    wraps snapshots as WaveFunctions (plain flat vectors when None). Steps
    are counted from 1, so step m ends at t0 + m dt. A stride that is not
    an integer >= 1 raises ``ValueError``.
    """

    def __init__(self, t0, T, dt, fvals, smask=None, *, snapshot_times=(),
                 stride=1, mesh=None):
        if not (_is_integer(stride) and stride >= 1):
            raise ValueError("observable stride must be an integer >= 1, "
                             f"got {stride!r}")
        self.t0, self.dt, self.stride = t0, dt, stride
        self.n_steps = _step_count(t0, T, dt)
        self.fvals, self.smask, self.mesh = fvals, smask, mesh
        self.snap_steps = {}
        for ts in snapshot_times:
            m = (ts - t0) / dt
            m_int = int(round(m))
            if abs(m - m_int) > 1e-6 or not (1 <= m_int <= self.n_steps):
                raise StepGridError(
                    f"snapshot time {ts} does not lie on the step grid")
            self.snap_steps[m_int] = float(ts)
        self.times, self.efs, self.sps, self.norms = [], [], [], []
        self.snap_ts, self.snaps = [], []

    def due(self, step: int) -> bool:
        return step % self.stride == 0 or step == self.n_steps

    def observe(self, step: int, prob: np.ndarray):
        """Record the observables of the density ``prob`` after ``step``."""
        nrm = float(prob.sum())
        if not np.isfinite(nrm):
            raise BlowupError(f"non-finite amplitudes at step {step - 1}",
                              step=step - 1)
        self.times.append(self.t0 + step * self.dt)
        self.norms.append(nrm)
        self.efs.append(float(np.sum(prob * self.fvals)) / nrm)
        self.sps.append(float(np.sum(prob[self.smask])) / nrm
                        if self.smask is not None else np.nan)

    def record(self, step: int, psi: np.ndarray):
        """Observables on due steps and a snapshot on snapshot steps."""
        if self.due(step):
            self.observe(step, np.abs(psi) ** 2)
        if step in self.snap_steps:
            self._snapshot(self.snap_steps[step], psi)

    def _snapshot(self, t, psi):
        amp = (psi / np.sqrt(np.sum(np.abs(psi) ** 2))).reshape(-1)
        self.snap_ts.append(t)
        self.snaps.append(amp if self.mesh is None
                          else WaveFunction(self.mesh, amp))

    def finish(self, psi: np.ndarray) -> Trajectory:
        """The trajectory, with ``psi`` as the final snapshot at T unless a
        snapshot was already recorded there."""
        t_end = self.t0 + self.n_steps * self.dt
        if not self.snap_ts or abs(self.snap_ts[-1] - t_end) > 1e-9:
            self._snapshot(t_end, psi)
        return Trajectory(times=np.array(self.times),
                          observables={"Ef": np.array(self.efs),
                                       "success_prob": np.array(self.sps),
                                       "norm": np.array(self.norms)},
                          snapshot_times=np.array(self.snap_ts),
                          snapshots=self.snaps)


def _axis_kinetic_eigenvalues(n: int) -> np.ndarray:
    """(1/2)(2 pi k)^2 for the signed frequencies k of an n-node periodic
    axis, in FFT order {0, ..., N/2-1, -N/2, ..., -1}."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return 0.5 * (2.0 * np.pi * k) ** 2


def _axis_shapes(dim: int) -> list:
    """Broadcast shapes that lay a 1-D array along each axis of a d-grid."""
    return [tuple(-1 if a == ax else 1 for a in range(dim))
            for ax in range(dim)]


def kinetic_eigenvalues(mesh: Mesh) -> np.ndarray:
    """Eigenvalues of -(1/2) Laplacian per Fourier mode on a periodic mesh,
    shaped like the grid."""
    mesh.require(PERIODIC)
    axis = _axis_kinetic_eigenvalues(mesh.nodes_per_edge)
    out = np.zeros(mesh.shape)
    for shape in _axis_shapes(mesh.dim):
        out = out + axis.reshape(shape)
    return out


def qhd_evolve(mesh: Mesh, f, sched: Schedule, T: float, dt: float,
               psi0: WaveFunction = None, snapshot_times=(), *,
               t0: float = 0.0, x_star=None, success_radius: float = 0.1,
               observable_stride: int = 1) -> Trajectory:
    """Split-step Fourier evolution of the descent dynamics on a periodic
    mesh: alternating diagonal potential phases and Fourier-space kinetic
    phases with per-step coefficients from the schedule.

    The state is stepped in place in one complex grid. The potential phase
    is written as cos/sin of its angle into a complex buffer made once per
    call; the FFTs overwrite the state. The kinetic eigenvalue is a sum over
    axes, so its phase is a product of one length-N phase per axis, built
    once per step and multiplied in along each axis in turn. ``psi0`` is
    left unchanged.

    Records E[f], success probability (when a minimizer is known), and the
    norm at every ``observable_stride`` steps; full states at
    ``snapshot_times`` and at T.
    """
    mesh.require(PERIODIC)
    fop = f if isinstance(f, DiagonalOperator) else discretize_objective(mesh, f)
    fvals = fop.values.reshape(mesh.shape)
    if x_star is None and getattr(f, "minimizer", None) is not None:
        x_star = np.asarray(f.minimizer, dtype=float)
    smask = (success_mask(mesh, x_star, success_radius).reshape(mesh.shape)
             if x_star is not None else None)
    rec = _Recorder(t0, T, dt, fvals, smask, snapshot_times=snapshot_times,
                    stride=observable_stride, mesh=mesh)

    kin_axis = _axis_kinetic_eigenvalues(mesh.nodes_per_edge)
    axis_shapes = _axis_shapes(mesh.dim)
    psi = (psi0.amplitudes if psi0 is not None
           else uniform_state(mesh).amplitudes).reshape(mesh.shape).copy()
    angle = np.empty(mesh.shape)
    phase = np.empty(mesh.shape, dtype=complex)
    for j in range(rec.n_steps):
        te = t0 + (j + 1) * dt
        np.multiply(-dt * sched.potential_coeff(te), fvals, out=angle)
        np.cos(angle, out=phase.real)
        np.sin(angle, out=phase.imag)
        psi *= phase
        np.fft.fftn(psi, out=psi)
        kin_phase = np.exp(-1j * dt * sched.kinetic_coeff(te) * kin_axis)
        for shape in axis_shapes:
            psi *= kin_phase.reshape(shape)
        np.fft.ifftn(psi, out=psi)
        rec.record(j + 1, psi)
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
    """Tabulate an objective over the radix-2 hypercube (dense, dq <= 24)."""
    dim = f.dim
    n = dim * bits_per_var
    if n > 24:
        raise ValueError(f"dense radix-2 table infeasible for {n} bits")
    points = Mesh(dim, 2 ** bits_per_var, PERIODIC).node_coords()
    diag = np.asarray(f(points), dtype=float)
    return Radix2Problem(dim=dim, bits_per_var=bits_per_var, diag=diag,
                         points=points)


#: drift of the leapfrog's conserved quadratic form per unit time beyond
#: which ``qaa_evolve`` raises. A stable run keeps the drift at the benign
#: O(dt^2 <H^2>) level (about 1e-5 at dt = 1e-3 on a 12-bit problem) while a
#: too-large dt overshoots any threshold within a few steps, so this value
#: separates the regimes cleanly.
QAA_STABILITY_TOL = 1e-4


def _flip_apply(psi_nd):
    """Sum over single-bit flips of a state shaped (2,)*n."""
    out = np.zeros_like(psi_nd)
    for ax in range(psi_nd.ndim):
        out += np.flip(psi_nd, axis=ax)
    return out


def qaa_evolve(diag: np.ndarray, sched: Schedule, T: float, dt: float, *,
               points: np.ndarray = None, x_star=None, radius: float = 0.1,
               observable_stride: int = 1) -> Trajectory:
    """Leapfrog-integrated interpolation from the transverse-field mixer to a
    diagonal problem Hamiltonian: H(t) = (1 - g) H0 + g H1 with
    H0 = -(sum of single-bit flips) applied matrix-free and H1 = diag.

    Starts from the uniform superposition (the mixer ground state). The
    integrator is the time-reversible staggered scheme; its conserved
    quadratic form is monitored and a drift beyond ``QAA_STABILITY_TOL`` per
    unit time raises a stability error advising a smaller dt.
    """
    diag = np.asarray(diag, dtype=float)
    n = int(round(np.log2(diag.size)))
    if 2 ** n != diag.size:
        raise ValueError("diagonal length must be a power of two")
    if n > 24:
        raise ValueError(f"state-vector evolution infeasible for {n} bits")
    g = sched.anneal_fraction
    if g is None:
        raise ValueError("QAA evolution needs an annealing-fraction schedule")

    shape = (2,) * n
    diag_nd = diag.reshape(shape)
    smask = (within_radius(points, x_star, radius).reshape(shape)
             if points is not None and x_star is not None else None)
    rec = _Recorder(0.0, T, dt, diag_nd, smask, stride=observable_stride)

    def h_apply(v, t):
        gt = g(t)
        return -(1.0 - gt) * _flip_apply(v) + gt * diag_nd * v

    R = np.full(shape, 1.0 / np.sqrt(diag.size))
    I_half = -0.5 * dt * h_apply(R, 0.0)  # I(dt/2) from I(0) = 0
    n_steps = rec.n_steps

    q0 = None
    I_prev = np.zeros(shape)
    for k in range(n_steps):
        R = R + dt * h_apply(I_half, (k + 0.5) * dt)
        I_next = I_half - dt * h_apply(R, (k + 1) * dt)
        # conserved quadratic of the staggered scheme
        q = float(np.sum(R * R) + np.sum(I_half * I_next))
        if q0 is None:
            q0 = q
        if not np.isfinite(q) or abs(q - q0) > QAA_STABILITY_TOL * max(
                (k + 1) * dt, 1.0):
            raise StabilityError(
                f"staggered-norm drift {abs(q - q0):.3e} at t={(k + 1) * dt}; "
                f"reduce dt")
        I_prev, I_half = I_half, I_next
        if rec.due(k + 1):
            I_sync = 0.5 * (I_prev + I_half)
            rec.observe(k + 1, R * R + I_sync * I_sync)
    # the stagger leaves I half a step ahead of R; pull it back to T
    I_sync = I_half + 0.5 * dt * h_apply(R, n_steps * dt)
    return rec.finish(R + 1j * I_sync)
