"""Correctness checks of the benchmark, written apart from qhdkit.

Every check takes plain arrays and returns a list of failure messages; an
empty list means the output passed. The reference computations here (the
box-QP face oracle, the Levy function, the grid Hamiltonian, the TTS and
time-dilation formulas, the QP energies) use numpy and scipy only, so a
fault in qhdkit cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

#: unitary engines keep the recorded norm at 1 to this tolerance
NORM_TOL = 1e-9

#: the staggered leapfrog of the adiabatic baseline conserves a quadratic
#: form, not the synchronized norm it records; that drifts by O(dt^2)
QAA_NORM_TOL = 5e-3

#: eigenpair residual relative to the operator's infinity norm
EIG_RESIDUAL_RTOL = 1e-8

#: machine preset of the annealer solver: transverse field at t = 0 in Hz
MACHINE_A0_OVER_H = 9.63e9

TTS_CONFIDENCE = 0.99


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def levy_unit(points: np.ndarray) -> np.ndarray:
    """Two-dimensional Levy function moved to the unit box, gradient scale
    kept: g(u) = levy(-10 + 20 u) / 20, minimum 0 at u = (0.55, 0.55)."""
    x = -10.0 + 20.0 * np.atleast_2d(points)
    w1 = 1.0 + (x[:, 0] - 1.0) / 4.0
    w2 = 1.0 + (x[:, 1] - 1.0) / 4.0
    val = (np.sin(np.pi * w1) ** 2
           + (w1 - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w1 + 1.0) ** 2)
           + (w2 - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w2) ** 2))
    return val / 20.0


def box_hamiltonian(f_interior: np.ndarray, cells: int, e_phi: float,
                    e_chi: float) -> sp.csr_matrix:
    """e_phi * (-1/2 Laplacian) + e_chi * diag(f) on the interior nodes of a
    square grid with ``cells`` cells per edge and walls at 0 and 1.
    ``f_interior`` is in C order over the (cells - 1)^2 interior nodes."""
    m = cells - 1
    ones = np.ones(m - 1)
    second = sp.diags([ones, -2.0 * np.ones(m), ones], [1, 0, -1])
    eye = sp.identity(m)
    lap = cells ** 2 * (sp.kron(second, eye) + sp.kron(eye, second))
    return (-0.5 * e_phi * lap + e_chi * sp.diags(f_interior)).tocsr()


def face_minimum(Q: np.ndarray, b: np.ndarray):
    """Exact minimum of 1/2 x^T Q x + b^T x over [0, 1]^d.

    Enumerates the 3^d faces of the box: each variable is held at 0, held
    at 1, or left free. On a face whose free block Q_FF is nonsingular the
    only candidate is the stationary point Q_FF x_F = -(b_F + Q_FG x_G),
    kept when it lies in the box. A face with singular Q_FF needs no
    candidate: f is flat along its null directions at a stationary point,
    so the same value is reached on a lower face. Returns (x, f).
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b.size
    best_x, best_f = None, math.inf
    for pattern in itertools.product((0, 1, None), repeat=d):
        free = [i for i, p in enumerate(pattern) if p is None]
        fixed = [i for i, p in enumerate(pattern) if p is not None]
        x = np.array([0.0 if p is None else float(p) for p in pattern])
        if free:
            rhs = -(b[free] + Q[np.ix_(free, fixed)] @ x[fixed])
            block = Q[np.ix_(free, free)]
            if abs(np.linalg.det(block)) < 1e-12:
                continue
            x_free = np.linalg.solve(block, rhs)
            if np.any(x_free < -1e-12) or np.any(x_free > 1.0 + 1e-12):
                continue
            x[free] = np.clip(x_free, 0.0, 1.0)
        val = 0.5 * x @ Q @ x + b @ x
        if val < best_f:
            best_x, best_f = x, float(val)
    return best_x, best_f


def expected_tts(t_f: float, p_s: float) -> float:
    """t_f * ceil(ln(1 - 0.99) / ln(1 - p_s)); t_f once p_s reaches 0.99,
    infinity when p_s = 0."""
    if p_s == 0.0:
        return math.inf
    if p_s >= TTS_CONFIDENCE:
        return t_f
    return t_f * math.ceil(math.log(1.0 - TTS_CONFIDENCE)
                           / math.log(1.0 - p_s))


def relaxed_tf(T: float, r: int, stepsize: float) -> float:
    """Physical anneal time T / lambda of the relaxed solver, with
    lambda = (A0/h) / (r^{3/2} kinetic(0)) and kinetic(0) = 2 / stepsize
    for the nonconvex Nesterov schedule."""
    lam = MACHINE_A0_OVER_H / (r ** 1.5 * (2.0 / stepsize))
    return T / lam


def hamming_energies(Q: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    """QP value at the decoded point of every bitstring of d blocks of r
    qubits, qubit 0 most significant: x_p = (block p Hamming weight) / r."""
    d = b.size
    n = d * r
    idx = np.arange(2 ** n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    x = bits.reshape(-1, d, r).sum(axis=2) / r
    return 0.5 * np.einsum("ni,ij,nj->n", x, Q, x) + x @ b


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_norms(name, norms, tol=NORM_TOL):
    worst = float(np.max(np.abs(np.asarray(norms) - 1.0)))
    if not worst <= tol:
        return [f"{name}: recorded norm is {worst:.3e} from 1 (tol {tol:g})"]
    return []


def check_levy(qhd_sp, qaa_sp, mass_above, residuals, ensembles):
    """``qhd_sp``/``qaa_sp``: recorded success probabilities; ``mass_above``:
    {t: mass above level 3}; ``residuals``: (t, level, relative residual);
    ``ensembles``: {algo: (success_frac, mean_loss)}."""
    out = []
    p_qhd, p_qaa = float(qhd_sp[-1]), float(qaa_sp[-1])
    if not (p_qhd > 0.5 and p_qhd > p_qaa):
        out.append(f"levy: final QHD success {p_qhd:.4f} is not above 0.5 "
                   f"and above QAA's {p_qaa:.4f}")
    if not mass_above[0.5] > mass_above[10.0]:
        out.append(f"levy: mass above level 3 at t=0.5 ({mass_above[0.5]:.4g})"
                   f" does not exceed the mass at t=10 "
                   f"({mass_above[10.0]:.4g})")
    for t, level, res in residuals:
        if not res <= EIG_RESIDUAL_RTOL:
            out.append(f"levy: eigenpair {level} at t={t} has relative "
                       f"residual {res:.3e}")
    for algo, (frac, loss) in ensembles.items():
        frac, loss = np.asarray(frac), np.asarray(loss)
        if not (np.all(frac >= 0.0) and np.all(frac <= 1.0)):
            out.append(f"levy: {algo} success_frac leaves [0, 1]")
        if not np.all(loss >= 0.0):
            out.append(f"levy: {algo} mean_loss {loss.min():.3g} is below "
                       f"the Levy minimum 0")
    return out


def check_convex(ws, times, efs, beta):
    """``ws``: W at the segment boundaries, ``times``/``efs``: the recorded
    E[f] trace, ``beta``: the schedule's beta as a function of t."""
    out = []
    ws = np.asarray(ws, dtype=float)
    budget = 1e-3 * abs(ws[0])
    incr = float(np.max(np.diff(ws)))
    if not incr <= budget:
        out.append(f"convex: W increased by {incr:.3e} > {budget:.3e}")
    bound = 1.02 * ws[0] * np.exp(-np.array([beta(t) for t in times]))
    if not np.all(np.asarray(efs) <= bound):
        worst = int(np.argmax(np.asarray(efs) - bound))
        out.append(f"convex: E[f] {efs[worst]:.4g} at t={times[worst]:.3f} "
                   f"exceeds 1.02 W(t0) exp(-beta) = {bound[worst]:.4g}")
    return out


def check_qp(instances, T, r, stepsize, trials):
    """``instances``: one dict per instance with ``Q``, ``b``, ``f_star`` and
    ``solvers`` = {name: (t_f, p_s, tts)}, each p_s a share of ``trials``
    sampled outcomes."""
    out = []
    ps = {}
    for i, inst in enumerate(instances):
        _, f_exact = face_minimum(inst["Q"], inst["b"])
        if not abs(inst["f_star"] - f_exact) <= 1e-9:
            out.append(f"qp: instance {i} ground truth {inst['f_star']!r} "
                       f"differs from the face minimum {f_exact!r}")
        for name, (t_f, p_s, tts) in inst["solvers"].items():
            ps.setdefault(name, []).append(p_s)
            want = expected_tts(t_f, p_s)
            if not (tts == want or abs(tts - want) <= 1e-12 * abs(want)):
                out.append(f"qp: instance {i} {name} TTS {tts!r} != "
                           f"{want!r} recomputed")
            if name == "relaxed_qhd":
                want_tf = relaxed_tf(T, r, stepsize)
                if not abs(t_f - want_tf) <= 1e-12 * want_tf:
                    out.append(f"qp: instance {i} relaxed t_f {t_f!r} != "
                               f"T/lambda = {want_tf!r}")
    # the ordering holds for the success probabilities, which p_s only
    # estimates; it is tested up to three standard errors of the difference
    # of the two means of binomial shares
    q, u = np.array(ps["relaxed_qhd"]), np.array(ps["uniform_grid"])
    se = math.sqrt(np.sum(q * (1 - q) + u * (1 - u)) / trials) / q.size
    if not q.mean() >= u.mean() - 3.0 * se:
        out.append(f"qp: mean p_s of relaxed_qhd {q.mean():.4f} is below "
                   f"uniform_grid {u.mean():.4f} by more than 3 standard "
                   f"errors ({se:.4f})")
    return out


def check_analog(ising_marg, grid_marg, energies, Q, b, r, roundtrip_ok,
                 decoded, counts, shots):
    """``ising_marg``/``grid_marg``: per-variable Hamming-weight marginals
    of the machine and of the relaxed grid; ``energies``: {name: energy
    table over all bitstrings}; ``decoded``: sample points; ``counts``:
    shot count per distinct bitstring."""
    out = []
    dev = max(float(np.max(np.abs(np.asarray(a) - np.asarray(g))))
              for a, g in zip(ising_marg, grid_marg))
    if not dev <= 1e-6:
        out.append(f"analog: block-weight marginals differ by {dev:.3e}")
    want = hamming_energies(Q, b, r)
    for name, table in energies.items():
        err = float(np.max(np.abs(np.asarray(table) - want)))
        if not err <= 1e-12:
            out.append(f"analog: {name} energies differ from 1/2 x'Qx + b'x "
                       f"by {err:.3e}")
    if not roundtrip_ok:
        out.append("analog: the coefficient file does not round-trip")
    decoded = np.asarray(decoded)
    if not (np.all(decoded >= 0.0) and np.all(decoded <= 1.0)):
        out.append("analog: a decoded sample leaves [0, 1]^d")
    if sum(counts) != shots:
        out.append(f"analog: shot counts sum to {sum(counts)}, not {shots}")
    return out
