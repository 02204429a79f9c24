"""Analog-implementation pipeline: Hamming and radix-2 encodings of box QPs
into Ising/QUBO coefficient sets, time-energy rescaling, sample decoding, and
the relaxed grid reference evolution and, at r = 1, the dense
transverse-field Ising machine that checks the subspace encodings. Both run
the one Strang loop, ``dynamics._strang_evolve``. The loop, its
``relaxed_adjacency`` coupling and its ``binomial_state`` start live in
``dynamics``, and this module re-exports them.

Bit conventions (fixed): computational basis states are indexed by integers
whose binary digits give the qubit values with qubit 0 as the most
significant bit; variable p of a d-variable problem owns the contiguous
qubit block [p*b, (p+1)*b). A sample bitstring is written in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (STRANG_BLOCK_CAP, Schedule, Trajectory, _Recorder,
                       _step_count, _strang_evolve, binomial_state,
                       relaxed_adjacency)
from .errors import DomainError, ResourceError, StabilityError
from .mesh import (DIRICHLET, Mesh, _density, _is_integer, _require_count,
                   _require_real, discretize_objective, success_mask)
from .objectives import QpInstance, qp_objective

#: dense 2^n feasibility cap for oracle-side constructions
DENSE_QUBITS_CAP = 14

#: grid-size cap for the relaxed reference evolution
RELAXED_GRID_CAP = 100_000


def _checked_terms(n, linear, offset, pairs, upper):
    """``linear`` as a flat float array, once ``n`` is an integer >= 1 with
    n linear terms, all coefficients are finite and the keys of ``pairs``
    integer pairs in [0, n), ascending when ``upper`` and else descending."""
    _require_count("n", n)
    lin = np.asarray(linear, dtype=float).reshape(-1)
    if lin.size != n:
        raise ValueError(f"expected {n} linear terms, got {lin.size}")
    vals = np.fromiter(pairs.values(), dtype=float, count=len(pairs))
    if not (np.all(np.isfinite(lin)) and np.isfinite(offset)
            and np.all(np.isfinite(vals))):
        raise ValueError("coefficients must be finite")
    keys = np.array([*pairs] or np.zeros((0, 2), int))
    if keys.dtype.kind != "i" or keys.shape[1:] != (2,):
        raise ValueError("pair keys must be integer pairs (j, k)")
    lo, hi = keys.T if upper else keys.T[::-1]
    bad = np.flatnonzero((lo < 0) | (lo >= hi) | (hi >= n))
    if bad.size:
        raise ValueError(f"key {[*pairs][bad[0]]} is not "
                         f"{'upper' if upper else 'lower'}-triangular")
    return lin


@dataclass(frozen=True)
class IsingModel:
    """E(z) = sum_j h_j z_j + sum_{j>k} J_{j,k} z_j z_k + offset, z in {-1,1}.

    J keys are strictly lower-triangular pairs (j, k) with j > k.
    """

    n: int
    h: np.ndarray
    J: dict
    offset: float = 0.0

    def __post_init__(self):
        h = _checked_terms(self.n, self.h, self.offset, self.J, upper=False)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class QuboModel:
    """E(x) = sum_j q_j x_j + sum_{j<k} q_{j,k} x_j x_k + offset, x in {0,1}.

    Quadratic keys are strictly upper-triangular pairs (j, k) with j < k.
    """

    n: int
    linear: np.ndarray
    quadratic: dict
    offset: float = 0.0

    def __post_init__(self):
        lin = _checked_terms(self.n, self.linear, self.offset, self.quadratic,
                             upper=True)
        object.__setattr__(self, "linear", lin)


@dataclass(frozen=True)
class PrecisionLayout:
    """How a d-variable point maps to bits: x_p = precision . bits of block p.

    The precision entries sum to 1, which keeps every decodable value inside
    the unit box. The Hamming layout uses the uniform vector (value = block
    Hamming weight / bits); the radix-2 layout uses the sum-to-one binary
    weights (2^-(b-1), 2^-(b-1), 2^-(b-2), ..., 1/2). A ``dim``,
    ``bits_per_var``, Hamming ``r`` or radix-2 ``bits`` that is not an
    integer >= 1 (bools are not) raises ``ValueError`` naming it.
    """

    dim: int
    bits_per_var: int
    precision: np.ndarray
    encoding: str

    def __post_init__(self):
        _require_count("dim", self.dim)
        _require_count("bits_per_var", self.bits_per_var)
        p = np.asarray(self.precision, dtype=float).reshape(-1)
        if p.size != self.bits_per_var:
            raise ValueError("precision vector has wrong length")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("precision entries must sum to 1")
        if self.encoding not in ("hamming", "radix2"):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        object.__setattr__(self, "precision", p)

    @property
    def n(self) -> int:
        return self.dim * self.bits_per_var

    @staticmethod
    def hamming(dim: int, r: int) -> "PrecisionLayout":
        _require_count("r", r)
        return PrecisionLayout(dim, r, np.full(r, 1.0 / r), "hamming")

    @staticmethod
    def radix2(dim: int, bits: int) -> "PrecisionLayout":
        _require_count("bits", bits)
        if bits == 1:
            p = np.array([1.0])
        else:
            p = np.array([2.0 ** -(bits - 1)]
                         + [2.0 ** -(bits - i) for i in range(1, bits)])
        return PrecisionLayout(dim, bits, p, "radix2")


@dataclass(frozen=True)
class AnnealEnvelope:
    """Machine control functions on physical time plus the time dilation.

    ``a_over_h(t)`` and ``b_over_h(t)`` are the transverse-field and problem
    envelopes in frequency units; the emulated evolution reaches effective
    time ``time_dilation * t_f`` after physical duration ``t_f`` seconds.
    """

    time_dilation: float
    t_f: float
    a_over_h: object
    b_over_h: object

    def __post_init__(self):
        _require_real("time_dilation", self.time_dilation)
        _require_real("t_f", self.t_f)

    @property
    def effective_time(self) -> float:
        return self.time_dilation * self.t_f


# ---------------------------------------------------------------------------
# Bit bookkeeping
# ---------------------------------------------------------------------------

def bit_table(n: int) -> np.ndarray:
    """(2^n, n) array of bits, qubit 0 in column 0 (most significant)."""
    idx = np.arange(2 ** n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def block_weights(n: int, dim: int) -> np.ndarray:
    """(2^n, dim) Hamming weights of each variable's qubit block; a
    ``dim`` that is not an integer >= 1 dividing n raises ``ValueError``."""
    if not (_is_integer(dim) and dim >= 1) or n % dim:
        raise ValueError(f"dim must be an integer >= 1 dividing n: {n} "
                         f"qubits do not split into {dim!r} variable blocks")
    b = n // dim
    bits = bit_table(n)
    return np.stack([bits[:, p * b:(p + 1) * b].sum(axis=1)
                     for p in range(dim)], axis=1)


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------

def hamming_isometry(r: int, d: int) -> np.ndarray:
    """Column-orthonormal map from grid basis |j_1...j_d> to the tensor
    product of Hamming states over d blocks of r qubits (dense, dr <= 14);
    an r or d that is not an integer >= 1 raises ``ValueError``."""
    _require_count("r", r)
    _require_count("d", d)
    n = d * r
    if n > DENSE_QUBITS_CAP:
        raise ResourceError(
            f"dense isometry for {n} qubits exceeds the cap of "
            f"{DENSE_QUBITS_CAP}")
    weights = bit_table(r).sum(axis=1)
    v1 = np.zeros((2 ** r, r + 1))
    for j in range(r + 1):
        col = (weights == j)
        v1[col, j] = 1.0 / np.sqrt(math.comb(r, j))
    out = v1
    for _ in range(d - 1):
        out = np.kron(out, v1)
    return out


def hamming_encode_qp(qp: QpInstance, r: int) -> IsingModel:
    """Ising coefficients whose Hamming-subspace restriction is the grid
    discretization of the QP objective: variable p owns qubits
    p*r..(p+1)*r-1, with

        h_j = -[(sum_q Q_{p,q}) + 2 b_p] / (4 r)
        J_{j,k} = Q_{p,q} / (4 r^2)
        offset = (1/8)(1 + 1/r) sum_p Q_{p,p}
                 + (1/4) sum_{p>q} Q_{p,q} + (1/2) sum_p b_p.

    An ``r`` that is not an integer >= 1 raises ``ValueError``.
    """
    _require_count("r", r)
    d = qp.dim
    Q = qp.Q.toarray()
    n = d * r
    row_sums = Q.sum(axis=1)
    h = np.zeros(n)
    for p in range(d):
        h[p * r:(p + 1) * r] = -(row_sums[p] + 2.0 * qp.b[p]) / (4.0 * r)
    J = {}
    for p in range(d):
        if Q[p, p] != 0.0:
            val = Q[p, p] / (4.0 * r * r)
            for j in range(p * r, (p + 1) * r):
                for k in range(p * r, j):
                    J[(j, k)] = val
        for q in range(p):
            if Q[p, q] != 0.0:
                val = Q[p, q] / (4.0 * r * r)
                for j in range(p * r, (p + 1) * r):
                    for k in range(q * r, (q + 1) * r):
                        J[(j, k)] = val
    offset = (0.125 * (1.0 + 1.0 / r) * np.trace(Q)
              + 0.25 * np.sum(np.tril(Q, -1))
              + 0.5 * qp.b.sum())
    return IsingModel(n=n, h=h, J=J, offset=float(offset))


def qp_to_qubo(qp: QpInstance, layout: PrecisionLayout) -> QuboModel:
    """Binary expansion x = P w of the QP objective, with the squares of
    binary variables absorbed into the linear terms."""
    if layout.dim != qp.dim:
        raise ValueError("layout and instance dimensions differ")
    p = layout.precision
    P = np.kron(np.eye(qp.dim), p[None, :])          # d x (d*b)
    M = P.T @ qp.Q.toarray() @ P
    linear = 0.5 * np.diag(M) + P.T @ qp.b
    # row-major, as a double loop over u < v would visit them
    rows, cols = np.nonzero(np.triu(M, 1))
    quad = dict(zip(zip(rows.tolist(), cols.tolist()),
                    M[rows, cols].tolist()))
    return QuboModel(n=layout.n, linear=linear, quadratic=quad, offset=0.0)


def qubo_to_ising(m: QuboModel) -> IsingModel:
    """Substitute x = (1 - z)/2 with offset bookkeeping."""
    h = -0.5 * m.linear.copy()
    offset = m.offset + 0.5 * m.linear.sum()
    J = {}
    for (u, v), q in m.quadratic.items():
        J[(v, u)] = q / 4.0
        h[u] -= q / 4.0
        h[v] -= q / 4.0
        offset += q / 4.0
    return IsingModel(n=m.n, h=h, J=J, offset=float(offset))


def ising_to_qubo(m: IsingModel) -> QuboModel:
    """Inverse substitution z = 1 - 2x; round-trips are exact."""
    quad = {}
    lin = -2.0 * m.h.copy()
    offset = m.offset + m.h.sum()
    for (j, k), J in m.J.items():
        quad[(k, j)] = 4.0 * J
        lin[j] -= 2.0 * J
        lin[k] -= 2.0 * J
        offset += J
    return QuboModel(n=m.n, linear=lin, quadratic=quad, offset=float(offset))


def qubo_ising_convert(m):
    """Convert between the two coefficient formats (either direction)."""
    if isinstance(m, QuboModel):
        return qubo_to_ising(m)
    if isinstance(m, IsingModel):
        return ising_to_qubo(m)
    raise TypeError("expected a QuboModel or IsingModel")


def decode_samples(bits, layout: PrecisionLayout) -> np.ndarray:
    """Map bitstrings to points in [0,1]^d, one variable per bit block.

    A bitstring of the wrong length or with a character other than 0 or 1
    raises ``ValueError`` naming it."""
    bits = list(bits)
    for s in bits:
        if len(s) != layout.n:
            raise ValueError(
                f"bitstring {s!r} has length {len(s)}, expected {layout.n}")
    # one uint32 code point per character, a row per bitstring
    digits = np.array(bits, dtype=f"U{layout.n}").view(np.uint32).reshape(
        len(bits), layout.dim, layout.bits_per_var) - ord("0")
    bad = np.flatnonzero((digits > 1).any(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"bitstring {bits[bad[0]]!r} has a character "
                         f"other than 0 and 1")
    return digits @ layout.precision


def _energy_table(n, spins, linear, pairs) -> np.ndarray:
    """Energies without offset of all 2^n assignments, the variables being
    the bits of ``bit_table(n)`` or, when ``spins``, the spins 1 - 2 bit."""
    if n > 20:
        raise ResourceError("energy table too large")
    bits = bit_table(n)
    s = 1.0 - 2.0 * bits if spins else bits.astype(float)
    e = s @ linear
    for (j, k), c in pairs:
        e += c * s[:, j] * s[:, k]
    return e


def ising_energies(model: IsingModel, include_offset: bool = True) -> np.ndarray:
    """Energies of all 2^n assignments (dense oracle, n <= 14 advised)."""
    e = _energy_table(model.n, True, model.h, model.J.items())
    return e + model.offset if include_offset else e


def qubo_energies(model: QuboModel, include_offset: bool = True) -> np.ndarray:
    e = _energy_table(model.n, False, model.linear, model.quadratic.items())
    return e + model.offset if include_offset else e


def verify_subspace_encoding(H_dense, V, H_target, tol: float) -> dict:
    """Invariance and restriction checks of a candidate subspace encoding.

    leakage = max |(I - V V^T) H V| measures how much the big operator maps
    the encoded subspace outside itself; mismatch = max |V^T H V - H_target|
    measures how far the restriction is from the target operator.
    """
    import scipy.sparse as sp
    H_dense = np.asarray(H_dense, dtype=float)
    V = np.asarray(V, dtype=float)
    H_target = (H_target.toarray() if sp.issparse(H_target)
                else np.asarray(H_target, dtype=float))
    HV = H_dense @ V
    leakage = float(np.max(np.abs(HV - V @ (V.T @ HV))))
    mismatch = float(np.max(np.abs(V.T @ HV - H_target)))
    return {"leakage": leakage, "mismatch": mismatch,
            "passed": bool(leakage <= tol and mismatch <= tol)}


# ---------------------------------------------------------------------------
# Time-energy rescaling
# ---------------------------------------------------------------------------

def schedule_envelope(sched: Schedule, r: int, lam: float,
                      t_f: float) -> AnnealEnvelope:
    """Machine envelopes of a descent schedule at time dilation ``lam``:
    A(t)/h = lam r^{3/2} kinetic(lam t), B(t)/h = 2 lam potential(lam t)."""
    kin, pot = sched.kinetic_coeff, sched.potential_coeff
    return AnnealEnvelope(
        time_dilation=lam, t_f=t_f,
        a_over_h=lambda t: lam * r ** 1.5 * kin(lam * t),
        b_over_h=lambda t: 2.0 * lam * pot(lam * t))


def anneal_rescale(sched: Schedule, r: int, machine) -> AnnealEnvelope:
    """Express a descent schedule as machine envelopes on physical time.

    ``machine`` is (A0_over_h, t_f): the transverse-field value at the start
    of the anneal in Hz and the physical duration in seconds. The time
    dilation is calibrated from the start of the schedule,
    lambda = (A(0)/h) / (r^{3/2} e^{phi_0}), and the envelopes are those of
    ``schedule_envelope`` at that lambda. A kinetic coefficient that is
    singular, non-finite or not positive at t = 0 raises ``DomainError``.
    """
    a0_over_h, t_f = machine
    try:
        e_phi0 = float(sched.kinetic_coeff(0.0))
    except ZeroDivisionError:
        raise DomainError("schedule kinetic coefficient is singular at "
                          "t = 0") from None
    if not (math.isfinite(e_phi0) and e_phi0 > 0):
        raise DomainError("schedule kinetic coefficient must be finite and "
                          f"positive at t = 0, got {e_phi0}")
    return schedule_envelope(sched, r, a0_over_h / (r ** 1.5 * e_phi0), t_f)


# ---------------------------------------------------------------------------
# Reference evolutions
# ---------------------------------------------------------------------------

def relaxed_qhd_evolve(qp: QpInstance, r: int, sched: Schedule, T: float,
                       dt: float, *, t0: float = 0.0, snapshot_times=(),
                       x_star=None, success_radius: float = 0.1,
                       observable_stride: int = 1) -> Trajectory:
    """Strang-split evolution of the relaxed grid dynamics

        i d/dt phi = [-(kin(t) r^2 / 2) A'_d + pot(t) F_d] phi

    from the per-axis binomial state by the Strang loop the Ising machine
    shares: exact per-axis matrix exponentials of the relaxed coupling,
    coefficients sampled at step midpoints. The r^2 factor restores the
    inverse squared cell width of the grid Laplacian; together with the
    1/sqrt(r) inside the relaxed coupling it is what the transverse-field
    envelope's r^{3/2} realizes on the machine side.

    Records E[f], success probability (when ``x_star`` is given) and the
    norm at every ``observable_stride`` steps and at T; full states at
    ``snapshot_times`` and at T.
    """
    mesh = Mesh(qp.dim, r, DIRICHLET)
    if mesh.size > RELAXED_GRID_CAP:
        raise ResourceError(f"grid of {mesh.size} nodes exceeds the cap")
    fvals = discretize_objective(mesh, qp_objective(qp)).values.reshape(
        mesh.shape)
    smask = (success_mask(mesh, x_star, success_radius).reshape(mesh.shape)
             if x_star is not None else None)
    rec = _Recorder(t0, T, dt, fvals, smask, snapshot_times=snapshot_times,
                    stride=observable_stride, mesh=mesh)
    kin, pot = sched.kinetic_coeff, sched.potential_coeff
    return rec.finish(_strang_evolve(
        fvals, r, lambda t: kin(t) * r ** 2 / 2.0, pot, rec))


def simulate_ising_dense(model: IsingModel, env, t_f: float, dt: float, *,
                         n_vars: int = 1):
    """Dense state-vector evolution of the transverse-field Ising machine

        H(t)/h = -(A(t)/2h) sum_j sigma_x^(j) + (B(t)/2h) (h.z + J.zz)

    from the uniform superposition: the relaxed grid loop at r = 1 on the
    (2,)*n grid, where ``relaxed_adjacency(1, 1)`` is sigma_x. The
    programmable part carries no constant offset; relative to an encoded
    reference evolution that difference is a global phase and leaves all
    probabilities unchanged. An ``n_vars`` not dividing n or an envelope
    of another ``t_f`` raises ``ValueError`` before any step, a norm drift
    beyond 1e-8 at one of about 50 checks ``StabilityError``.

    Returns (final_state, marginals) where marginals[k][j] is the
    probability of block-k Hamming weight j.
    """
    n = model.n
    if n > DENSE_QUBITS_CAP:
        raise ResourceError(f"{n} qubits exceed the dense cap")
    weights = block_weights(n, n_vars)   # rejects a bad n_vars up front
    if isinstance(env, AnnealEnvelope):
        if env.t_f != t_f:
            raise ValueError(f"t_f = {t_f!r} but env.t_f = {env.t_f!r}")
        a_fn, b_fn = env.a_over_h, env.b_over_h
    else:
        a_fn, b_fn = env
    diag = ising_energies(model, include_offset=False).reshape((2,) * n)

    rec = _Recorder(0.0, t_f, dt, diag,
                    stride=max(1, _step_count(0.0, t_f, dt) // 50))
    psi = _strang_evolve(diag, 1, lambda t: a_fn(t) / 2.0,
                         lambda t: b_fn(t) / 2.0, rec)
    drift = max(abs(nrm - 1.0) for nrm in rec.norms)
    if drift > 1e-8:
        raise StabilityError(f"norm drift {drift:.2e}")
    flat = psi.reshape(-1)
    prob = _density(flat)
    return flat, [np.bincount(w, weights=prob, minlength=n // n_vars + 1)
                  for w in weights.T]


# ---------------------------------------------------------------------------
# Coefficient file format
# ---------------------------------------------------------------------------

def format_model(model, layout: PrecisionLayout = None) -> str:
    """Bit-exact text serialization: a header line, an optional layout
    comment, then one `<i> <j> <coeff>` line per term with i = j for linear
    terms and i < j for quadratic ones; shortest round-trip decimals."""
    lines = []
    if isinstance(model, QuboModel):
        lines.append(f"# qubo n={model.n} offset={float(model.offset)!r}")
        lin = model.linear
        quad = {(u, v): q for (u, v), q in model.quadratic.items()}
    elif isinstance(model, IsingModel):
        lines.append(f"# ising n={model.n} offset={float(model.offset)!r}")
        lin = model.h
        quad = {(k, j): v for (j, k), v in model.J.items()}
    else:
        raise TypeError("expected a QuboModel or IsingModel")
    if layout is not None:
        lines.append(f"# layout encoding={layout.encoding} vars={layout.dim} "
                     f"bits={layout.bits_per_var}")
    for i, v in enumerate(lin):
        if v != 0.0:
            lines.append(f"{i} {i} {float(v)!r}")
    for (u, v) in sorted(quad):
        lines.append(f"{u} {v} {float(quad[(u, v)])!r}")
    return "\n".join(lines) + "\n"


def parse_model(text: str):
    """Inverse of format_model; returns (model, layout_or_None).

    A term line before the header, a second header, an unknown layout
    encoding, an index outside [0, n) or a repeated term raises
    ``ValueError`` naming the line, as does a layout not of n bits."""
    kind = None
    n = None
    offset = 0.0
    layout = None
    lin = None
    quad = {}
    seen = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if fields and fields[0] in ("qubo", "ising"):
                if kind is not None:
                    raise ValueError(f"second model header {line!r}")
                kind = fields[0]
                kv = dict(f.split("=", 1) for f in fields[1:])
                n = int(kv["n"])
                offset = float(kv.get("offset", "0.0"))
                lin = np.zeros(n)
            elif fields and fields[0] == "layout":
                kv = dict(f.split("=", 1) for f in fields[1:])
                build = {"hamming": PrecisionLayout.hamming,
                         "radix2": PrecisionLayout.radix2}.get(kv["encoding"])
                if build is None:
                    raise ValueError(f"unknown layout encoding in {line!r}")
                layout = build(int(kv["vars"]), int(kv["bits"]))
            continue
        if kind is None:
            raise ValueError(f"term line {line!r} before the model header")
        i_s, j_s, v_s = line.split()
        i, j, v = int(i_s), int(j_s), float(v_s)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"term line {line!r}: index outside [0, {n})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"term line {line!r}: duplicate term {key}")
        seen.add(key)
        if i == j:
            lin[i] = v
        else:
            quad[key] = v
    if kind is None:
        raise ValueError("missing model header line")
    if layout is not None and layout.n != n:
        raise ValueError(f"layout of {layout.n} bits does not match n={n}")
    if kind == "qubo":
        return QuboModel(n=n, linear=lin, quadratic=quad, offset=offset), layout
    J = {(v, u): val for (u, v), val in quad.items()}
    return IsingModel(n=n, h=lin, J=J, offset=offset), layout
