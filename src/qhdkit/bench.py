"""Benchmark harness: random QP generation, brute-force grid oracles, local
refinement, the time-to-solution metric, the fault-tolerant T-count
estimator, and the experiment runner that stitches the other modules into
reproducible runs."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .classical import nagd_run, sgd_run
from .dynamics import make_schedule
from .errors import ResourceError
from .ising import anneal_rescale, relaxed_qhd_evolve
from .mesh import DIRICHLET, Mesh, sample_positions
from .objectives import QpInstance, qp_eval_grad, qp_objective

#: two objective values count as the same solution within this gap
SUCCESS_GAP = 0.01

#: target confidence of the time-to-solution metric
TTS_CONFIDENCE = 0.99

#: T-counts of the floating-point adder, multiplier, and approximate Fourier
#: transform per register width
TCOUNT_SUBROUTINES = {
    3: (587, 173, 170),
    16: (4704, 6328, 1162),
    32: (11144, 26642, 2698),
}


@dataclass(frozen=True)
class TtsReport:
    """Per-solver outcome of one benchmark instance."""

    solver: str
    t_f: float
    p_s: float
    tts_seconds: float
    trials: int


@dataclass
class ExperimentConfig:
    """Declarative description of a benchmark run."""

    dim: int = 5
    sparsity: int = 5
    n_instances: int = 10
    trials: int = 1000
    master_seed: int = 0
    truth_resolution: int = 8
    solvers: list = field(default_factory=lambda: [
        {"name": "relaxed_qhd", "resolution": 4, "T": 10.0, "dt": 1e-2,
         "refine": True},
        {"name": "uniform_grid", "resolution": 4, "refine": True},
    ])

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        cfg = ExperimentConfig()
        for key, val in doc.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, val)
        if cfg.trials < 1:
            raise ValueError("trial count must be >= 1")
        return cfg


def generate_qp(d: int, s: int, seed: int, *, count_diagonal: bool = True,
                max_attempts: int = 50) -> QpInstance:
    """Random sparse symmetric QP: Hessian and linear entries uniform on
    [-1, 1], at most ``s`` nonzeros per row/column, deterministic per seed.

    With ``count_diagonal`` (default) the always-present diagonal entry
    counts toward the per-row budget, so rows carry at most s - 1
    off-diagonal partners; otherwise the budget covers off-diagonal
    structure only.
    """
    if not (1 <= s <= d):
        raise ValueError("sparsity must satisfy 1 <= s <= d")
    rng = np.random.default_rng(seed)
    cap = s - 1 if count_diagonal else s
    for _ in range(max_attempts):
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        rng.shuffle(pairs)
        degree = np.zeros(d, dtype=int)
        chosen = []
        for i, j in pairs:
            if degree[i] < cap and degree[j] < cap:
                chosen.append((i, j))
                degree[i] += 1
                degree[j] += 1
        rows, cols, vals = [], [], []
        for i in range(d):
            rows.append(i)
            cols.append(i)
            vals.append(rng.uniform(-1.0, 1.0))
        for i, j in sorted(chosen):
            v = rng.uniform(-1.0, 1.0)
            rows.extend([i, j])
            cols.extend([j, i])
            vals.extend([v, v])
        Q = sp.csr_matrix((vals, (rows, cols)), shape=(d, d))
        counts = np.diff(Q.indptr)
        if np.all(counts <= (s if count_diagonal else s + 1)):
            b = rng.uniform(-1.0, 1.0, size=d)
            return QpInstance(d, Q, b)
    raise ValueError("could not realize the sparsity pattern")


def grid_bruteforce_min(qp: QpInstance, r: int):
    """Exhaustive minimum over the (r+1)^d grid; ties break toward the
    lexicographically first multi-index."""
    grid = Mesh(qp.dim, r, DIRICHLET)
    if grid.size > 10 ** 7:
        raise ResourceError(f"grid of {grid.size} nodes exceeds the cap")
    pts = grid.node_coords()
    vals = qp_objective(qp)(pts)
    idx = int(np.argmin(vals))
    return pts[idx], float(vals[idx])


def local_refine(qp: QpInstance, x0, tol: float = 1e-8,
                 max_iter: int = 500) -> np.ndarray:
    """Projected gradient descent with backtracking; never increases f and
    stops once the projected-gradient norm falls below ``tol``."""
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    fx, g = qp_eval_grad(qp, x)
    step = 1.0
    for _ in range(max_iter):
        pg = x - np.clip(x - g, 0.0, 1.0)
        if np.linalg.norm(pg) <= tol:
            break
        while step > 1e-14:
            cand = np.clip(x - step * g, 0.0, 1.0)
            f_cand, g_cand = qp_eval_grad(qp, cand)
            if f_cand <= fx - 1e-4 * float(g @ (x - cand)):
                x, fx, g = cand, f_cand, g_cand
                step = min(step * 2.0, 1.0)
                break
            step *= 0.5
        else:
            break
    return x


def multistart_refine(qp: QpInstance, r: int, n_starts: int = 64):
    """Ground-truth helper: exhaustive grid minimum polished by refinement
    from the best grid points."""
    pts = Mesh(qp.dim, r, DIRICHLET).node_coords()
    vals = qp_objective(qp)(pts)
    order = np.argsort(vals, kind="stable")[:n_starts]
    best_x, best_f = None, np.inf
    for idx in order:
        x = local_refine(qp, pts[idx])
        f = qp_eval_grad(qp, x)[0]
        if f < best_f:
            best_x, best_f = x, f
    return best_x, float(best_f)


def success(f_found: float, f_star: float, gap: float = SUCCESS_GAP) -> bool:
    """A solution counts as global when |f_found - f_star| <= gap, boundary
    inclusive; a small absolute guard keeps decimal boundary cases (whose
    difference is not exactly representable) on the inclusive side."""
    return abs(f_found - f_star) <= gap + 1e-12 * (1.0 + abs(f_star))


def tts(t_f: float, p_s: float) -> float:
    """Expected time to hit the global solution with 99% confidence:
    t_f * ceil(ln(1 - 0.99) / ln(1 - p_s)); infinity when p_s = 0 and
    exactly t_f once p_s reaches the confidence level."""
    if t_f <= 0:
        raise ValueError("per-trial time must be positive")
    if not (0.0 <= p_s <= 1.0):
        raise ValueError("success probability must lie in [0, 1]")
    if p_s == 0.0:
        return math.inf
    if p_s >= TTS_CONFIDENCE:
        return t_f
    return t_f * math.ceil(math.log(1.0 - TTS_CONFIDENCE)
                           / math.log(1.0 - p_s))


def tcount(d: int, s: int, R: int, q: int) -> int:
    """Fault-tolerant T-gate count of the digital product-formula realization
    for a sparsity-s quadratic objective in dimension d over R iterations:
    2 ((c_add + c_mult)(s + 2) + c_aqft) d R with per-width subroutine
    constants."""
    if q not in TCOUNT_SUBROUTINES:
        raise ValueError(
            f"unsupported register width {q}; known: "
            f"{sorted(TCOUNT_SUBROUTINES)}")
    c_add, c_mult, c_aqft = TCOUNT_SUBROUTINES[q]
    return 2 * ((c_add + c_mult) * (s + 2) + c_aqft) * d * R


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

#: machine preset used to translate effective evolution time into physical
#: seconds for simulated annealer solvers
MACHINE_A0_OVER_H = 9.63e9


#: keys each solver reads besides "name" and "refine"
_SOLVER_KEYS = {"exact_oracle": {"t_f"}, "uniform_grid": {"resolution", "t_f"},
                "relaxed_qhd": {"resolution", "T", "dt", "stepsize"},
                "nagd": {"steps", "stepsize"},
                "sgd": {"steps", "stepsize", "noise_sigma"}}


def _is_integer(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_finite(v):
    return ((_is_integer(v) or isinstance(v, (float, np.floating)))
            and math.isfinite(v))


#: key -> (what its value must be, test of the value), for every solver
_KEY_RULES = {
    "resolution": ("an integer >= 1", lambda v: _is_integer(v) and v >= 1),
    "steps": ("an integer >= 1", lambda v: _is_integer(v) and v >= 1),
    **{key: ("finite and > 0", lambda v: _is_finite(v) and v > 0)
       for key in ("T", "dt", "stepsize", "t_f")},
    "noise_sigma": ("finite and >= 0", lambda v: _is_finite(v) and v >= 0),
}


def _solver_trials(solver, qp, f_star, trials, seed):
    """Run one solver on one instance; returns (p_s, t_f_seconds)."""
    name = solver["name"]
    rng = np.random.default_rng(seed)
    refine = bool(solver.get("refine", False))

    if name == "exact_oracle":
        return 1.0, float(solver.get("t_f", 1.0))

    if name == "uniform_grid":
        r = int(solver.get("resolution", 8))
        edge = np.arange(r + 1) / r
        idx = rng.integers(0, r + 1, size=(trials, qp.dim))
        points = edge[idx]
        t_f = float(solver.get("t_f", 1e-6))
    elif name == "relaxed_qhd":
        r = int(solver.get("resolution", 4))
        T = float(solver.get("T", 10.0))
        dt = float(solver.get("dt", 1e-2))
        sched = make_schedule("nesterov_nonconvex",
                              stepsize=solver.get("stepsize", 1e-3))
        traj = relaxed_qhd_evolve(qp, r, sched, T, dt)
        final = traj.final_state
        points = sample_positions(final, trials, int(rng.integers(2 ** 31)))
        env = anneal_rescale(sched, r, (MACHINE_A0_OVER_H, 1.0))
        t_f = T / env.time_dilation
    elif name in ("nagd", "sgd"):
        fobj = qp_objective(qp)
        steps = int(solver.get("steps", 1000))
        s_lr = float(solver.get("stepsize", 1e-3))
        if name == "nagd":
            x0 = rng.uniform(0.0, 1.0, size=(trials, qp.dim))
            tr = nagd_run(fobj, x0, s_lr, steps)
        else:
            # each trial's start, then its seed, drawn in turn
            x0, seeds = zip(*[(rng.uniform(0.0, 1.0, size=qp.dim),
                               int(rng.integers(2 ** 31)))
                              for _ in range(trials)])
            tr = sgd_run(fobj, np.array(x0), s_lr, steps,
                         noise_sigma=float(solver.get("noise_sigma", 1.0)),
                         seed=seeds)
        points = tr.points[:, -1]
        t_f = steps * s_lr

    hits = 0
    for x in points:
        if refine:
            x = local_refine(qp, x)
        if success(qp_eval_grad(qp, x)[0], f_star):
            hits += 1
    return hits / len(points), t_f


def run_experiment(config: ExperimentConfig, out_dir) -> list:
    """Generate instances, establish ground truth, run every configured
    solver, and write ``tts_summary.csv`` plus ``run_meta.json``.

    All randomness flows from the master seed, so repeated runs produce
    byte-identical CSV output; wall-clock timings are reported only in the
    metadata file. An unknown solver name or key, or a value out of its
    key's range, raises ``ValueError`` before any compute; later solver
    failures are recorded and the run continues.
    Returns one TtsReport per successful (instance, solver).
    """
    import pathlib

    for solver in config.solvers:
        name = solver.get("name")
        if name not in _SOLVER_KEYS:
            raise ValueError(f"unknown solver {name!r}")
        unknown = set(solver) - _SOLVER_KEYS[name] - {"name", "refine"}
        if unknown:
            raise ValueError(f"solver {name!r}: unknown keys "
                             f"{sorted(unknown)}")
        for key in sorted(set(solver) & set(_KEY_RULES)):
            what, ok = _KEY_RULES[key]
            if not ok(solver[key]):
                raise ValueError(f"solver {name!r}: {key!r} must be {what}, "
                                 f"got {solver[key]!r}")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(config.master_seed).generate_state(
        2 * config.n_instances + 2)
    reports, errors = [], []
    t_wall = time.time()
    for i in range(config.n_instances):
        qp = generate_qp(config.dim, config.sparsity, int(seeds[i]))
        _, f_star = multistart_refine(qp, config.truth_resolution)
        for k, solver in enumerate(config.solvers):
            try:
                p_s, t_f = _solver_trials(
                    solver, qp, f_star, config.trials,
                    int(seeds[config.n_instances + i]) + 7919 * k)
                reports.append(TtsReport(
                    solver=solver["name"], t_f=t_f, p_s=p_s,
                    tts_seconds=tts(t_f, p_s), trials=config.trials))
            except Exception as exc:   # noqa: BLE001 - recorded, run continues
                errors.append({"instance": i, "solver": solver["name"],
                               "error": str(exc)})
                reports.append(None)

    lines = ["instance,solver,tf_seconds,ps,tts_seconds"]
    n_solvers = len(config.solvers)
    for i in range(config.n_instances):
        for k in range(n_solvers):
            rep = reports[i * n_solvers + k]
            if rep is None:
                lines.append(f"{i},{config.solvers[k]['name']},nan,nan,nan")
            else:
                lines.append(f"{i},{rep.solver},{float(rep.t_f)!r},"
                             f"{float(rep.p_s)!r},{float(rep.tts_seconds)!r}")
    (out / "tts_summary.csv").write_bytes(
        ("\n".join(lines) + "\n").encode())

    meta = {
        "config": {
            "dim": config.dim, "sparsity": config.sparsity,
            "n_instances": config.n_instances, "trials": config.trials,
            "master_seed": config.master_seed,
            "truth_resolution": config.truth_resolution,
            "solvers": config.solvers,
        },
        "errors": errors,
        "wall_clock_seconds": time.time() - t_wall,
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2,
                                                  sort_keys=True))
    if errors:
        raise RuntimeError(f"{len(errors)} solver runs failed; see run_meta")
    return [r for r in reports if r is not None]
