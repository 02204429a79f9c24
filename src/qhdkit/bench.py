"""Benchmark harness: random QP generation, brute-force grid oracles, local
refinement, the time-to-solution metric, the fault-tolerant T-count
estimator, and the experiment runner that stitches the other modules into
reproducible runs."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .classical import _nagd_iterates, _sgd_iterates
from .dynamics import _step_count, make_schedule
from .errors import ResourceError
from .ising import anneal_rescale, relaxed_qhd_evolve
from .mesh import (DIRICHLET, Mesh, _is_integer, _require_count,
                   sample_positions)
from .objectives import QpInstance, qp_eval_grad, qp_objective

#: two objective values count as the same solution within this gap
SUCCESS_GAP = 0.01

#: most nodes a brute-force (r+1)^d oracle grid may hold
ORACLE_GRID_CAP = 10 ** 7

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
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        cfg = ExperimentConfig(**doc)
        _check("config", "trials", cfg.trials)
        return cfg


def generate_qp(d: int, s: int, seed: int) -> QpInstance:
    """Random sparse symmetric QP: Hessian and linear entries uniform on
    [-1, 1], at most ``s`` nonzeros per row/column, deterministic per seed.

    The always-present diagonal entry counts toward the per-row budget, so
    rows carry at most s - 1 off-diagonal partners.
    """
    _require_count("d", d)
    _require_count("s", s)
    if s > d:
        raise ValueError("sparsity must satisfy 1 <= s <= d")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rng.shuffle(pairs)
    degree = np.zeros(d, dtype=int)
    chosen = []
    for i, j in pairs:
        if degree[i] < s - 1 and degree[j] < s - 1:
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
    import scipy.sparse as sp
    Q = sp.csr_matrix((vals, (rows, cols)), shape=(d, d))
    b = rng.uniform(-1.0, 1.0, size=d)
    return QpInstance(d, Q, b)


def _oracle_grid(dim: int, r: int) -> Mesh:
    """The (r+1)^dim node grid of the brute-force oracles; more than
    ``ORACLE_GRID_CAP`` nodes raise ``ResourceError`` before it is built."""
    grid = Mesh(dim, r, DIRICHLET)
    if grid.size > ORACLE_GRID_CAP:
        raise ResourceError(f"oracle grid of {grid.size} nodes exceeds the "
                            f"cap of {ORACLE_GRID_CAP}")
    return grid


def grid_bruteforce_min(qp: QpInstance, r: int):
    """Exhaustive minimum over the (r+1)^d grid; ties break toward the
    lexicographically first multi-index. More than ``ORACLE_GRID_CAP``
    nodes raise ``ResourceError``."""
    pts = _oracle_grid(qp.dim, r).node_coords()
    vals = qp_eval_grad(qp, pts)[0]
    idx = int(np.argmin(vals))
    return pts[idx], float(vals[idx])


def local_refine(qp: QpInstance, x0, tol: float = 1e-8,
                 max_iter: int = 500) -> np.ndarray:
    """Projected gradient descent with backtracking; never increases f and
    stops once the projected-gradient norm falls below ``tol``.

    ``x0`` is one start of shape (d,) or a batch of shape (n, d); the result
    has the same shape. Each row keeps its own step, iteration count and
    stopping state, and follows exactly the arithmetic of refining it alone:
    every pass evaluates one candidate for each row still running.
    ``max_iter`` must be an integer >= 0 and ``tol`` finite and >= 0, else
    ``ValueError`` before any evaluation.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2):
        raise ValueError(f"starts must be (d,) or (n, d), got shape "
                         f"{x0.shape}")
    _require_count("max_iter", max_iter, 0)
    if not (_is_finite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    x = np.clip(np.atleast_2d(x0), 0.0, 1.0)
    fx, g = qp_eval_grad(qp, x)
    step = np.ones(len(x))
    iters = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    while True:
        # a row in mid-backtrack still holds the x and g its iteration
        # started from, so repeating the start-of-iteration test on it
        # cannot stop it
        xl, gl = x[live], g[live]
        pg = xl - np.clip(xl - gl, 0.0, 1.0)
        stop = ((iters[live] >= max_iter)
                | (np.sqrt(np.vecdot(pg, pg)) <= tol)
                | (step[live] <= 1e-14))
        live = live[~stop]
        if not live.size:
            return x if x0.ndim == 2 else x[0]
        xl, gl, sl = xl[~stop], gl[~stop], step[live]
        cand = np.clip(xl - sl[:, None] * gl, 0.0, 1.0)
        f_cand, g_cand = qp_eval_grad(qp, cand)
        ok = f_cand <= fx[live] - 1e-4 * np.vecdot(gl, xl - cand)
        moved = live[ok]
        x[moved], fx[moved], g[moved] = cand[ok], f_cand[ok], g_cand[ok]
        iters[moved] += 1
        step[live] = np.where(ok, np.minimum(sl * 2.0, 1.0), sl * 0.5)


def multistart_refine(qp: QpInstance, r: int, n_starts: int = 64):
    """Ground-truth helper: exhaustive grid minimum polished by refinement
    from the ``n_starts`` best grid points; ties go to the better-ranked
    start. More than ``ORACLE_GRID_CAP`` grid nodes raise
    ``ResourceError``."""
    _require_count("n_starts", n_starts)
    pts = _oracle_grid(qp.dim, r).node_coords()
    vals = qp_eval_grad(qp, pts)[0]
    order = np.argsort(vals, kind="stable")[:n_starts]
    x = local_refine(qp, pts[order])
    f = qp_eval_grad(qp, x)[0]
    best = int(np.argmin(f))
    return x[best], float(f[best])


def success(f_found: float, f_star: float) -> bool:
    """A solution counts as global when |f_found - f_star| <= SUCCESS_GAP,
    boundary inclusive; a small absolute guard keeps decimal boundary cases
    (whose difference is not exactly representable) on the inclusive side.
    An array of ``f_found`` gives the mask, element by element."""
    return abs(f_found - f_star) <= SUCCESS_GAP + 1e-12 * (1.0 + abs(f_star))


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
    constants. A d, s or R that is not an integer >= 1 raises
    ``ValueError``."""
    for name, count in (("d", d), ("s", s), ("R", R)):
        _require_count(name, count)
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


def _is_finite(v):
    return ((_is_integer(v) or isinstance(v, (float, np.floating)))
            and math.isfinite(v))


#: key -> (what its value must be, test of the value), for every solver key
#: and run-level field; sparsity also depends on dim and is checked apart
_KEY_RULES = {
    **{key: ("an integer >= 1", lambda v: _is_integer(v) and v >= 1)
       for key in ("resolution", "steps", "dim", "n_instances", "trials",
                   "truth_resolution")},
    **{key: ("finite and > 0", lambda v: _is_finite(v) and v > 0)
       for key in ("T", "dt", "stepsize", "t_f")},
    "noise_sigma": ("finite and >= 0", lambda v: _is_finite(v) and v >= 0),
    "refine": ("a bool", lambda v: isinstance(v, bool)),
    "master_seed": ("an integer >= 0", lambda v: _is_integer(v) and v >= 0),
    "solvers": ("a non-empty list of dicts", lambda v: isinstance(v, list)
                and v != [] and all(isinstance(s, dict) for s in v)),
}


def _check(where, key, val):
    what, ok = _KEY_RULES[key]
    if not ok(val):
        raise ValueError(f"{where} {key!r} must be {what}, got {val!r}")


def _uniform_grid(opts, qp, trials, rng):
    r = int(opts["resolution"])
    edge = np.arange(r + 1) / r
    return (edge[rng.integers(0, r + 1, size=(trials, qp.dim))],
            float(opts["t_f"]))


def _relaxed_qhd(opts, qp, trials, rng):
    r, T, dt = int(opts["resolution"]), float(opts["T"]), float(opts["dt"])
    sched = make_schedule("nesterov_nonconvex", stepsize=opts["stepsize"])
    # only the final state is read: take the observables at the last step
    final = relaxed_qhd_evolve(qp, r, sched, T, dt, observable_stride=max(
        1, _step_count(0.0, T, dt))).final_state
    points = sample_positions(final, trials, int(rng.integers(2 ** 31)))
    env = anneal_rescale(sched, r, (MACHINE_A0_OVER_H, 1.0))
    return points, T / env.time_dilation


def _nagd(opts, qp, trials, rng):
    steps, s_lr = int(opts["steps"]), float(opts["stepsize"])
    x0 = rng.uniform(0.0, 1.0, size=(trials, qp.dim))
    pts = _nagd_iterates(qp_objective(qp), x0, s_lr, steps)
    return pts[:, -1], steps * s_lr


def _sgd(opts, qp, trials, rng):
    steps, s_lr = int(opts["steps"]), float(opts["stepsize"])
    # each trial's start, then its seed, drawn in turn
    x0, seeds = zip(*[(rng.uniform(0.0, 1.0, size=qp.dim),
                       int(rng.integers(2 ** 31))) for _ in range(trials)])
    pts = _sgd_iterates(qp_objective(qp), np.array(x0), s_lr, steps,
                        noise_sigma=float(opts["noise_sigma"]), seed=seeds)
    return pts[:, -1], steps * s_lr


#: solver name -> (draw, defaults): ``draw(opts, qp, trials, rng)`` returns
#: the trials' final points (None: every trial succeeds) and the per-trial
#: time t_f; ``defaults`` are the keys it reads besides "name" and "refine"
_SOLVERS = {
    "exact_oracle": (lambda opts, qp, trials, rng: (None, float(opts["t_f"])),
                     {"t_f": 1.0}),
    "uniform_grid": (_uniform_grid, {"resolution": 8, "t_f": 1e-6}),
    "relaxed_qhd": (_relaxed_qhd, {"resolution": 4, "T": 10.0, "dt": 1e-2,
                                   "stepsize": 1e-3}),
    "nagd": (_nagd, {"steps": 1000, "stepsize": 1e-3}),
    "sgd": (_sgd, {"steps": 1000, "stepsize": 1e-3, "noise_sigma": 1.0}),
}


def _solver_trials(solver, qp, f_star, trials, seed):
    """Run one solver on one instance; returns (p_s, t_f_seconds)."""
    draw, defaults = _SOLVERS[solver["name"]]
    opts = {"refine": False, **defaults, **solver}
    points, t_f = draw(opts, qp, trials, np.random.default_rng(seed))
    if points is None:
        return 1.0, t_f
    if opts["refine"]:
        points = local_refine(qp, points)
    hits = np.count_nonzero(success(qp_eval_grad(qp, points)[0], f_star))
    return hits / len(points), t_f


def run_experiment(config: ExperimentConfig, out_dir) -> list:
    """Generate instances, establish ground truth, run every configured
    solver, and write ``tts_summary.csv`` plus ``run_meta.json``.

    All randomness flows from the master seed, so repeated runs produce
    byte-identical CSV output; wall-clock timings are reported only in the
    metadata file. A run-level field out of its range, an unknown solver
    name or key, or a solver value out of its key's range raises
    ``ValueError`` before any compute, and a ground-truth grid of more than
    ``ORACLE_GRID_CAP`` nodes ``ResourceError``; later solver failures are
    recorded and the run continues.
    Returns one TtsReport per successful (instance, solver).
    """
    import pathlib

    for f in fields(config):
        if f.name in _KEY_RULES:
            _check("config", f.name, getattr(config, f.name))
    s = config.sparsity
    if not (_is_integer(s) and 1 <= s <= config.dim):
        raise ValueError(f"config 'sparsity' must be an integer in "
                         f"[1, dim={config.dim}], got {s!r}")
    _oracle_grid(config.dim, config.truth_resolution)
    for solver in config.solvers:
        name = solver.get("name")
        if name not in _SOLVERS:
            raise ValueError(f"unknown solver {name!r}")
        unknown = set(solver) - set(_SOLVERS[name][1]) - {"name", "refine"}
        if unknown:
            raise ValueError(f"solver {name!r}: unknown keys "
                             f"{sorted(unknown)}")
        for key in sorted(set(solver) & set(_KEY_RULES)):
            _check(f"solver {name!r}:", key, solver[key])
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(config.master_seed).generate_state(
        2 * config.n_instances + 2)
    lines = ["instance,solver,tf_seconds,ps,tts_seconds"]
    reports, errors = [], []
    t_wall = time.time()
    for i in range(config.n_instances):
        qp = generate_qp(config.dim, config.sparsity, int(seeds[i]))
        _, f_star = multistart_refine(qp, config.truth_resolution)
        for k, solver in enumerate(config.solvers):
            name = solver["name"]
            try:
                p_s, t_f = _solver_trials(
                    solver, qp, f_star, config.trials,
                    int(seeds[config.n_instances + i]) + 7919 * k)
                rep = TtsReport(solver=name, t_f=t_f, p_s=p_s,
                                tts_seconds=tts(t_f, p_s),
                                trials=config.trials)
            except Exception as exc:   # noqa: BLE001 - recorded, run continues
                errors.append({"instance": i, "solver": name,
                               "error": str(exc)})
                lines.append(f"{i},{name},nan,nan,nan")
                continue
            reports.append(rep)
            lines.append(f"{i},{name},{float(t_f)!r},{float(p_s)!r},"
                         f"{float(rep.tts_seconds)!r}")
    (out / "tts_summary.csv").write_bytes(
        ("\n".join(lines) + "\n").encode())

    meta = {"config": asdict(config), "errors": errors,
            "wall_clock_seconds": time.time() - t_wall}
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2,
                                                  sort_keys=True))
    if errors:
        raise RuntimeError(f"{len(errors)} solver runs failed; see run_meta")
    return reports
