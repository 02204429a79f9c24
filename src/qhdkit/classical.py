"""Classical gradient baselines: accelerated gradient descent with Nesterov
momentum, stochastic gradient descent, and ensemble statistics over random
initializations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .mesh import _is_integer, within_radius


@dataclass(frozen=True)
class IterateTrace:
    """Iterates of one optimization run, or of a batch with the run first.

    ``points[..., k, :]`` is the k-th iterate (k = 0 is the initial point),
    ``effective_times[k] = k * stepsize`` makes runs comparable with
    continuous-time evolutions, and ``values[..., k] = f(points[..., k, :])``.
    """

    points: np.ndarray
    effective_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if (self.points.shape[:-1] != np.shape(self.values)
                or self.points.shape[-2] != len(self.effective_times)):
            raise ValueError("trace arrays must have matching shapes")


def _project(x, project):
    return np.clip(x, 0.0, 1.0) if project else x


def _check_gradient(g, k):
    if not np.all(np.isfinite(g)):
        raise EvaluationError(f"non-finite gradient at step {k}", index=k)


def _start(x0, s, steps):
    """Checked ``(runs, d)`` copy of the start, the ``(runs, steps+1, d)``
    iterate array with it in row 0, and whether it was one ``(d,)`` point."""
    if not s > 0:
        raise ValueError("stepsize must be positive")
    if not (_is_integer(steps) and steps >= 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    x = np.array(x0, dtype=float, ndmin=2)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("x0 must be one (d,) point or a (runs, d) batch "
                         f"of at least one run, got shape {np.shape(x0)}")
    pts = np.empty((len(x), steps + 1, x.shape[1]))
    pts[:, 0] = x
    return x, pts, np.ndim(x0) == 1


def _trace(f, pts, s, single):
    values = np.asarray(f(pts.reshape(-1, pts.shape[2])), dtype=float)
    values = values.reshape(pts.shape[:2])
    if single:
        pts, values = pts[0], values[0]
    return IterateTrace(pts, s * np.arange(pts.shape[-2]), values)


def nagd_run(f, x0, s: float, steps: int, project: bool = True) -> IterateTrace:
    """Accelerated gradient descent with momentum weight (k-1)/(k+2):

        x_k = y_{k-1} - s * grad f(y_{k-1})
        y_k = x_k + (k-1)/(k+2) * (x_k - x_{k-1})

    with x_0 = y_0. Iterates are projected onto [0,1]^d after each update;
    the momentum point y may leave the box, the gradient is evaluated there.
    A ``(runs, d)`` ``x0`` steps every run at once (see ``IterateTrace``).
    """
    x, pts, single = _start(x0, s, steps)
    y = x
    for k in range(1, steps + 1):
        g = f.grad(y)
        _check_gradient(g, k)
        x_new = _project(y - s * g, project)
        y = x_new + (k - 1.0) / (k + 2.0) * (x_new - x)
        x = x_new
        pts[:, k] = x
    return _trace(f, pts, s, single)


def sgd_run(f, x0, s: float, steps: int, noise_sigma: float = 1.0,
            seed=0, project: bool = True) -> IterateTrace:
    """Gradient descent with independent N(0, noise_sigma^2) perturbation on
    every gradient component; deterministic per seed. ``noise_sigma = 0``
    reproduces plain gradient descent bit for bit. A ``(runs, d)`` ``x0``
    takes one seed per run, and run i matches a one-run call with seed[i]."""
    x, pts, single = _start(x0, s, steps)
    if not noise_sigma >= 0:
        raise ValueError("noise_sigma must be non-negative")
    seeds = np.atleast_1d(seed)
    if len(seeds) != len(x):
        raise ValueError(f"{len(x)} runs need one seed each, "
                         f"got {len(seeds)}")
    if noise_sigma > 0:
        # each run's (steps, d) noise block is drawn into the rows that its
        # iterates then overwrite one step at a time
        for run, run_seed in zip(pts, seeds):
            np.random.default_rng(run_seed).standard_normal(out=run[1:])
    for k in range(1, steps + 1):
        g = f.grad(x)
        _check_gradient(g, k)
        if noise_sigma > 0:
            g = g + noise_sigma * pts[:, k]
        x = _project(x - s * g, project)
        pts[:, k] = x
    return _trace(f, pts, s, single)


def ensemble_stats(trace: IterateTrace, x_star, radius: float):
    """Per-step success fraction (share of runs within ``radius`` of the
    minimizer) and mean loss of a batch trace, as made by ``nagd_run`` or
    ``sgd_run`` from a ``(runs, d)`` start."""
    if trace.points.ndim != 3:
        raise ValueError("ensemble statistics need a batch trace with "
                         "points of shape (runs, steps+1, d)")
    if len(trace.points) == 0:
        raise ValueError("empty ensemble")
    # a C-contiguous (runs, steps+1) array reduced over axis 0 adds the runs
    # one after another; other layouts sum pairwise and move the last bits
    return (within_radius(trace.points, x_star, radius).mean(axis=0),
            trace.values.mean(axis=0))
