"""Classical gradient baselines: accelerated gradient descent with Nesterov
momentum, stochastic gradient descent, and ensemble statistics over random
initializations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .mesh import within_radius


@dataclass(frozen=True)
class IterateTrace:
    """Iterates of one optimization run.

    ``points[k]`` is the k-th iterate (k = 0 is the initial point),
    ``effective_times[k] = k * stepsize`` makes runs comparable with
    continuous-time evolutions, and ``values[k] = f(points[k])``.
    """

    points: np.ndarray
    effective_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not (len(self.points) == len(self.effective_times)
                == len(self.values)):
            raise ValueError("trace arrays must have equal length")


def _project(x, project):
    return np.clip(x, 0.0, 1.0) if project else x


def _check_gradient(g, k):
    if not np.all(np.isfinite(g)):
        raise EvaluationError(f"non-finite gradient at step {k}", index=k)


def nagd_run(f, x0, s: float, steps: int, project: bool = True) -> IterateTrace:
    """Accelerated gradient descent with momentum weight (k-1)/(k+2):

        x_k = y_{k-1} - s * grad f(y_{k-1})
        y_k = x_k + (k-1)/(k+2) * (x_k - x_{k-1})

    with x_0 = y_0. Iterates are projected onto [0,1]^d after each update;
    the momentum point y may leave the box, the gradient is evaluated there.
    """
    if s <= 0:
        raise ValueError("stepsize must be positive")
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    pts = [x.copy()]
    for k in range(1, steps + 1):
        g = f.grad(y)
        _check_gradient(g, k)
        x_new = _project(y - s * g, project)
        y = x_new + (k - 1.0) / (k + 2.0) * (x_new - x)
        x = x_new
        pts.append(x.copy())
    pts = np.array(pts)
    times = s * np.arange(steps + 1)
    return IterateTrace(pts, times, np.asarray(f(pts), dtype=float))


def sgd_run(f, x0, s: float, steps: int, noise_sigma: float = 1.0,
            seed: int = 0, project: bool = True) -> IterateTrace:
    """Gradient descent with independent N(0, noise_sigma^2) perturbation on
    every gradient component; deterministic per seed. ``noise_sigma = 0``
    reproduces plain gradient descent bit for bit."""
    if s <= 0:
        raise ValueError("stepsize must be positive")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).copy()
    pts = [x.copy()]
    for k in range(1, steps + 1):
        g = f.grad(x)
        _check_gradient(g, k)
        if noise_sigma > 0:
            g = g + noise_sigma * rng.standard_normal(x.size)
        x = _project(x - s * g, project)
        pts.append(x.copy())
    pts = np.array(pts)
    times = s * np.arange(steps + 1)
    return IterateTrace(pts, times, np.asarray(f(pts), dtype=float))


def ensemble_stats(traces, x_star, radius: float):
    """Per-step success fraction (share of runs within ``radius`` of the
    minimizer) and mean loss across an ensemble of aligned traces."""
    if not traces:
        raise ValueError("empty ensemble")
    lengths = {len(t.points) for t in traces}
    if len(lengths) != 1:
        raise ValueError("traces are not aligned in length")
    pts = np.stack([t.points for t in traces])      # (runs, steps+1, d)
    vals = np.stack([t.values for t in traces])
    return within_radius(pts, x_star, radius).mean(axis=0), vals.mean(axis=0)
