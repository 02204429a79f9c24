"""Objective-function registry: analytic test functions with gradients and
minimizer metadata, unit-box rescaling, quadratic models, and sparse QP
evaluation.

All evaluators are vectorized: they accept a single point of shape (d,) or a
batch of shape (n, d) and return a scalar or an n-vector accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class Objective:
    """A real objective on a box, with optional analytic metadata.

    ``domain`` is the (lo, hi) interval whose d-fold product the function is
    defined on; functions already living on the unit box use (0.0, 1.0).
    ``hessian_at_min`` may be reported in the coordinates the curvature is
    conventionally quoted in; see the individual constructors.
    """

    dim: int
    eval_fn: object
    grad_fn: object = None
    minimizer: np.ndarray = None
    f_min: float = None
    hessian_at_min: np.ndarray = None
    domain: tuple = (0.0, 1.0)
    name: str = ""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        vals = self.eval_fn(np.atleast_2d(x))
        return float(vals[0]) if single else np.asarray(vals, dtype=float)

    def grad(self, x):
        if self.grad_fn is None:
            raise ValueError(f"objective {self.name!r} has no analytic gradient")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        g = self.grad_fn(np.atleast_2d(x))
        return g[0] if single else np.asarray(g, dtype=float)


def _unit_box(f: Objective, per_length: bool) -> Objective:
    """f on [a, b]^d moved to the unit box with its minimum at 0: values
    f(a + L u) - f_min with L = b - a, divided by L when ``per_length``;
    gradients, the argmin (x* - a) / L and the curvature follow."""
    if f.f_min is None:
        raise ValueError("rescaling requires a known minimum value")
    a, b = f.domain
    if a >= b:
        raise ValueError(f"invalid domain [{a}, {b}]")
    L = b - a
    f_min = f.f_min

    def ev(u):
        shifted = f.eval_fn(a + L * np.asarray(u)) - f_min
        return shifted / L if per_length else shifted

    gr = None
    if f.grad_fn is not None:
        def gr(u):
            g = f.grad_fn(a + L * np.asarray(u))
            return g if per_length else L * g

    minimizer = None if f.minimizer is None else (np.asarray(f.minimizer) - a) / L
    hess = None if f.hessian_at_min is None else (
        (L if per_length else L ** 2) * np.asarray(f.hessian_at_min))
    return Objective(dim=f.dim, eval_fn=ev, grad_fn=gr, minimizer=minimizer,
                     f_min=0.0, hessian_at_min=hess, domain=(0.0, 1.0),
                     name=f.name if per_length else f.name + "_box")


def rescale_to_unit_box(f: Objective) -> Objective:
    """Map an objective on [a, b]^d to the unit box with its minimum at 0.

    The rescaled function is g(u) = (f(a + L u) - f_min) / L with L = b - a.
    Dividing the whole shifted expression by L makes the minimum exactly 0
    while preserving gradient magnitudes (chain rule gives grad g = grad f);
    curvature scales by L. The argmin maps affinely to (x* - a) / L.
    """
    return _unit_box(f, per_length=True)


def affine_to_unit_box(f: Objective) -> Objective:
    """Map an objective on [a, b]^d to the unit box keeping function values
    (shifted so the minimum is 0): g(u) = f(a + L u) - f_min.

    Gradients scale by L under this squeeze, so optimizer comparisons should
    use :func:`rescale_to_unit_box` instead; this variant is the natural
    convention for spectral diagnostics and grid encodings, which sample
    values only (the QP pipeline never renormalizes values either).
    """
    return _unit_box(f, per_length=False)


def quadratic_model(f: Objective) -> Objective:
    """Second-order Taylor expansion of ``f`` about its minimizer."""
    if f.minimizer is None or f.hessian_at_min is None or f.f_min is None:
        raise ValueError("quadratic model requires minimizer, f_min and hessian")
    x0 = np.asarray(f.minimizer, dtype=float)
    H = np.asarray(f.hessian_at_min, dtype=float)
    f0 = float(f.f_min)

    def ev(x):
        d = np.atleast_2d(x) - x0
        return f0 + 0.5 * np.einsum("ni,ij,nj->n", d, H, d)

    def gr(x):
        d = np.atleast_2d(x) - x0
        return d @ H.T

    return Objective(dim=f.dim, eval_fn=ev, grad_fn=gr, minimizer=x0,
                     f_min=f0, hessian_at_min=H, domain=f.domain,
                     name=f.name + "_quadratic")


# ---------------------------------------------------------------------------
# Analytic test functions (raw, on their conventional domains)
# ---------------------------------------------------------------------------

def _levy_raw() -> Objective:
    """Two-dimensional Levy function on [-10, 10]^2, unique minimum f(1,1)=0.

    The curvature at the minimizer is diagonal with eigenvalues
    (pi^2 + 1 + 10 sin^2 1) / 8 and 1/8.
    """

    def w(x):
        return 1.0 + (x - 1.0) / 4.0

    def ev(x):
        x = np.atleast_2d(x)
        w1, w2 = w(x[:, 0]), w(x[:, 1])
        t1 = np.sin(np.pi * w1) ** 2
        t2 = (w1 - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w1 + 1.0) ** 2)
        t3 = (w2 - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w2) ** 2)
        return t1 + t2 + t3

    def gr(x):
        x = np.atleast_2d(x)
        w1, w2 = w(x[:, 0]), w(x[:, 1])
        dw1 = (np.pi * np.sin(2.0 * np.pi * w1)
               + 2.0 * (w1 - 1.0) * (1.0 + 10.0 * np.sin(np.pi * w1 + 1.0) ** 2)
               + 10.0 * np.pi * (w1 - 1.0) ** 2 * np.sin(2.0 * (np.pi * w1 + 1.0)))
        dw2 = (2.0 * (w2 - 1.0) * (1.0 + np.sin(2.0 * np.pi * w2) ** 2)
               + 2.0 * np.pi * (w2 - 1.0) ** 2 * np.sin(4.0 * np.pi * w2))
        return np.stack([dw1, dw2], axis=1) / 4.0

    lam1 = (np.pi ** 2 + 1.0 + 10.0 * np.sin(1.0) ** 2) / 8.0
    lam2 = 1.0 / 8.0
    return Objective(dim=2, eval_fn=ev, grad_fn=gr,
                     minimizer=np.array([1.0, 1.0]), f_min=0.0,
                     hessian_at_min=np.diag([lam1, lam2]),
                     domain=(-10.0, 10.0), name="levy")


def levy2() -> Objective:
    """Levy function pre-rescaled to the unit box (minimizer at (0.55, 0.55)).

    The curvature metadata keeps the eigenvalues of the original [-10,10]^2
    coordinates; the unit-box squeeze scales curvature uniformly, so every
    ratio derived from these eigenvalues is unchanged.
    """
    raw = _levy_raw()
    scaled = rescale_to_unit_box(raw)
    return replace(scaled, hessian_at_min=raw.hessian_at_min)


def levy_hessian_frequencies() -> np.ndarray:
    """sqrt of the Levy curvature eigenvalues, sorted descending."""
    lam = np.sort(np.diag(_levy_raw().hessian_at_min))[::-1]
    return np.sqrt(lam)


def _sum_squares_raw(dim=2) -> Objective:
    weights = np.arange(1, dim + 1, dtype=float)

    def ev(x):
        return np.atleast_2d(x) ** 2 @ weights

    def gr(x):
        return 2.0 * weights * np.atleast_2d(x)

    return Objective(dim=dim, eval_fn=ev, grad_fn=gr,
                     minimizer=np.zeros(dim), f_min=0.0,
                     hessian_at_min=np.diag(2.0 * weights),
                     domain=(-10.0, 10.0), name="sum_squares")


def _rosenbrock_raw(dim=2) -> Objective:
    def ev(x):
        x = np.atleast_2d(x)
        return np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2
                      + (1.0 - x[:, :-1]) ** 2, axis=1)

    def gr(x):
        x = np.atleast_2d(x)
        g = np.zeros_like(x)
        diff = x[:, 1:] - x[:, :-1] ** 2
        g[:, :-1] += -400.0 * x[:, :-1] * diff - 2.0 * (1.0 - x[:, :-1])
        g[:, 1:] += 200.0 * diff
        return g

    return Objective(dim=dim, eval_fn=ev, grad_fn=gr,
                     minimizer=np.ones(dim), f_min=0.0,
                     domain=(-2.048, 2.048), name="rosenbrock")


def _rastrigin_raw(dim=2) -> Objective:
    def ev(x):
        x = np.atleast_2d(x)
        return 10.0 * x.shape[1] + np.sum(
            x ** 2 - 10.0 * np.cos(2.0 * np.pi * x), axis=1)

    def gr(x):
        x = np.atleast_2d(x)
        return 2.0 * x + 20.0 * np.pi * np.sin(2.0 * np.pi * x)

    return Objective(dim=dim, eval_fn=ev, grad_fn=gr,
                     minimizer=np.zeros(dim), f_min=0.0,
                     hessian_at_min=np.diag([2.0 + 40.0 * np.pi ** 2] * dim),
                     domain=(-5.12, 5.12), name="rastrigin")


def _ackley_raw(dim=2) -> Objective:
    a, b, c = 20.0, 0.2, 2.0 * np.pi

    def ev(x):
        x = np.atleast_2d(x)
        d = x.shape[1]
        r = np.sqrt(np.sum(x ** 2, axis=1) / d)
        return (-a * np.exp(-b * r) - np.exp(np.sum(np.cos(c * x), axis=1) / d)
                + a + np.e)

    def gr(x):
        x = np.atleast_2d(x)
        d = x.shape[1]
        r = np.sqrt(np.sum(x ** 2, axis=1) / d)
        safe = np.where(r > 0, r, 1.0)
        g1 = (a * b / d) * np.exp(-b * r)[:, None] * x / safe[:, None]
        g1 = np.where(r[:, None] > 0, g1, 0.0)
        g2 = (c / d) * np.sin(c * x) * np.exp(
            np.sum(np.cos(c * x), axis=1) / d)[:, None]
        return g1 + g2

    return Objective(dim=dim, eval_fn=ev, grad_fn=gr,
                     minimizer=np.zeros(dim), f_min=0.0,
                     domain=(-32.768, 32.768), name="ackley")


def _griewank_raw(dim=2) -> Objective:
    idx = np.sqrt(np.arange(1, dim + 1, dtype=float))

    def ev(x):
        x = np.atleast_2d(x)
        return (1.0 + np.sum(x ** 2, axis=1) / 4000.0
                - np.prod(np.cos(x / idx), axis=1))

    def gr(x):
        x = np.atleast_2d(x)
        cosx = np.cos(x / idx)
        prod = np.prod(cosx, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            partial = np.where(np.abs(cosx) > 1e-300, prod[:, None] / cosx, 0.0)
        return x / 2000.0 + np.sin(x / idx) / idx * partial

    return Objective(dim=dim, eval_fn=ev, grad_fn=gr,
                     minimizer=np.zeros(dim), f_min=0.0,
                     domain=(-600.0, 600.0), name="griewank")


def _styblinski_tang_raw(dim=2) -> Objective:
    # per-coordinate minimizer is the relevant root of 4 x^3 - 32 x + 5 = 0
    roots = np.roots([4.0, 0.0, -32.0, 5.0])
    xstar = float(np.real(roots[np.argmin(np.real(roots))]))

    def ev(x):
        x = np.atleast_2d(x)
        return 0.5 * np.sum(x ** 4 - 16.0 * x ** 2 + 5.0 * x, axis=1)

    def gr(x):
        x = np.atleast_2d(x)
        return 0.5 * (4.0 * x ** 3 - 32.0 * x + 5.0)

    mini = np.full(dim, xstar)
    fmin = float(ev(mini[None, :])[0])
    return Objective(dim=dim, eval_fn=ev, grad_fn=gr, minimizer=mini,
                     f_min=fmin, domain=(-5.0, 5.0), name="styblinski_tang")


def _dropwave_raw() -> Objective:
    def ev(x):
        x = np.atleast_2d(x)
        r2 = np.sum(x ** 2, axis=1)
        r = np.sqrt(r2)
        return -(1.0 + np.cos(12.0 * r)) / (0.5 * r2 + 2.0)

    def gr(x):
        x = np.atleast_2d(x)
        r2 = np.sum(x ** 2, axis=1)
        r = np.sqrt(r2)
        u = 1.0 + np.cos(12.0 * r)
        v = 0.5 * r2 + 2.0
        dfdr = (12.0 * np.sin(12.0 * r) * v + u * r) / v ** 2
        safe = np.where(r > 0, r, 1.0)
        g = dfdr[:, None] * x / safe[:, None]
        return np.where(r[:, None] > 0, g, 0.0)

    return Objective(dim=2, eval_fn=ev, grad_fn=gr,
                     minimizer=np.zeros(2), f_min=-1.0,
                     domain=(-5.12, 5.12), name="dropwave")


#: raw factories keyed by name; extensible by callers
RAW_REGISTRY = {
    "levy": _levy_raw,
    "sum_squares": _sum_squares_raw,
    "rosenbrock": _rosenbrock_raw,
    "rastrigin": _rastrigin_raw,
    "ackley": _ackley_raw,
    "griewank": _griewank_raw,
    "styblinski_tang": _styblinski_tang_raw,
    "dropwave": _dropwave_raw,
}


def get_objective(name: str, rescaled: bool = True) -> Objective:
    """Fetch a registered objective, by default rescaled to the unit box."""
    if name not in RAW_REGISTRY:
        raise ValueError(
            f"unknown objective {name!r}; known: {sorted(RAW_REGISTRY)}")
    if name == "levy" and rescaled:
        return levy2()
    raw = RAW_REGISTRY[name]()
    return rescale_to_unit_box(raw) if rescaled else raw


# ---------------------------------------------------------------------------
# Quadratic programs on the unit box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QpInstance:
    """f(x) = 1/2 x^T Q x + b^T x with Q sparse symmetric, box [0, 1]^d."""

    dim: int
    Q: sp.csr_matrix
    b: np.ndarray

    def __post_init__(self):
        import scipy.sparse as sp
        Q = sp.csr_matrix(self.Q, dtype=float)
        if Q.shape != (self.dim, self.dim):
            raise ValueError("Q has wrong shape")
        if (Q - Q.T).count_nonzero() != 0:
            raise ValueError("Q must be exactly symmetric")
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if b.size != self.dim:
            raise ValueError("b has wrong length")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    def to_json(self) -> str:
        import scipy.sparse as sp
        coo = sp.triu(self.Q).tocoo()
        triplets = sorted(
            (int(i), int(j), float(v))
            for i, j, v in zip(coo.row, coo.col, coo.data))
        return json.dumps({"dim": self.dim,
                           "triplets": triplets,
                           "b": [float(v) for v in self.b]})

    @staticmethod
    def from_json(text: str) -> "QpInstance":
        import scipy.sparse as sp
        doc = json.loads(text)
        d = int(doc["dim"])
        rows, cols, vals = [], [], []
        for i, j, v in doc["triplets"]:
            rows.append(i)
            cols.append(j)
            vals.append(v)
            if i != j:
                rows.append(j)
                cols.append(i)
                vals.append(v)
        Q = sp.csr_matrix((vals, (rows, cols)), shape=(d, d))
        return QpInstance(d, Q, np.asarray(doc["b"], dtype=float))


def qp_eval_grad(qp: QpInstance, x):
    """Value and gradient of the QP objective in one sparse pass.

    A point of shape (d,) gives ``(float, (d,) gradient)``; a batch of shape
    (n, d) gives ``((n,) values, (n, d) gradients)``, row i bit-identical to
    the call on row i alone. Every row must have width d and finite
    coordinates, else ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise ValueError(f"points must be (d,) or (n, d), got shape "
                         f"{x.shape}")
    X = np.ascontiguousarray(np.atleast_2d(x))
    if X.shape[1] != qp.dim:
        raise ValueError(f"point has dimension {X.shape[1]}, "
                         f"expected {qp.dim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("point has non-finite coordinates")
    # contiguous rows make each vecdot sum in the order of a 1-D x @ y
    QX = np.ascontiguousarray((qp.Q @ X.T).T)
    values = 0.5 * np.vecdot(X, QX) + np.vecdot(X, qp.b)
    QX += qp.b   # the gradients, without a second (n, d) array
    if x.ndim == 2:
        return values, QX
    return float(values[0]), QX[0]


def qp_objective(qp: QpInstance) -> Objective:
    """Wrap a QP instance as a vectorized Objective on the unit box. Its
    values are those of ``qp_eval_grad``; its gradient is the same Q x + b,
    computed without the values."""

    def gr(x):
        x = np.atleast_2d(x)
        return np.asarray((qp.Q @ x.T).T) + qp.b

    return Objective(dim=qp.dim,
                     eval_fn=lambda x: qp_eval_grad(qp, np.atleast_2d(x))[0],
                     grad_fn=gr, domain=(0.0, 1.0), name="qp")
