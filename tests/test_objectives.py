import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import qhdkit as qk
from qhdkit.objectives import (RAW_REGISTRY, affine_to_unit_box,
                               levy_hessian_frequencies)

RNG = np.random.default_rng(2024)


def central_diff_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def test_levy_minimum_and_hessian():
    f = qk.levy2()
    assert np.allclose(f.minimizer, [0.55, 0.55])
    assert abs(f(f.minimizer)) < 1e-12
    lam = np.sort(np.diag(f.hessian_at_min))
    assert lam[1] == pytest.approx((np.pi ** 2 + 1 + 10 * np.sin(1.0) ** 2) / 8)
    assert lam[0] == pytest.approx(1.0 / 8.0)
    om = levy_hessian_frequencies()
    assert om[0] == pytest.approx(1.4979, abs=1e-4)
    assert om[1] == pytest.approx(0.35355, abs=1e-4)


def test_levy_raw_value_at_origin():
    raw = qk.get_objective("levy", rescaled=False)
    # frozen from an independent high-precision evaluation of the formula
    assert raw(np.zeros(2)) == pytest.approx(0.7158445541169746, abs=1e-9)


def test_rescale_identity_on_unit_domain():
    f = qk.Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0] ** 2,
                     minimizer=np.zeros(1), f_min=0.0, domain=(0.0, 1.0))
    g = qk.rescale_to_unit_box(f)
    x = RNG.uniform(0, 1, size=(50, 1))
    assert np.allclose(g(x), f(x))


def test_rescale_linear_case():
    f = qk.Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0],
                     minimizer=np.zeros(1), f_min=0.0, domain=(0.0, 2.0))
    g = qk.rescale_to_unit_box(f)
    u = RNG.uniform(0, 1, size=(20, 1))
    assert np.allclose(g(u), u[:, 0])


def test_rescale_min_is_zero_everywhere():
    for name in RAW_REGISTRY:
        f = qk.get_objective(name)
        assert abs(f(f.minimizer)) < 1e-9


def test_rescale_invalid_domain():
    f = qk.Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0],
                     f_min=0.0, domain=(2.0, 2.0))
    with pytest.raises(ValueError):
        qk.rescale_to_unit_box(f)


@given(st.floats(-5.0, 5.0), st.floats(0.1, 9.0))
@settings(max_examples=30, deadline=None)
def test_rescale_argmin_invariance(a, width):
    b = a + width
    x_star = a + 0.37 * width

    def ev(x):
        return (np.atleast_2d(x)[:, 0] - x_star) ** 2

    f = qk.Objective(dim=1, eval_fn=ev, minimizer=np.array([x_star]),
                     f_min=0.0, domain=(a, b))
    g = qk.rescale_to_unit_box(f)
    u = np.linspace(0, 1, 301)[:, None]
    assert abs(u[np.argmin(g(u)), 0] - g.minimizer[0]) < 0.005


def _squeeze_inputs(raw):
    """A batch of unit-box points, their raw images, the raw values and
    gradients there, and the domain width L."""
    a, b = raw.domain
    L = b - a
    u = RNG.uniform(0, 1, size=(40, raw.dim))
    x = a + L * u
    return u, L, raw.eval_fn(x), raw.grad_fn(x)


def test_affine_box_variant_preserves_values():
    raw = qk.get_objective("levy", rescaled=False)
    box = affine_to_unit_box(raw)
    u = RNG.uniform(0, 1, size=(40, 2))
    assert np.allclose(box(u), raw(-10.0 + 20.0 * u) - raw.f_min)
    assert abs(box(box.minimizer)) < 1e-9
    # bitwise against the written-out map, for every registered function
    for name in RAW_REGISTRY:
        raw = qk.get_objective(name, rescaled=False)
        box = affine_to_unit_box(raw)
        u, L, vals, grads = _squeeze_inputs(raw)
        assert np.array_equal(box.eval_fn(u), vals - raw.f_min), name
        assert np.array_equal(box.grad_fn(u), L * grads), name
        assert np.array_equal(box.minimizer,
                              (raw.minimizer - raw.domain[0]) / L), name
        if raw.hessian_at_min is not None:
            assert np.array_equal(box.hessian_at_min,
                                  L ** 2 * raw.hessian_at_min), name
        assert box.name == raw.name + "_box"
        assert box.f_min == 0.0 and box.domain == (0.0, 1.0)


def test_quadratic_model_fixed_point():
    H = np.array([[2.0, 0.0], [0.0, 6.0]])

    def ev(x):
        d = np.atleast_2d(x)
        return 0.5 * np.einsum("ni,ij,nj->n", d, H, d)

    f = qk.Objective(dim=2, eval_fn=ev, minimizer=np.zeros(2), f_min=0.0,
                     hessian_at_min=H)
    q = qk.quadratic_model(f)
    x = RNG.uniform(-1, 1, size=(30, 2))
    assert np.allclose(q(x), f(x))
    assert q(q.minimizer) == pytest.approx(0.0)


def test_quadratic_model_levy_frequencies():
    f = qk.levy2()
    q = qk.quadratic_model(f)
    om = levy_hessian_frequencies()
    u = RNG.uniform(0.4, 0.7, size=(25, 2))
    d = u - f.minimizer
    expected = 0.5 * om[0] ** 2 * d[:, 0] ** 2 + 0.5 * om[1] ** 2 * d[:, 1] ** 2
    assert np.allclose(q(u), expected)


def test_quadratic_model_requires_metadata():
    f = qk.Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0])
    with pytest.raises(ValueError):
        qk.quadratic_model(f)


def test_gradient_consistency_all_registered():
    # finite differences run in the raw coordinates: the unit-box squeeze
    # inflates third derivatives by L^2, which would swamp the h = 1e-5
    # central-difference truncation budget for wide-domain functions
    for name in RAW_REGISTRY:
        raw = qk.get_objective(name, rescaled=False)
        a, b = raw.domain
        pts = a + (b - a) * RNG.uniform(0.05, 0.95, size=(100, raw.dim))
        for x in pts:
            g = raw.grad(x)
            fd = central_diff_grad(raw, x)
            denom = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(g - fd) / denom < 1e-5, name


def test_rescaled_gradient_equals_raw_gradient():
    for name in RAW_REGISTRY:
        raw = qk.get_objective(name, rescaled=False)
        f = qk.get_objective(name)
        a, b = raw.domain
        u = RNG.uniform(0.1, 0.9, size=(20, raw.dim))
        assert np.allclose(f.grad(u), raw.grad(a + (b - a) * u)), name
        # bitwise against the written-out map (get_objective may quote the
        # curvature in other coordinates, so squeeze the raw one here)
        f = qk.rescale_to_unit_box(raw)
        u, L, vals, grads = _squeeze_inputs(raw)
        assert np.array_equal(f.eval_fn(u), (vals - raw.f_min) / L), name
        assert np.array_equal(f.grad_fn(u), grads), name
        assert np.array_equal(f.minimizer, (raw.minimizer - a) / L), name
        if raw.hessian_at_min is not None:
            assert np.array_equal(f.hessian_at_min,
                                  L * raw.hessian_at_min), name
        assert f.name == raw.name
        assert f.f_min == 0.0 and f.domain == (0.0, 1.0)


def test_registry_honesty():
    for name in RAW_REGISTRY:
        f = qk.get_objective(name)
        assert f(f.minimizer) == pytest.approx(f.f_min, abs=1e-9)
        pts = RNG.uniform(0.0, 1.0, size=(10_000, f.dim))
        assert np.min(f(pts)) >= f.f_min - 1e-9, name
        if np.all(f.minimizer > 0.01) and np.all(f.minimizer < 0.99):
            assert np.linalg.norm(f.grad(f.minimizer)) <= 1e-6, name


@pytest.mark.parametrize("dim", [2, 5, 7])
def test_sum_squares_rows_match_single_points(dim):
    # block evaluation may hand a row to the evaluator alone, so its value
    # must not depend on the rows that share its call
    raw = RAW_REGISTRY["sum_squares"](dim)
    U = np.random.default_rng(dim).uniform(0.0, 1.0, (1001, dim))
    X = 20.0 * U - 10.0
    for f, points in ((raw, X), (qk.rescale_to_unit_box(raw), U)):
        values = f(points)
        for x, v in zip(points, values):
            assert f(x[None])[0] == v
    if dim == 2:
        # the matrix-product formula as a reference: with weights 1 and 2
        # every product is exact, so both sums round alike
        assert np.array_equal(raw(X), X ** 2 @ np.arange(1.0, 3.0))


def test_unknown_objective():
    with pytest.raises(ValueError):
        qk.get_objective("not_a_function")


def test_qp_eval_grad_examples():
    qp = qk.QpInstance(2, sp.identity(2, format="csr"), np.zeros(2))
    v, g = qk.qp_eval_grad(qp, np.array([1.0, 1.0]))
    assert v == pytest.approx(1.0)
    assert np.allclose(g, [1.0, 1.0])

    qp2 = qk.QpInstance(2, sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
                        np.zeros(2))
    v2, g2 = qk.qp_eval_grad(qp2, np.array([1.0, 1.0]))
    assert v2 == pytest.approx(1.0)
    assert np.allclose(g2, [1.0, 1.0])


def test_qp_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(5):
        d = 4
        Q = rng.uniform(-1, 1, (d, d))
        Q = (Q + Q.T) / 2
        qp = qk.QpInstance(d, sp.csr_matrix(Q), rng.uniform(-1, 1, d))
        x = rng.uniform(0, 1, d)
        _, g = qk.qp_eval_grad(qp, x)
        fobj = qk.qp_objective(qp)
        fd = central_diff_grad(fobj, x)
        assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)) < 1e-6


def test_qp_eval_errors():
    qp = qk.QpInstance(2, sp.identity(2, format="csr"), np.zeros(2))
    with pytest.raises(ValueError):
        qk.qp_eval_grad(qp, np.array([1.0]))
    with pytest.raises(ValueError):
        qk.qp_eval_grad(qp, np.array([np.nan, 0.0]))


def test_qp_eval_grad_batch_rows_match_single_points():
    # the fourth instance `qhdkit bench` makes from master seed 0; a batch
    # that sums its rows in another order is ulps off on many of them
    qp = qk.generate_qp(5, 5, int(np.random.SeedSequence(0).generate_state(
        4)[3]))
    X = np.random.default_rng(3).uniform(0.0, 1.0, (1000, 5))
    # C-ordered, Fortran-ordered (a transposed array) and strided rows
    for batch in (X, np.ascontiguousarray(X.T).T,
                  np.repeat(X, 2, axis=0)[::2]):
        values, grads = qk.qp_eval_grad(qp, batch)
        assert values.shape == (1000,) and grads.shape == (1000, 5)
        for x, v, g in zip(X, values, grads):
            qx = qp.Q @ x
            assert v == 0.5 * float(x @ qx) + float(qp.b @ x)
            assert np.array_equal(g, qx + qp.b)
            v1, g1 = qk.qp_eval_grad(qp, x)
            assert v1 == v and np.array_equal(g1, g)
    bad = X[:4].copy()
    bad[2, 1] = np.nan
    for points in (bad, X[:4, :4], X[:4].reshape(2, 2, 5)):
        with pytest.raises(ValueError):
            qk.qp_eval_grad(qp, points)


def test_qp_objective_values_and_gradients_are_qp_eval_grad():
    # the truth oracle's grid, the relaxed-grid potential and the scored
    # trials compare f values against SUCCESS_GAP, so all must be the same
    # floats; a different summation order is ulps off on many of these nodes
    for seed in range(4):
        for d, r in [(5, 4), (3, 4), (2, 8)]:
            qp = qk.generate_qp(d, d, seed)
            pts = qk.Mesh(d, r, qk.DIRICHLET).node_coords()
            values, grads = qk.qp_eval_grad(qp, pts)
            f = qk.qp_objective(qp)
            assert f(pts).tobytes() == values.tobytes()
            assert f.grad(pts).tobytes() == grads.tobytes()
            assert f(pts[7]) == values[7]


def test_qp_requires_symmetry():
    Q = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        qk.QpInstance(2, Q, np.zeros(2))


def test_qp_json_roundtrip_exact():
    rng = np.random.default_rng(9)
    Q = rng.uniform(-1, 1, (3, 3))
    Q = (Q + Q.T) / 2
    qp = qk.QpInstance(3, sp.csr_matrix(Q), rng.uniform(-1, 1, 3))
    text = qp.to_json()
    back = qk.QpInstance.from_json(text)
    assert np.array_equal(back.Q.toarray(), qp.Q.toarray())
    assert np.array_equal(back.b, qp.b)
    doc = json.loads(text)
    assert doc["dim"] == 3


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _qp_instances(draw):
    d = draw(st.integers(1, 5))
    vals = draw(st.lists(st.one_of(st.just(0.0), _FINITE),
                         min_size=d * d, max_size=d * d))
    upper = np.triu(np.array(vals).reshape(d, d))
    Q = upper + np.triu(upper, 1).T
    b = draw(st.lists(_FINITE, min_size=d, max_size=d))
    return qk.QpInstance(d, sp.csr_matrix(Q), np.array(b))


@given(_qp_instances())
@settings(max_examples=50, deadline=None)
def test_qp_json_round_trip_property(qp):
    text = qp.to_json()
    back = qk.QpInstance.from_json(text)
    assert back.dim == qp.dim
    assert np.array_equal(back.Q.toarray(), qp.Q.toarray())
    assert np.array_equal(back.b, qp.b)
    assert back.to_json() == text
