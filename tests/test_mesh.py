import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

import qhdkit as qk
from qhdkit.errors import EvaluationError
from qhdkit import mesh as mesh_mod
from qhdkit.mesh import (GRID_BLOCK, _axis_slices, _chain_adjacency,
                         _coord_blocks, _density, _eval_rows, _require_real,
                         _row_sum, _sq_dist_grid, kron_sum, lattice_adjacency,
                         point_mass, success_mask, within_radius)


def test_mesh_node_counts():
    assert qk.Mesh(1, 2, qk.DIRICHLET).nodes_per_edge == 3
    assert qk.Mesh(2, 4, qk.PERIODIC).nodes_per_edge == 4
    with pytest.raises(ValueError):
        qk.Mesh(0, 2, qk.DIRICHLET)
    with pytest.raises(ValueError):
        qk.Mesh(1, 0, qk.DIRICHLET)
    with pytest.raises(ValueError):
        qk.Mesh(1, 2, "open")


@pytest.mark.parametrize("dim, cells, what", [
    (2, 2.5, "cells_per_edge"), (2.0, 2, "dimension"),
    (True, 2, "dimension"), (2, True, "cells_per_edge"),
    (2, "4", "cells_per_edge")])
def test_mesh_rejects_non_integer_sizes(dim, cells, what):
    # a fractional cells_per_edge used to give a fractional size and nodes
    # outside the box
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        qk.Mesh(dim, cells, qk.DIRICHLET)
    m = qk.Mesh(np.int64(2), np.int32(3), qk.DIRICHLET)
    assert m.size == 16 and m.node_coords().max() == 1.0


def test_node_coords_in_unit_box_and_ordering():
    m = qk.Mesh(2, 2, qk.DIRICHLET)
    coords = m.node_coords()
    assert coords.min() >= 0.0 and coords.max() <= 1.0
    # first axis slowest: flat index 1 is (0, 1), i.e. second coordinate moves
    assert np.allclose(coords[1], [0.0, 0.5])
    assert np.allclose(coords[3], [0.5, 0.0])


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_node_coords_bitwise_equal_to_meshgrid_stack(dim):
    for m in (qk.Mesh(dim, 6, qk.DIRICHLET), qk.Mesh(dim, 7, qk.PERIODIC)):
        axes = np.meshgrid(*([m.axis_coords()] * dim), indexing="ij")
        old = np.stack([a.reshape(-1) for a in axes], axis=1)
        new = m.node_coords()
        assert new.shape == old.shape and new.flags.c_contiguous
        assert np.array_equal(new, old)


# (dim, cells, boundary, block rows): one block; whole trailing rows with a
# remainder; edges longer than a block, so no axis trails; the d = 5 oracle
# grid; and small blocks cutting rows and sub-grids
BLOCK_MESHES = [(2, 63, qk.DIRICHLET, GRID_BLOCK),
                (2, 512, qk.DIRICHLET, GRID_BLOCK),
                (1, 10000, qk.PERIODIC, GRID_BLOCK),
                (5, 8, qk.DIRICHLET, GRID_BLOCK),
                (2, 8, qk.DIRICHLET, 7), (3, 5, qk.PERIODIC, 12)]


def _sizes_and_values(record):
    """An evaluator that appends each batch's row count to ``record``."""
    def ev(x):
        record.append(len(x))
        return np.sum(np.cos(5.0 * x), axis=1) + x[:, 0] ** 3
    return ev


@pytest.mark.parametrize("dim, cells, boundary, block", BLOCK_MESHES)
def test_coord_blocks_are_node_coords_in_flat_order(dim, cells, boundary,
                                                    block, monkeypatch):
    monkeypatch.setattr(mesh_mod, "GRID_BLOCK", block)
    m = qk.Mesh(dim, cells, boundary)
    starts, blocks = zip(*_coord_blocks(m))
    sizes = [len(b) for b in blocks]
    assert max(sizes) <= block
    assert list(starts) == [0, *np.cumsum(sizes)[:-1].tolist()]
    assert np.array_equal(np.concatenate(blocks), m.node_coords())


@pytest.mark.parametrize("dim, cells, boundary, block", BLOCK_MESHES)
def test_discretize_objective_calls_f_on_blocks_with_whole_grid_bits(
        dim, cells, boundary, block, monkeypatch):
    monkeypatch.setattr(mesh_mod, "GRID_BLOCK", block)
    m = qk.Mesh(dim, cells, boundary)
    sizes = []
    values = qk.discretize_objective(m, _sizes_and_values(sizes)).values
    assert max(sizes) <= block and sum(sizes) == m.size
    whole = _sizes_and_values([])(m.node_coords())
    assert np.array_equal(values, whole)


@pytest.mark.parametrize("dtype", [float, bool])
def test_eval_rows_calls_f_on_blocks_with_whole_array_bits(dtype):
    pts = np.random.default_rng(5).uniform(size=(3 * GRID_BLOCK + 17, 3))
    sizes = []
    ev = _sizes_and_values(sizes)
    f = ev if dtype is float else (lambda x: ev(x) > 1.5)
    out = _eval_rows(f, pts, dtype)
    assert sizes == [GRID_BLOCK] * 3 + [17] and out.dtype == dtype
    assert np.array_equal(out, f(pts))


@pytest.mark.parametrize("n, line, block, lengths", [
    (512, 512, GRID_BLOCK, [8] * 64),
    (4097, 1, GRID_BLOCK, [2048, 2049]),
    (5000, 1, GRID_BLOCK, [2500, 2500]),
    (10, 100, 350, [2, 3, 2, 3]),
    (12, 144, 60, [1] * 12),
    (1, 70000, GRID_BLOCK, [1]),
    (3, 1, 2, [1, 2]),
])
def test_axis_slices_cut_into_even_blocks(n, line, block, lengths,
                                          monkeypatch):
    # the fewest blocks of at most GRID_BLOCK nodes and at least one index,
    # lengths differing by at most one, GRID_BLOCK read at each call
    monkeypatch.setattr(mesh_mod, "GRID_BLOCK", block)
    slices = _axis_slices(n, line)
    assert [s.stop - s.start for s in slices] == lengths
    assert [s.start for s in slices] == [0, *np.cumsum(lengths)[:-1]]


@pytest.mark.parametrize("returned", [lambda x: 0.0, lambda x: x])
def test_eval_rows_rejects_other_than_one_value_per_row(returned):
    with pytest.raises(ValueError, match="one value per node"):
        _eval_rows(returned, np.zeros((5, 2)))


def test_discretize_objective_works_in_block_sized_memory(working_memory):
    # the whole (size, 2) table and Levy's whole-grid temporaries used to
    # take 11 times the values' bytes
    m = qk.Mesh(2, 512, qk.PERIODIC)
    f = qk.get_objective("levy")
    used = working_memory(lambda: qk.discretize_objective(m, f))
    assert used <= 2 * 8 * m.size, f"{used / (8 * m.size):.2f} outputs"


def test_discretize_objective_first_nonfinite_in_a_later_block(monkeypatch):
    monkeypatch.setattr(mesh_mod, "GRID_BLOCK", 4)
    m = qk.Mesh(1, 20, qk.DIRICHLET)
    with pytest.raises(EvaluationError) as err:
        qk.discretize_objective(
            m, lambda p: np.where(p[:, 0] > 0.6, np.inf, p[:, 0]))
    assert err.value.index == 13


def test_density_bitwise_equal_to_abs_squared():
    rng = np.random.default_rng(3)
    amp = (rng.standard_normal(5000) + 1j * rng.standard_normal(5000)) \
        * 10.0 ** rng.uniform(-150, 150, 5000)
    assert np.array_equal(_density(amp), np.abs(amp) ** 2)


@pytest.mark.parametrize("n", list(range(1, 40)) + [64, 127, 128, 129, 136,
                                                      200, 257, 300])
def test_row_sum_keeps_numpy_row_sum_bits(n):
    # numpy sums rows in turn below 8 columns and pairwise from 8, so the
    # order is what matters; scales spread over decades make it show
    rng = np.random.default_rng(n)
    cols = rng.random((64, n)) * 10.0 ** rng.uniform(-4, 4, (64, n))
    assert np.array_equal(_row_sum(list(cols.T)), np.sum(cols, axis=1))


def _mesh_up_to(dim, nodes, boundary):
    """The finest mesh of that dimension with at most ``nodes`` nodes."""
    cells = max(1, int(nodes ** (1.0 / dim)) - (boundary == qk.DIRICHLET))
    return qk.Mesh(dim, cells, boundary)


@pytest.mark.parametrize("dim", range(1, 11))
def test_success_mask_bitwise_equal_to_node_coords_formula(dim):
    rng = np.random.default_rng(100 + dim)
    for boundary in (qk.DIRICHLET, qk.PERIODIC):
        m = _mesh_up_to(dim, 6000, boundary)
        coords = m.node_coords()
        targets = [rng.uniform(0, 1, dim), coords[rng.integers(m.size)],
                   np.full(dim, 0.5)]
        for x_star in targets:
            assert np.array_equal(_sq_dist_grid(m, x_star).reshape(-1),
                                  np.sum((coords - x_star) ** 2, axis=1))
            # radii equal to node distances put nodes exactly on the radius
            dist = np.linalg.norm(coords - x_star, axis=1)
            for radius in rng.choice(dist[dist > 0], 5):
                assert np.array_equal(success_mask(m, x_star, radius),
                                      within_radius(coords, x_star, radius))


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9])
def test_gaussian_state_and_point_mass_bitwise_equal_to_old_formulas(dim):
    rng = np.random.default_rng(200 + dim)
    for boundary in (qk.DIRICHLET, qk.PERIODIC):
        m = _mesh_up_to(dim, 6000, boundary)
        coords = m.node_coords()
        for center, variance in ((rng.uniform(0, 1, dim), 0.02),
                                 (np.full(dim, 0.5), 3.0)):
            d2 = np.sum((coords - center) ** 2, axis=1)
            density = np.exp(-d2 / (2.0 * variance))
            old = np.sqrt(density / np.sum(density)).astype(complex)
            new = qk.gaussian_state(m, center, variance).amplitudes
            assert np.array_equal(new, old)
        # node midpoints tie between neighbours; the first in flat order wins
        for point in (rng.uniform(-0.2, 1.2, dim),
                      (rng.integers(m.nodes_per_edge, size=dim) + 0.5)
                      / m.cells_per_edge):
            idx = int(np.argmin(np.sum((coords - point) ** 2, axis=1)))
            assert point_mass(m, point).amplitudes[idx] == 1.0


@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5], [0.5, np.inf]])
def test_point_mass_rejects_wrong_length_or_non_finite_point(point):
    with pytest.raises(ValueError, match="^point must have 2 finite"):
        point_mass(qk.Mesh(2, 8, qk.PERIODIC), point)


def test_success_mask_rejects_wrong_length_x_star():
    with pytest.raises(ValueError, match="^x_star must have 2 coordinates"):
        success_mask(qk.Mesh(2, 8, qk.PERIODIC), [0.5], 0.1)


def test_fdm_laplacian_1d_r2():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    lap, pos = qk.build_fdm_operators(m)
    expected = 4.0 * np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert np.allclose(lap.toarray(), expected)
    assert np.allclose(pos[0].values, [0.0, 0.5, 1.0])


def _kron_sum_written_out(a1, dim):
    # the sum over axes k of I x ... x a1 (at k) x ... x I, term by term
    eye = sp.identity(a1.shape[0], format="csr")
    total = None
    for k in range(dim):
        term = None
        for ax in range(dim):
            block = a1 if ax == k else eye
            term = block if term is None else sp.kron(term, block,
                                                      format="csr")
        total = term if total is None else total + term
    return total.tocsr()


@pytest.mark.parametrize("make_a1", [
    _chain_adjacency,
    lambda n: (_chain_adjacency(n) - 2.0 * sp.identity(n)).tocsr(),
    lambda n: sp.csr_matrix(np.cos(np.add.outer(np.arange(n), np.arange(n)))),
    lambda n: qk.relaxed_adjacency(n, 1),
], ids=["chain", "fdm_block", "dense", "relaxed"])
def test_kron_sum_equals_sum_of_axis_terms(make_a1):
    # bitwise, so the diagonal of an a1 with nonzero diagonal must be
    # summed over the axes in axis order
    for n in (2, 3, 5):
        a1 = make_a1(n)
        for dim in range(1, 5):
            got, want = kron_sum(a1, dim), _kron_sum_written_out(a1, dim)
            assert got.shape == want.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_fdm_position_2d():
    m = qk.Mesh(2, 2, qk.DIRICHLET)
    _, pos = qk.build_fdm_operators(m)
    coords = m.node_coords()
    assert np.allclose(pos[0].values, coords[:, 0])
    assert np.allclose(pos[1].values, coords[:, 1])


def test_adjacency_unit_square_edge_count():
    m = qk.Mesh(2, 1, qk.DIRICHLET)
    adj = lattice_adjacency(m)
    # the unit square graph has d * 2^(d-1) = 4 edges, i.e. 2 * d * 2^(d-1)
    # symmetric nonzero matrix entries
    assert adj.count_nonzero() == 2 * 2 * 2 ** (2 - 1)


def test_fdm_requires_dirichlet():
    with pytest.raises(ValueError):
        qk.build_fdm_operators(qk.Mesh(1, 4, qk.PERIODIC))


def test_laplacian_symmetric_negative_semidefinite():
    for dim, r in [(1, 16), (2, 8), (2, 16)]:
        m = qk.Mesh(dim, r, qk.DIRICHLET)
        lap, _ = qk.build_fdm_operators(m)
        dense = lap.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.linalg.eigvalsh(dense).max() <= 1e-9


def test_discretize_objective_values():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    op = qk.discretize_objective(m, lambda pts: pts[:, 0] ** 2)
    assert np.allclose(op.values, [0.0, 0.25, 1.0])
    half = qk.discretize_objective(m, lambda pts: 0.5 * pts[:, 0] ** 2)
    assert np.allclose(half.values, [0.0, 1.0 / 8.0, 0.5])


def test_discretize_levy_minimum_node():
    # r = 20 puts the mapped minimizer (0.55, 0.55) exactly on the grid
    m = qk.Mesh(2, 20, qk.DIRICHLET)
    f = qk.get_objective("levy")
    op = qk.discretize_objective(m, f)
    idx = m.flat_index((11, 11))
    assert abs(op.values[idx]) < 1e-12


def test_discretize_objective_nonfinite():
    m = qk.Mesh(1, 2, qk.DIRICHLET)

    def bad(pts):
        vals = pts[:, 0].copy()
        vals[1] = np.nan
        return vals

    with pytest.raises(EvaluationError) as err:
        qk.discretize_objective(m, bad)
    assert err.value.index == 1


def test_uniform_state():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    psi = qk.uniform_state(m)
    assert np.allclose(psi.amplitudes, np.full(3, 1.0 / np.sqrt(3.0)))
    m2 = qk.Mesh(2, 4, qk.PERIODIC)
    psi2 = qk.uniform_state(m2)
    assert psi2.amplitudes.size == 16
    assert np.allclose(psi2.amplitudes, 0.25)
    assert np.allclose(psi2.density(), 1.0 / 16.0)


def test_wavefunction_norm_validation():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    with pytest.raises(ValueError):
        qk.WaveFunction(m, np.array([1.0, 1.0, 1.0]))


def test_wavefunction_json_roundtrip():
    m = qk.Mesh(1, 4, qk.PERIODIC)
    psi = qk.gaussian_state(m, [0.5], 0.04)
    back = qk.WaveFunction.from_json(psi.to_json())
    assert back.mesh == psi.mesh
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_gaussian_state_symmetry_and_phase():
    m = qk.Mesh(1, 10, qk.DIRICHLET)
    psi = qk.gaussian_state(m, [0.5], 1.0)
    assert np.allclose(psi.amplitudes.imag, 0.0)
    assert np.allclose(psi.amplitudes, psi.amplitudes[::-1])


def test_gaussian_state_wide_domain_variance():
    # density variance 1 on a physical domain of width 16 sampled at N = 512
    L, N = 16.0, 512
    m = qk.Mesh(1, N, qk.PERIODIC)
    psi = qk.gaussian_state(m, [0.5], 1.0 / L ** 2)
    x = L * (m.node_coords()[:, 0] - 0.5)
    var = float(np.sum(psi.density() * x ** 2))
    assert abs(var - 1.0) < 0.02


def test_gaussian_state_large_variance_limit():
    m = qk.Mesh(1, 8, qk.DIRICHLET)
    psi = qk.gaussian_state(m, [0.5], 1e6)
    uni = qk.uniform_state(m)
    assert np.max(np.abs(psi.amplitudes - uni.amplitudes)) < 1e-3


def test_gaussian_state_errors():
    m = qk.Mesh(1, 8, qk.DIRICHLET)
    with pytest.raises(ValueError):
        qk.gaussian_state(m, [1.5], 1.0)
    with pytest.raises(ValueError):
        qk.gaussian_state(m, [0.5], 0.0)


def test_expectation_examples():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    _, pos = qk.build_fdm_operators(m)
    assert qk.expectation(qk.uniform_state(m), pos[0]) == pytest.approx(0.5)
    pm = point_mass(m, [1.0])
    assert qk.expectation(pm, pos[0]) == pytest.approx(1.0)
    f = qk.discretize_objective(m, lambda p: p[:, 0] ** 2)
    assert qk.expectation(qk.uniform_state(m), f) == pytest.approx(5.0 / 12.0)


def test_expectation_uniform_position_all_axes():
    m = qk.Mesh(2, 5, qk.DIRICHLET)
    _, pos = qk.build_fdm_operators(m)
    for k in range(2):
        assert qk.expectation(qk.uniform_state(m), pos[k]) == pytest.approx(0.5)


def test_expectation_mesh_mismatch():
    m1, m2 = qk.Mesh(1, 2, qk.DIRICHLET), qk.Mesh(1, 3, qk.DIRICHLET)
    op = qk.discretize_objective(m2, lambda p: p[:, 0])
    with pytest.raises(ValueError):
        qk.expectation(qk.uniform_state(m1), op)


def test_sample_positions_point_mass_and_determinism():
    m = qk.Mesh(1, 4, qk.DIRICHLET)
    pm = point_mass(m, [0.5])
    draws = qk.sample_positions(pm, 25, seed=3)
    assert np.all(draws == 0.5)
    psi = qk.gaussian_state(m, [0.5], 0.1)
    a = qk.sample_positions(psi, 100, seed=11)
    b = qk.sample_positions(psi, 100, seed=11)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        qk.sample_positions(psi, 0, seed=1)


@pytest.mark.parametrize("dim, cells, boundary", [
    (1, 9, qk.DIRICHLET), (2, 512, qk.PERIODIC), (3, 20, qk.DIRICHLET)])
def test_sample_positions_bitwise_equal_to_node_coords_rows(dim, cells,
                                                          boundary):
    m = qk.Mesh(dim, cells, boundary)
    psi = qk.gaussian_state(m, [0.3, 0.6, 0.2][:dim], 0.02)
    draws = qk.sample_positions(psi, 1000, seed=4)
    # the rows the draws used to be read from, written out
    rng = np.random.default_rng(4)
    p = psi.density()
    idx = rng.choice(m.size, size=1000, p=p / p.sum())
    assert np.array_equal(draws, m.node_coords()[idx])


def test_sample_positions_frequencies():
    m = qk.Mesh(1, 9, qk.DIRICHLET)
    psi = qk.uniform_state(m)
    shots = 100_000
    draws = qk.sample_positions(psi, shots, seed=7)
    p = 1.0 / 10.0
    sigma = np.sqrt(shots * p * (1 - p))
    for node in m.axis_coords():
        count = int(np.sum(np.isclose(draws[:, 0], node)))
        assert abs(count - shots * p) < 5.0 * sigma


def test_success_probability():
    m = qk.Mesh(2, 8, qk.DIRICHLET)
    x_star = [0.5, 0.5]
    pm = point_mass(m, x_star)
    assert qk.success_probability(pm, x_star, 0.1) == pytest.approx(1.0)
    # whole box within sqrt(d) of any point
    assert qk.success_probability(qk.uniform_state(m), x_star,
                                  np.sqrt(2.0) + 1e-9) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        qk.success_probability(pm, x_star, 0.0)


def test_require_real_bounds_and_types():
    assert _require_real("x", 2) == 2.0 and type(_require_real("x", 2)) is float
    assert _require_real("x", np.float32(0.5)) == 0.5
    assert _require_real("x", 0, strict=False) == 0.0
    for value in (True, "1.0", None, np.array(1.0), 0.0):
        with pytest.raises(ValueError, match="^x must be finite and > 0, "):
            _require_real("x", value)
    with pytest.raises(ValueError,
                       match=r"^x must be finite and >= 0, got -1\.0$"):
        _require_real("x", -1.0, strict=False)


def _schedule_never_called():
    def never(t):
        raise AssertionError("a step ran")

    return qk.Schedule(kinetic_coeff=never, potential_coeff=never)


def _objective_never_stepped():
    def never(x):
        raise AssertionError("an iteration ran")

    return qk.Objective(dim=1, eval_fn=lambda x: np.zeros(len(x)),
                        grad_fn=never)


@pytest.mark.parametrize("call, message", [
    (lambda: qk.tts(math.nan, 0.5), "t_f must be finite and > 0, got nan"),
    (lambda: qk.tts(math.inf, 0.5), "t_f must be finite and > 0, got inf"),
    (lambda: qk.make_schedule("nesterov_nonconvex", stepsize=math.nan),
     "stepsize must be finite and > 0, got nan"),
    (lambda: qk.make_schedule("nesterov_nonconvex", stepsize=math.inf),
     "stepsize must be finite and > 0, got inf"),
    (lambda: qk.AnnealEnvelope(math.nan, 1.0, None, None),
     "time_dilation must be finite and > 0, got nan"),
    (lambda: qk.nagd_run(_objective_never_stepped(), [0.5], math.inf, 5),
     "stepsize must be finite and > 0, got inf"),
    (lambda: qk.sgd_run(_objective_never_stepped(), [0.5], 0.1, 5,
                        noise_sigma=math.inf),
     "noise_sigma must be finite and >= 0, got inf"),
    (lambda: qk.gaussian_state(qk.Mesh(1, 8, qk.PERIODIC), [0.5], math.nan),
     "variance must be finite and > 0, got nan"),
    (lambda: qk.semiclassical_ratio([math.nan, 1.0]),
     "frequencies must be positive and sorted descending"),
    (lambda: qk.gaussian_state(qk.Mesh(1, 8, qk.PERIODIC), [math.nan], 0.1),
     "center must be finite and >= 0, got nan"),
    (lambda: point_mass(qk.Mesh(1, 8, qk.PERIODIC), [math.nan]),
     "point must have 1 finite coordinates, got [nan]"),
    (lambda: qk.make_schedule("custom_piecewise",
                              knots=[(0.0, 0.0), (math.nan, 1.0)]),
     "knot 1 (nan, 1.0) is not finite"),
    (lambda: qk.make_schedule("custom_piecewise",
                              knots=[(0.0, 0.0), (0.5, math.nan), (1.0, 1.0)]),
     "knot 1 (0.5, nan) is not finite"),
    (lambda: qk.qhd_evolve(qk.Mesh(1, 8, qk.PERIODIC),
                           qk.DiagonalOperator(qk.Mesh(1, 8, qk.PERIODIC),
                                               np.zeros(8)),
                           _schedule_never_called(), 1.0, 0.1,
                           snapshot_times=[math.nan]),
     "snapshot time nan does not lie on the step grid"),
], ids=["tts-nan", "tts-inf", "nesterov-stepsize-nan",
        "nesterov-stepsize-inf", "envelope-dilation-nan", "nagd-stepsize-inf",
        "sgd-noise-inf", "gaussian-variance-nan", "semiclassical-w1-nan",
        "gaussian-center-nan", "point-mass-nan", "knot-time-nan",
        "knot-fraction-nan", "snapshot-time-nan"])
def test_reals_fail_early_naming_the_input(call, message):
    # each used to return nan or inf, build an object that failed later, or
    # start iterating with a non-finite step
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf])
def test_bad_radius_fails_before_any_step(radius):
    # a negative radius used to give all-zero ensemble fractions, and NaN a
    # success probability of 0.0
    def never(t):
        raise AssertionError("the evolution started")

    m = qk.Mesh(2, 8, qk.DIRICHLET)
    with pytest.raises(ValueError, match="radius"):
        qk.success_probability(qk.uniform_state(m), [0.5, 0.5], radius)
    f = qk.get_objective("levy")
    descent = qk.Schedule(kinetic_coeff=never, potential_coeff=never)
    with pytest.raises(ValueError, match="radius"):
        qk.qhd_evolve(qk.Mesh(2, 8, qk.PERIODIC), f, descent, 1.0, 0.1,
                      success_radius=radius)
    with pytest.raises(ValueError, match="radius"):
        qk.relaxed_qhd_evolve(qk.generate_qp(2, 2, seed=1), 2, descent, 1.0,
                              0.1, x_star=[0.5, 0.5], success_radius=radius)
    problem = qk.radix2_problem(f, 3)
    anneal = qk.Schedule(kinetic_coeff=never, potential_coeff=never,
                         anneal_fraction=never)
    with pytest.raises(ValueError, match="radius"):
        qk.qaa_evolve(problem.diag, anneal, 1.0, 0.1, points=problem.points,
                      x_star=f.minimizer, radius=radius)
    trace = qk.nagd_run(f, np.full((3, 2), 0.5), 1e-3, 2)
    with pytest.raises(ValueError, match="radius"):
        qk.ensemble_stats(trace, f.minimizer, radius)


def test_success_probability_uniform_1d_count():
    m = qk.Mesh(1, 100, qk.DIRICHLET)
    psi = qk.uniform_state(m)
    # nodes j/100 with |j/100 - 0.5| < 0.1 strictly: j = 41..59, 19 of 101
    assert qk.success_probability(psi, [0.5], 0.1) == pytest.approx(19.0 / 101.0)


def test_success_probability_strict_boundary():
    m = qk.Mesh(1, 10, qk.DIRICHLET)
    psi = qk.uniform_state(m)
    # node at exactly radius distance is excluded
    assert qk.success_probability(psi, [0.5], 0.1) == pytest.approx(1.0 / 11.0)
    mask = success_mask(m, [0.5], 0.1)
    assert mask.sum() == 1


def test_constructors_unit_norm():
    for make in (qk.uniform_state,
                 lambda m: qk.gaussian_state(m, [0.5] * m.dim, 0.05),
                 lambda m: point_mass(m, [0.3] * m.dim)):
        for m in (qk.Mesh(1, 7, qk.DIRICHLET), qk.Mesh(2, 6, qk.PERIODIC)):
            psi = make(m)
            assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) <= 1e-10
