"""The four benchmark workloads.

Each workload has ``setup(seed)``, which builds its inputs, ``run(state,
rnd)``, which does one round of program work and is timed as a whole, and
``check(state, outputs, out_dir)``, which tests the round's outputs
against ``checks`` and is not timed. ``OPS`` is the number of operations
a round attempts; ``run`` counts each one as it finishes in ``rnd.done``.

Program calls go through module attributes (``qk.bench.generate_qp``, not
an imported name) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

import qhdkit as qk
import qhdkit.bench
import qhdkit.cli
import qhdkit.ising
from qhdkit.objectives import Objective

import checks


class Round:
    """Bookkeeping of one round: finished operations and timed work."""

    def __init__(self, out_dir):
        self.out = out_dir
        self.done = 0
        self.work = {}       # rate metric -> [units, seconds]
        self.layer = {}      # per-layer values read from the outputs

    @contextlib.contextmanager
    def timed(self, rate, units):
        start = time.perf_counter()
        yield
        entry = self.work.setdefault(rate, [0, 0.0])
        entry[0] += units
        entry[1] += time.perf_counter() - start

    def cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            qk.cli.main([str(a) for a in argv])
        self.done += 1


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Levy2d:
    """QHD, its three-phase spectra, QAA and NAGD/SGD ensembles on the
    rescaled 2-D Levy function."""

    OPS = 9
    RES, T, DT = 64, 10.0, 1e-3
    TIMES = (0.5, 1.0, 2.0, 5.0, 10.0)
    LEVELS = 10
    QAA_BITS, QAA_DT = 6, 5e-3
    GD_RUNS, GD_ITERS, GD_STEP = 5, 1000, 1e-3
    STEPSIZE = 1e-3

    def setup(self, seed):
        return {"seed": seed, "f": qk.get_objective("levy"),
                "sched": qk.make_schedule("nesterov_nonconvex",
                                          stepsize=self.STEPSIZE),
                "dmesh": qk.Mesh(2, self.RES, qk.DIRICHLET)}

    def run(self, s, rnd):
        out, seed = rnd.out, s["seed"]
        with rnd.timed("qhd_steps_per_s", round(self.T / self.DT)):
            rnd.cli("simulate-qhd", "--objective", "levy",
                    "--resolution", self.RES, "--T", self.T, "--dt", self.DT,
                    "--snapshots", ",".join(f"{t:g}" for t in self.TIMES),
                    "--seed", seed, "--out", out / "qhd")
        spectra = {}
        for t in self.TIMES:
            psi = qk.WaveFunction.from_json(
                (out / "qhd" / f"snapshot_{t:g}.json").read_text())
            H = qk.build_hamiltonian(s["dmesh"], s["f"],
                                     s["sched"].kinetic_coeff(t),
                                     s["sched"].potential_coeff(t))
            eig = qk.lowest_eigenpairs(H, self.LEVELS)
            probs, _ = qk.probability_spectrum(psi, eig)
            spectra[t] = (eig, probs)
            rnd.done += 1
        with rnd.timed("qaa_steps_per_s", round(self.T / self.QAA_DT)):
            rnd.cli("simulate-qaa", "--objective", "levy",
                    "--bits", self.QAA_BITS, "--T", self.T,
                    "--dt", self.QAA_DT, "--seed", seed, "--out", out / "qaa")
        for algo in ("nagd", "sgd"):
            with rnd.timed("gd_iters_per_s", self.GD_RUNS * self.GD_ITERS):
                rnd.cli("classical", "--algo", algo, "--objective", "levy",
                        "--step", self.GD_STEP, "--iters", self.GD_ITERS,
                        "--runs", self.GD_RUNS, "--seed", seed,
                        "--out", out / algo)
        return spectra

    def check(self, s, spectra, out):
        qhd = _read_csv(out / "qhd" / "observables.csv")
        qaa = _read_csv(out / "qaa" / "observables.csv")
        fails = checks.check_norms("levy qhd", qhd[:, 3])
        fails += checks.check_norms("levy qaa", qaa[:, 3],
                                    checks.QAA_NORM_TOL)
        r = self.RES
        axis = np.arange(1, r) / r
        grid = np.stack([a.ravel() for a in np.meshgrid(axis, axis,
                                                        indexing="ij")], 1)
        f_int = checks.levy_unit(grid)
        interior = np.zeros((r + 1, r + 1), dtype=bool)
        interior[1:-1, 1:-1] = True
        residuals, mass_above = [], {}
        for t, (eig, probs) in spectra.items():
            e_phi = 2.0 / (self.STEPSIZE + t ** 3)
            e_chi = 2.0 * t ** 3
            H = checks.box_hamiltonian(f_int, r, e_phi, e_chi)
            scale = float(abs(H).sum(axis=1).max())
            for n, lam in enumerate(eig.eigenvalues):
                v = eig.eigenvectors[interior.ravel(), n]
                res = np.linalg.norm(H @ v - lam * v) / scale
                residuals.append((t, n, float(res)))
            mass_above[t] = 1.0 - float(np.sum(probs[:4]))
        ensembles = {}
        for algo in ("nagd", "sgd"):
            ens = _read_csv(out / algo / "ensemble.csv")
            ensembles[algo] = (ens[:, 1], ens[:, 2])
        return fails + checks.check_levy(qhd[:, 2], qaa[:, 2], mass_above,
                                         residuals, ensembles)


class Convex512:
    """Criterion-6 pattern: sum of squares on a 512^2 periodic grid under
    the three-parameter schedule, evolved from t = 1 in segments of 0.1
    with the Lyapunov value W taken between segments."""

    OPS = 5
    L, N, DT = 14.0, 512, 1e-3
    BOUNDS = (1.0, 1.1, 1.2)
    STRIDE = 20

    def _beta(self, t):
        return 2.0 * np.log(t) - np.log(self.L)

    def setup(self, seed):
        L = self.L
        logL = np.log(L)

        def ev(u):
            x = L * (np.atleast_2d(u) - 0.5)
            return (x[:, 0] ** 2 + 2.0 * x[:, 1] ** 2) / L

        f = Objective(dim=2, eval_fn=ev, minimizer=np.array([0.5, 0.5]),
                      f_min=0.0)
        mesh = qk.Mesh(2, self.N, qk.PERIODIC)
        # the box squeeze maps the Nesterov three-parameter schedule to
        # (alpha, beta - log L, gamma + 2 log L), which keeps ideal scaling
        sched = qk.make_schedule(
            "three_param_raw", alpha=lambda t: np.log(2.0 / t),
            beta=lambda t: 2.0 * np.log(t) - logL,
            gamma=lambda t: 2.0 * np.log(t) + 2.0 * logL,
            sample_times=np.linspace(0.5, 20.0, 50))
        center = 0.5 + np.random.default_rng(seed).uniform(-0.05, 0.05, 2)
        return {"f": f, "mesh": mesh, "sched": sched,
                "fop": qk.discretize_objective(mesh, f),
                "psi0": qk.gaussian_state(mesh, center, 1.0 / L ** 2)}

    def run(self, s, rnd):
        f, sched, fop = s["f"], s["sched"], s["fop"]
        psi = s["psi0"]
        ws = [qk.lyapunov_W(psi, sched, self.BOUNDS[0], fop, f.minimizer)]
        rnd.done += 1
        times, efs, norms = [], [], []
        steps = round((self.BOUNDS[1] - self.BOUNDS[0]) / self.DT)
        for lo, hi in zip(self.BOUNDS[:-1], self.BOUNDS[1:]):
            with rnd.timed("qhd_steps_per_s", steps):
                traj = qk.qhd_evolve(s["mesh"], f, sched, hi, self.DT,
                                     psi0=psi, t0=lo,
                                     observable_stride=self.STRIDE)
            rnd.done += 1
            psi = traj.final_state
            ws.append(qk.lyapunov_W(psi, sched, hi, fop, f.minimizer))
            rnd.done += 1
            times.extend(traj.times)
            efs.extend(traj.observables["Ef"])
            norms.extend(traj.observables["norm"])
        return {"ws": ws, "times": times, "efs": efs, "norms": norms}

    def check(self, s, res, out):
        return (checks.check_norms("convex", res["norms"])
                + checks.check_convex(res["ws"], res["times"], res["efs"],
                                      self._beta))


class QpTts:
    """The time-to-solution pipeline on dim-5, sparsity-5 box QPs: ground
    truth, the relaxed_qhd and uniform_grid solvers with refinement, and
    their TTS. The instance pool is fixed (the first instances of master
    seed 0); the workload seed draws the solvers' trial seeds."""

    OPS = 12
    DIM, SPARSITY, POOL, POOL_SEED = 5, 5, 4, 0
    TRIALS, TRUTH_R = 1000, 8
    STEPSIZE = 1e-3     # the relaxed_qhd solver's default schedule step
    SOLVERS = ({"name": "relaxed_qhd", "resolution": 4, "T": 10.0,
                "dt": 1e-2, "refine": True},
               {"name": "uniform_grid", "resolution": 4, "refine": True})

    def setup(self, seed):
        # instance and trial seeds are drawn as the experiment runner does
        pool = np.random.SeedSequence(self.POOL_SEED).generate_state(
            self.POOL)
        trial = np.random.SeedSequence(seed).generate_state(self.POOL)
        return {"pool": [int(x) for x in pool],
                "trial": [int(x) for x in trial]}

    def run(self, s, rnd):
        bench = qk.bench
        results = []
        for i, qseed in enumerate(s["pool"]):
            with rnd.timed("qp_instances_per_s", 1):
                qp = bench.generate_qp(self.DIM, self.SPARSITY, qseed)
                _, f_star = bench.multistart_refine(qp, self.TRUTH_R)
                rnd.done += 1
                solvers = {}
                for k, solver in enumerate(self.SOLVERS):
                    p_s, t_f = bench._solver_trials(
                        solver, qp, f_star, self.TRIALS,
                        s["trial"][i] + 7919 * k)
                    solvers[solver["name"]] = (t_f, p_s, bench.tts(t_f, p_s))
                    rnd.done += 1
            results.append({"Q": qp.Q.toarray(), "b": qp.b.copy(),
                            "f_star": f_star, "solvers": solvers})
        for solver in self.SOLVERS:
            name = solver["name"]
            rnd.layer[f"bench.p_s.{name}"] = float(np.mean(
                [r["solvers"][name][1] for r in results]))
        return results

    def check(self, s, results, out):
        relaxed = self.SOLVERS[0]
        return checks.check_qp(results, relaxed["T"], relaxed["resolution"],
                               self.STEPSIZE, self.TRIALS)


class AnalogAnneal:
    """One QP through qp-gen, a Hamming QUBO file from encode, and an
    anneal-sim style emulation on the dense Ising machine, against the
    relaxed grid evolution of the same instance."""

    OPS = 7
    DIM, R, TF, DT, SHOTS = 3, 4, 10.0, 2e-3, 1000

    def setup(self, seed):
        sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
        r = self.R
        # the unit-dilation envelopes anneal-sim uses without --physical
        env = qk.AnnealEnvelope(
            time_dilation=1.0, t_f=self.TF,
            a_over_h=lambda t: r ** 1.5 * sched.kinetic_coeff(t),
            b_over_h=lambda t: 2.0 * sched.potential_coeff(t))
        return {"seed": seed, "sched": sched, "env": env}

    def run(self, s, rnd):
        ising, out = qk.ising, rnd.out
        rnd.cli("qp-gen", "--dim", self.DIM, "--sparsity", self.DIM,
                "--count", 1, "--seed", s["seed"], "--out", out / "qp")
        qp_path, model_path = out / "qp" / "instance_000.json", out / "qp.qubo"
        rnd.cli("encode", "--qp", qp_path, "--encoding", "hamming",
                "--resolution", self.R, "--format", "qubo",
                "--out", model_path)
        text = model_path.read_text()
        qubo, layout = ising.parse_model(text)
        model = ising.qubo_to_ising(qubo)
        rnd.done += 1
        with rnd.timed("anneal_steps_per_s", round(self.TF / self.DT)):
            state, marg = ising.simulate_ising_dense(
                model, s["env"], self.TF, self.DT, n_vars=layout.dim)
        rnd.done += 1
        prob = np.abs(state) ** 2
        draws = np.random.default_rng(s["seed"]).choice(
            prob.size, size=self.SHOTS, p=prob / prob.sum())
        uniq, counts = np.unique(draws, return_counts=True)
        decoded = ising.decode_samples(
            [format(int(b), f"0{model.n}b") for b in uniq], layout)
        energies = ising.ising_energies(model)
        rnd.done += 1
        qp = qk.QpInstance.from_json(qp_path.read_text())
        traj = ising.relaxed_qhd_evolve(qp, self.R, s["sched"], self.TF,
                                        self.DT)
        rnd.done += 1
        hamming = ising.ising_energies(ising.hamming_encode_qp(qp, self.R))
        rnd.done += 1
        return {"text": text, "qubo": qubo, "layout": layout, "marg": marg,
                "grid": traj.final_state.density(), "qp": qp,
                "energies": {"qubo file": energies, "hamming_encode_qp":
                             hamming},
                "decoded": decoded, "counts": counts.tolist()}

    def check(self, s, res, out):
        d, r = self.DIM, self.R
        dens = res["grid"].reshape((r + 1,) * d)
        grid_marg = [dens.sum(axis=tuple(a for a in range(d) if a != k))
                     for k in range(d)]
        # file -> model -> file is byte-identical, and the parsed model is
        # exactly the one encode serialized
        layout = res["layout"]
        source = qk.ising.qp_to_qubo(res["qp"], layout)
        roundtrip = (qk.ising.format_model(res["qubo"], layout) == res["text"]
                     and _same_qubo(res["qubo"], source))
        qp_doc = json.loads((out / "qp" / "instance_000.json").read_text())
        Q = np.zeros((d, d))
        for i, j, v in qp_doc["triplets"]:
            Q[i, j] = Q[j, i] = v
        return checks.check_analog(res["marg"], grid_marg, res["energies"],
                                   Q, np.array(qp_doc["b"]), r, roundtrip,
                                   res["decoded"], res["counts"], self.SHOTS)


def _same_qubo(a, b):
    return (a.n == b.n and a.offset == b.offset
            and np.array_equal(a.linear, b.linear)
            and a.quadratic == b.quadratic)


WORKLOADS = {"levy-2d": Levy2d, "convex-512": Convex512, "qp-tts": QpTts,
             "analog-anneal": AnalogAnneal}
