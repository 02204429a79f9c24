"""Command-line entry points.

Every command that writes files is deterministic given its seed: repeated
runs produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from . import bench, classical, dynamics, ising, mesh, objectives, spectral


def _csv_write(path, header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else
                              str(v) for v in row))
    pathlib.Path(path).write_bytes(("\n".join(lines) + "\n").encode())


#: CLI schedule name -> builder from (stepsize s, horizon T)
_SCHEDULES = {
    "nesterov_nonconvex": lambda s, T: dynamics.make_schedule(
        "nesterov_nonconvex", stepsize=s),
    "nesterov_three_param": lambda s, T: dynamics.make_schedule(
        "nesterov_three_param"),
    "linear": lambda s, T: dynamics.make_schedule("linear_qaa", horizon=T),
    "local_adiabatic": lambda s, T: dynamics.make_schedule(
        "local_adiabatic", horizon=T),
}


def _parse_snapshots(text):
    return [float(t) for t in text.split(",")] if text else []


def _write_observables(out, traj):
    """Write ``observables.csv`` of ``traj`` into the directory ``out``,
    made if missing, and return that directory as a path."""
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    obs = traj.observables
    _csv_write(out / "observables.csv", "t,Ef,success_prob,norm",
               zip(traj.times.tolist(), obs["Ef"].tolist(),
                   obs["success_prob"].tolist(), obs["norm"].tolist()))
    return out


def cmd_simulate_qhd(args):
    f = objectives.get_objective(args.objective)
    grid = mesh.Mesh(f.dim, args.resolution, mesh.PERIODIC)
    sched = _SCHEDULES[args.schedule](args.stepsize, args.T)
    traj = dynamics.qhd_evolve(grid, f, sched, args.T, args.dt,
                               snapshot_times=_parse_snapshots(args.snapshots))
    out = _write_observables(args.out, traj)
    for t, state in zip(traj.snapshot_times, traj.snapshots):
        (out / f"snapshot_{t:g}.json").write_text(state.to_json())
    print(f"wrote {out / 'observables.csv'}")


def cmd_simulate_qaa(args):
    f = objectives.get_objective(args.objective)
    problem = dynamics.radix2_problem(f, args.bits)
    sched = _SCHEDULES[args.schedule](1e-3, args.T)
    traj = dynamics.qaa_evolve(problem.diag, sched, args.T, args.dt,
                               points=problem.points, x_star=f.minimizer)
    out = _write_observables(args.out, traj)
    print(f"wrote {out / 'observables.csv'}")


def cmd_classical(args):
    f = objectives.get_objective(args.objective)
    # a bad radius fails here, before the runs
    mesh.within_radius(f.minimizer, f.minimizer, args.radius)
    x0 = np.random.default_rng(args.seed).uniform(size=(args.runs, f.dim))
    if args.algo == "nagd":
        trace = classical.nagd_run(f, x0, args.step, args.iters,
                                   project=args.projection)
    else:
        trace = classical.sgd_run(
            f, x0, args.step, args.iters, noise_sigma=args.noise_sigma,
            seed=args.seed + 1 + np.arange(args.runs), project=args.projection)
    frac, loss = classical.ensemble_stats(trace, f.minimizer, args.radius)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _csv_write(out / "ensemble.csv", "t,success_frac,mean_loss",
               zip(trace.effective_times.tolist(), frac.tolist(),
                   loss.tolist()))
    print(f"wrote {out / 'ensemble.csv'}")


def cmd_spectrum(args):
    if not 1 <= args.levels <= spectral.MAX_LEVELS:
        raise ValueError(f"--levels must be between 1 and "
                         f"{spectral.MAX_LEVELS}, got {args.levels}")
    f = objectives.get_objective(args.objective)
    # three-phase spectra are read in the sine-mode basis of the
    # instantaneous vanishing-boundary Hamiltonian on the shared node grid
    grid_d = mesh.Mesh(f.dim, args.resolution, mesh.DIRICHLET)
    interior = (grid_d.nodes_per_edge - 2) ** f.dim
    if interior < max(args.levels, 2):
        raise ValueError(
            f"--resolution {args.resolution} leaves {interior} interior "
            f"nodes, fewer than the {max(args.levels, 2)} levels solved for")
    times = sorted(float(t) for t in args.times.split(","))
    sched = _SCHEDULES[args.schedule](args.stepsize, max(times))
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    grid_p = mesh.Mesh(f.dim, args.resolution, mesh.PERIODIC)
    traj = dynamics.qhd_evolve(grid_p, f, sched, max(times), args.dt,
                               snapshot_times=times)
    spec_rows = []
    ratio_rows = []
    for t in times:
        e_phi, e_chi = sched.kinetic_coeff(t), sched.potential_coeff(t)
        hd = spectral.build_hamiltonian(grid_d, f, e_phi, e_chi)
        eig_d = spectral.lowest_eigenpairs(hd, max(args.levels, 2))
        probs, residual = spectral.probability_spectrum(
            traj.snapshot_at(t), eig_d)
        for nlev, pr in enumerate(probs[:args.levels]):
            spec_rows.append((t, nlev, float(pr)))
        spec_rows.append((t, -1, residual))
        e0, e1 = (float(v) for v in eig_d.eigenvalues[:2])
        ratio_rows.append((t, e0, e1, e1 / e0))
    _csv_write(out / "spectrum.csv", "t,n,prob", spec_rows)
    _csv_write(out / "ratios.csv", "t,E0,E1,ratio", ratio_rows)
    print(f"wrote {out / 'spectrum.csv'} and {out / 'ratios.csv'}")


def cmd_encode(args):
    qp = objectives.QpInstance.from_json(pathlib.Path(args.qp).read_text())
    if args.encoding == "hamming":
        layout = ising.PrecisionLayout.hamming(qp.dim, args.resolution)
    else:
        layout = ising.PrecisionLayout.radix2(qp.dim, args.bits)
    if args.encoding == "hamming" and args.format == "ising":
        model = ising.hamming_encode_qp(qp, args.resolution)
    else:
        model = ising.qp_to_qubo(qp, layout)
        if args.format == "ising":
            model = ising.qubo_to_ising(model)
    pathlib.Path(args.out).write_text(ising.format_model(model, layout))
    print(f"wrote {args.out}")


def cmd_anneal_sim(args):
    if args.shots < 1:
        raise ValueError(f"--shots must be >= 1, got {args.shots}")
    model, layout = ising.parse_model(pathlib.Path(args.model).read_text())
    if layout is None:
        raise ValueError("model file carries no layout line; cannot decode")
    if isinstance(model, ising.QuboModel):
        model = ising.qubo_to_ising(model)
    sched = _SCHEDULES[args.schedule](args.stepsize, args.tf)
    r = layout.bits_per_var
    env = ising.anneal_rescale(sched, r, (args.a0_over_h, args.tf)) \
        if args.physical else ising.schedule_envelope(sched, r, 1.0, args.tf)
    state, _ = ising.simulate_ising_dense(model, env, args.tf, args.dt,
                                          n_vars=layout.dim)
    prob = np.abs(state) ** 2
    rng = np.random.default_rng(args.seed)
    draws = rng.choice(prob.size, size=args.shots, p=prob / prob.sum())
    uniq, counts = np.unique(draws, return_counts=True)
    # by count, descending, then by bitstring
    order = np.lexsort((uniq, -counts))
    bits = [format(int(b), f"0{model.n}b") for b in uniq[order]]
    points = ising.decode_samples(bits, layout)
    energies = ising.ising_energies(model)[uniq[order]]
    rows = [(s, int(c), " ".join(repr(float(x)) for x in point), float(e))
            for s, c, point, e in zip(bits, counts[order], points, energies)]
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _csv_write(out, "bitstring,count,decoded,energy", rows)
    print(f"wrote {out}")


def cmd_qp_gen(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        qp = bench.generate_qp(args.dim, args.sparsity, args.seed + i)
        (out / f"instance_{i:03d}.json").write_text(qp.to_json())
    print(f"wrote {args.count} instances to {out}")


def cmd_bench(args):
    config = bench.ExperimentConfig.from_json(
        pathlib.Path(args.config).read_text())
    bench.run_experiment(config, args.out)
    print(f"wrote {pathlib.Path(args.out) / 'tts_summary.csv'}")


def cmd_tts(args):
    print(repr(bench.tts(args.tf, args.ps)))


def cmd_tcount(args):
    print(bench.tcount(args.dim, args.sparsity, args.iters, args.qubits))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qhdkit",
        description="Hamiltonian-descent simulation and encoding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-qhd", help="split-step descent evolution")
    p.add_argument("--objective", default="levy")
    p.add_argument("--resolution", type=int, default=128)
    p.add_argument("--schedule", choices=_SCHEDULES,
                   default="nesterov_nonconvex")
    p.add_argument("--stepsize", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--snapshots", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate_qhd)

    p = sub.add_parser("simulate-qaa", help="baseline adiabatic evolution")
    p.add_argument("--objective", default="levy")
    p.add_argument("--bits", type=int, default=6)
    p.add_argument("--schedule", choices=("linear", "local_adiabatic"),
                   default="linear")
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for symmetry with the other commands; "
                   "has no effect, the evolution is deterministic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate_qaa)

    p = sub.add_parser("classical", help="gradient-descent ensembles")
    p.add_argument("--algo", choices=["nagd", "sgd"], required=True)
    p.add_argument("--objective", default="levy")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=0.1)
    p.add_argument("--projection", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("spectrum", help="three-phase diagnostics")
    p.add_argument("--objective", default="levy")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--schedule", choices=_SCHEDULES,
                   default="nesterov_nonconvex")
    p.add_argument("--stepsize", type=float, default=1e-3)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--times", required=True)
    p.add_argument("--levels", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("encode", help="emit annealer coefficient files")
    p.add_argument("--qp", required=True)
    p.add_argument("--encoding", choices=["hamming", "radix2"],
                   default="hamming")
    p.add_argument("--resolution", type=int, default=8)
    p.add_argument("--bits", type=int, default=4)
    p.add_argument("--format", choices=["ising", "qubo"], default="qubo")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("anneal-sim", help="dense Ising-machine emulation")
    p.add_argument("--model", required=True)
    p.add_argument("--schedule", choices=_SCHEDULES,
                   default="nesterov_nonconvex")
    p.add_argument("--stepsize", type=float, default=1e-3)
    p.add_argument("--tf", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--physical", action="store_true",
                   help="calibrate envelopes against the machine preset")
    p.add_argument("--a0-over-h", type=float,
                   default=bench.MACHINE_A0_OVER_H)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_anneal_sim)

    p = sub.add_parser("qp-gen", help="random QP instances")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sparsity", type=int, default=5)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_qp_gen)

    p = sub.add_parser("bench", help="full benchmark run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tts", help="time-to-solution metric")
    p.add_argument("--tf", type=float, required=True)
    p.add_argument("--ps", type=float, required=True)
    p.set_defaults(func=cmd_tts)

    p = sub.add_parser("tcount", help="digital T-gate resource estimate")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sparsity", type=int, default=5)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--qubits", type=int, choices=[3, 16, 32], default=3)
    p.set_defaults(func=cmd_tcount)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # every typed input error in errors.py is a ValueError; report it
        # on one line with argparse's exit status instead of a traceback
        parser.exit(2, f"qhdkit {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
