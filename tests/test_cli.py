import contextlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import qhdkit as qk
from qhdkit.cli import main
from qhdkit.ising import parse_model


@contextlib.contextmanager
def _input_error(capsys, command, why):
    """Expect ``main`` to report an input error as argparse reports its own:
    one stderr line ``qhdkit <command>: error: ...`` matching ``why``, and
    exit status 2."""
    with pytest.raises(SystemExit) as exc:
        yield
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qhdkit {command}: error: ")
    assert err.count("\n") == 1
    assert re.search(why, err)


def test_tts_command(capsys):
    main(["tts", "--tf", "1.0", "--ps", "0.5"])
    assert capsys.readouterr().out.strip() == "7.0"


def test_tcount_command(capsys):
    main(["tcount", "--dim", "50", "--sparsity", "5", "--iters", "1000",
          "--qubits", "3"])
    assert capsys.readouterr().out.strip() == "549000000"


def test_simulate_qhd_writes_deterministic_csv(tmp_path):
    args = ["simulate-qhd", "--objective", "levy", "--resolution", "32",
            "--T", "1.0", "--dt", "0.01", "--snapshots", "0.5,1.0"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    csv_a = (tmp_path / "a" / "observables.csv").read_bytes()
    csv_b = (tmp_path / "b" / "observables.csv").read_bytes()
    assert csv_a == csv_b
    assert csv_a.splitlines()[0] == b"t,Ef,success_prob,norm"
    assert (tmp_path / "a" / "snapshot_0.5.json").exists()
    state = qk.WaveFunction.from_json(
        (tmp_path / "a" / "snapshot_1.json").read_text())
    assert state.mesh.cells_per_edge == 32


def test_simulate_qaa_writes_csv(tmp_path):
    main(["simulate-qaa", "--objective", "levy", "--bits", "3",
          "--T", "1.0", "--dt", "0.001", "--out", str(tmp_path)])
    lines = (tmp_path / "observables.csv").read_text().splitlines()
    assert lines[0] == "t,Ef,success_prob,norm"
    assert len(lines) > 10


def test_classical_command(tmp_path):
    args = ["classical", "--algo", "sgd", "--objective", "levy",
            "--step", "0.001", "--iters", "200", "--runs", "20",
            "--seed", "3"]
    main(args + ["--out", str(tmp_path / "x")])
    main(args + ["--out", str(tmp_path / "y")])
    a = (tmp_path / "x" / "ensemble.csv").read_bytes()
    b = (tmp_path / "y" / "ensemble.csv").read_bytes()
    assert a == b
    assert a.splitlines()[0] == b"t,success_frac,mean_loss"
    assert len(a.splitlines()) == 202


@pytest.mark.parametrize("flags, why", [
    (["--runs", "0"], "at least one run"),
    (["--radius", "-1"], "radius"),
    (["--iters", "-1"], "steps"),
    (["--step", "inf"], "stepsize must be finite and > 0, got inf"),
])
def test_classical_rejects_bad_input_before_any_iteration(
        flags, why, tmp_path, monkeypatch, capsys):
    def never(x):
        raise AssertionError("an iteration ran")

    levy = qk.get_objective("levy")
    monkeypatch.setattr(qk.objectives, "get_objective",
                        lambda name: qk.Objective(
                            dim=2, eval_fn=levy.eval_fn, grad_fn=never,
                            minimizer=levy.minimizer))
    for algo in ("nagd", "sgd"):
        with _input_error(capsys, "classical", why):
            main(["classical", "--algo", algo, "--iters", "5", "--runs", "3",
                  *flags, "--out", str(tmp_path)])
    assert not (tmp_path / "ensemble.csv").exists()


@pytest.mark.parametrize("argv, why", [
    (["simulate-qhd", "--resolution", "8", "--T", "inf"],
     "--T must be finite and > 0, got inf"),
    (["tts", "--tf", "nan", "--ps", "0.5"],
     "t_f must be finite and > 0, got nan"),
    (["simulate-qaa", "--bits", "4", "--T", "1", "--dt", "0.5"],
     "exceeds pi; reduce dt"),
], ids=["simulate-qhd-T-inf", "tts-tf-nan", "simulate-qaa-dt-0.5"])
def test_bad_real_inputs_end_on_one_line(argv, why, tmp_path, capsys):
    # simulate-qhd used to end in an OverflowError traceback, tts printed
    # nan and exited 0, and simulate-qaa's StabilityError was a traceback
    out = tmp_path / "out"
    with _input_error(capsys, argv[0], why):
        main(argv if argv[0] == "tts" else argv + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, why", [
    ("simulate-qhd", "--resolution", "0", "an integer >= 1, got 0"),
    ("simulate-qhd", "--T", "0", "finite and > 0, got 0.0"),
    ("simulate-qhd", "--dt", "nan", "finite and > 0, got nan"),
    ("simulate-qhd", "--stepsize", "-1", "finite and > 0, got -1.0"),
    ("spectrum", "--resolution", "-2", "an integer >= 1, got -2"),
    ("spectrum", "--dt", "inf", "finite and > 0, got inf"),
    ("spectrum", "--stepsize", "0", "finite and > 0, got 0.0"),
])
def test_split_step_commands_name_the_bad_flag(command, flag, value, why,
                                               tmp_path, monkeypatch, capsys):
    # used to name the library's parameter (cells_per_edge, T - t0, dt,
    # stepsize), and only once the library had been called
    def never(name):
        raise AssertionError("the library was called")

    monkeypatch.setattr(qk.objectives, "get_objective", never)
    out = tmp_path / "out"
    argv = [command, "--times", "0.01"] if command == "spectrum" else [command]
    with _input_error(capsys, command, "^qhdkit [a-z-]+: error: "
                      + re.escape(f"{flag} must be {why}") + "$"):
        main(argv + [flag, value, "--out", str(out)])
    assert not out.exists()


def test_qp_gen_and_encode_roundtrip(tmp_path):
    main(["qp-gen", "--dim", "3", "--sparsity", "3", "--count", "2",
          "--seed", "7", "--out", str(tmp_path / "instances")])
    files = sorted((tmp_path / "instances").glob("*.json"))
    assert len(files) == 2
    qp = qk.QpInstance.from_json(files[0].read_text())
    assert qp.dim == 3

    model_path = tmp_path / "model.txt"
    main(["encode", "--qp", str(files[0]), "--encoding", "hamming",
          "--resolution", "3", "--format", "qubo",
          "--out", str(model_path)])
    model, layout = parse_model(model_path.read_text())
    assert model.n == 9
    assert layout.encoding == "hamming" and layout.bits_per_var == 3
    # emitted energies must match the objective on decoded points
    from qhdkit.ising import bit_table, qubo_energies
    from qhdkit.objectives import qp_objective
    bits = bit_table(9).astype(float)
    P = np.kron(np.eye(3), layout.precision[None, :])
    vals = qp_objective(qp)(bits @ P.T)
    assert np.max(np.abs(qubo_energies(model) - vals)) < 1e-12

    ising_path = tmp_path / "model_ising.txt"
    main(["encode", "--qp", str(files[0]), "--encoding", "hamming",
          "--resolution", "3", "--format", "ising",
          "--out", str(ising_path)])
    imodel, _ = parse_model(ising_path.read_text())
    assert imodel.n == 9


@pytest.mark.parametrize("encoding, flag, field", [
    ("hamming", "--resolution", "--resolution"), ("radix2", "--bits", "bits")],
    # the Hamming id keeps the library's name r, which the message carried
    # before encode checked its flags
    ids=["hamming---resolution-r", "radix2---bits-bits"])
def test_encode_rejects_zero_bits_per_variable(encoding, flag, field,
                                               tmp_path, capsys):
    # --resolution 0 used to die with a ZeroDivisionError traceback
    main(["qp-gen", "--dim", "2", "--sparsity", "2", "--count", "1",
          "--seed", "1", "--out", str(tmp_path)])
    out = tmp_path / "m.txt"
    with _input_error(capsys, "encode", f"{field} must be an integer >= 1"):
        main(["encode", "--qp", str(next(tmp_path.glob("*.json"))),
              "--encoding", encoding, flag, "0", "--format", "qubo",
              "--out", str(out)])
    assert not out.exists()


def test_encode_checks_its_flag_before_reading_the_qp(tmp_path, capsys):
    # used to report the missing file, read before the flag was checked
    out = tmp_path / "m.txt"
    with _input_error(capsys, "encode", "^qhdkit encode: error: "
                      + re.escape("--bits must be an integer >= 1, got 0")
                      + "$"):
        main(["encode", "--qp", str(tmp_path / "nope.json"),
              "--encoding", "radix2", "--bits", "0", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("encoding, flag", [
    ("hamming", "--resolution"), ("radix2", "--bits")])
def test_anneal_sim_samples_one_machine_from_either_file(encoding, flag,
                                                         tmp_path):
    # the Hamming Ising file used to come from a second encoder whose
    # coefficients differed in the last bits, and so did the energies
    main(["qp-gen", "--dim", "3", "--sparsity", "3", "--count", "1",
          "--seed", "1", "--out", str(tmp_path)])
    csvs = []
    for fmt in ("qubo", "ising"):
        model = tmp_path / f"m.{fmt}"
        main(["encode", "--qp", str(tmp_path / "instance_000.json"),
              "--encoding", encoding, flag, "3", "--format", fmt,
              "--out", str(model)])
        csvs.append(tmp_path / f"samples_{fmt}.csv")
        main(["anneal-sim", "--model", str(model), "--tf", "2.0",
              "--dt", "0.01", "--shots", "200", "--seed", "5",
              "--out", str(csvs[-1])])
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


def test_anneal_sim_smoke(tmp_path):
    main(["qp-gen", "--dim", "2", "--sparsity", "2", "--count", "1",
          "--seed", "1", "--out", str(tmp_path)])
    qp_file = next(tmp_path.glob("*.json"))
    model_path = tmp_path / "m.txt"
    main(["encode", "--qp", str(qp_file), "--encoding", "hamming",
          "--resolution", "3", "--format", "qubo", "--out", str(model_path)])
    out_csv = tmp_path / "samples.csv"
    main(["anneal-sim", "--model", str(model_path), "--tf", "2.0",
          "--dt", "0.01", "--shots", "200", "--seed", "5",
          "--out", str(out_csv)])
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "bitstring,count,decoded,energy"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 200
    # determinism
    out2 = tmp_path / "samples2.csv"
    main(["anneal-sim", "--model", str(model_path), "--tf", "2.0",
          "--dt", "0.01", "--shots", "200", "--seed", "5",
          "--out", str(out2)])
    assert out_csv.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("shots", ["0", "-1"])
def test_anneal_sim_rejects_bad_shots_before_the_evolution(shots, tmp_path,
                                                           monkeypatch,
                                                           capsys):
    # -1 used to die in numpy's rng.choice after the whole evolution, and 0
    # wrote a header-only CSV
    main(["qp-gen", "--dim", "2", "--sparsity", "2", "--count", "1",
          "--seed", "1", "--out", str(tmp_path)])
    model_path = tmp_path / "m.txt"
    main(["encode", "--qp", str(next(tmp_path.glob("*.json"))),
          "--encoding", "hamming", "--resolution", "3", "--format", "qubo",
          "--out", str(model_path)])

    def never(t):
        raise AssertionError("the machine was evolved")

    env = qk.ising.AnnealEnvelope(time_dilation=1.0, t_f=2.0, a_over_h=never,
                                  b_over_h=never)
    monkeypatch.setattr(qk.ising, "schedule_envelope", lambda *a: env)
    monkeypatch.setattr(qk.ising, "anneal_rescale", lambda *a: env)
    out_csv = tmp_path / "samples.csv"
    for extra in ([], ["--physical"]):
        with _input_error(capsys, "anneal-sim", "--shots must be >= 1"):
            main(["anneal-sim", "--model", str(model_path), "--tf", "2.0",
                  "--dt", "0.01", "--shots", shots, "--out", str(out_csv),
                  *extra])
    assert not out_csv.exists()


def test_spectrum_command(tmp_path):
    main(["spectrum", "--objective", "levy", "--resolution", "24",
          "--times", "0.5,1.0", "--levels", "4", "--dt", "0.01",
          "--out", str(tmp_path)])
    spec = (tmp_path / "spectrum.csv").read_text().splitlines()
    ratios = (tmp_path / "ratios.csv").read_text().splitlines()
    assert spec[0] == "t,n,prob"
    assert ratios[0] == "t,E0,E1,ratio"
    assert len(ratios) == 3


def test_spectrum_linear_schedule_anneals_to_last_time(tmp_path):
    # the linear schedule's horizon is the largest time as a number: the
    # fraction is 1/2 at t=5 and 1 at t=10, so the two spectra differ
    main(["spectrum", "--resolution", "16", "--schedule", "linear",
          "--times", "0.5,1,2,5,10", "--levels", "2", "--dt", "1e-2",
          "--out", str(tmp_path)])
    rows = {line.split(",")[0]: line.split(",")[1:] for line in
            (tmp_path / "ratios.csv").read_text().splitlines()[1:]}
    assert rows["5.0"] != rows["10.0"]


@pytest.mark.parametrize("command", ["simulate-qhd", "simulate-qaa",
                                     "spectrum", "anneal-sim"])
def test_unknown_schedule_fails_at_parse_time(command, tmp_path, capsys):
    argv = [command, "--schedule", "nesterov", "--out", str(tmp_path)]
    if command == "spectrum":
        argv += ["--times", "1"]
    if command == "anneal-sim":
        argv += ["--model", str(tmp_path / "missing.txt")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'nesterov'" in capsys.readouterr().err


@pytest.mark.parametrize("schedule", ["nesterov_nonconvex",
                                      "nesterov_three_param"])
def test_simulate_qaa_rejects_descent_schedule(schedule, tmp_path, capsys):
    # QAA needs an annealing fraction; a descent schedule used to pass
    # parsing and fail only after the radix-2 problem was tabulated
    with pytest.raises(SystemExit) as exc:
        main(["simulate-qaa", "--bits", "4", "--schedule", schedule,
              "--T", "1", "--dt", "1e-2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"invalid choice: {schedule!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bench_command(tmp_path):
    cfg = {"dim": 2, "sparsity": 2, "n_instances": 1, "trials": 30,
           "master_seed": 4, "truth_resolution": 8,
           "solvers": [{"name": "exact_oracle", "t_f": 1.0}]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    lines = (tmp_path / "run" / "tts_summary.csv").read_text().splitlines()
    assert lines[0] == "instance,solver,tf_seconds,ps,tts_seconds"
    assert lines[1] == "0,exact_oracle,1.0,1.0,1.0"


@pytest.mark.parametrize("levels", ["40", "0", "-1"])
def test_spectrum_rejects_bad_levels_before_the_evolution(
        levels, tmp_path, monkeypatch, capsys):
    # 40 used to fail after the whole evolution, 0 wrote only residual rows
    # and -1 silently wrote one level
    def never(*args, **kwargs):
        raise AssertionError("the evolution ran")

    monkeypatch.setattr(qk.dynamics, "qhd_evolve", never)
    with _input_error(capsys, "spectrum", "--levels"):
        main(["spectrum", "--resolution", "16", "--times", "1",
              "--levels", levels, "--out", str(tmp_path)])
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("resolution, levels", [("2", "10"), ("3", "10"),
                                                ("2", "1")])
def test_spectrum_rejects_too_coarse_grid_before_the_evolution(
        resolution, levels, tmp_path, monkeypatch, capsys):
    # (r - 1)^d interior nodes must hold max(levels, 2) levels; the solver
    # used to find out only after the whole evolution had run
    def never(*args, **kwargs):
        raise AssertionError("the evolution ran")

    monkeypatch.setattr(qk.dynamics, "qhd_evolve", never)
    with _input_error(capsys, "spectrum", "interior nodes"):
        main(["spectrum", "--resolution", resolution, "--times", "0.01",
              "--dt", "1e-3", "--levels", levels, "--out", str(tmp_path)])
    assert not (tmp_path / "spectrum.csv").exists()


def test_simulate_qhd_off_grid_horizon_exits_2(tmp_path, capsys):
    # used to end in a StepGridError traceback with exit status 1; the
    # encode and classical input errors are checked the same way above
    with _input_error(capsys, "simulate-qhd", "not a whole number of steps"):
        main(["simulate-qhd", "--T", "1", "--dt", "0.3",
              "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_anneal_sim_model_without_layout_exits_2(tmp_path, capsys):
    # used to exit with status 1 and the bare message
    main(["qp-gen", "--dim", "2", "--sparsity", "2", "--count", "1",
          "--seed", "1", "--out", str(tmp_path)])
    model = tmp_path / "m.txt"
    main(["encode", "--qp", str(tmp_path / "instance_000.json"),
          "--resolution", "2", "--out", str(model)])
    model.write_text("".join(line for line in model.read_text()
                             .splitlines(keepends=True)
                             if not line.startswith("# layout")))
    capsys.readouterr()
    with _input_error(capsys, "anneal-sim", "no layout line"):
        main(["anneal-sim", "--model", str(model), "--tf", "0.1",
              "--dt", "0.01", "--out", str(tmp_path / "s.csv")])
    assert not (tmp_path / "s.csv").exists()


def test_anneal_sim_header_without_n_exits_2(tmp_path, capsys):
    # used to end in a KeyError traceback
    model = tmp_path / "m.txt"
    model.write_text("# qubo offset=0.0\n"
                     "# layout encoding=hamming vars=1 bits=2\n")
    with _input_error(capsys, "anneal-sim", "no n= field"):
        main(["anneal-sim", "--model", str(model), "--tf", "0.1",
              "--dt", "0.01", "--out", str(tmp_path / "s.csv")])
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command, flag", [
    ("encode", "--qp"), ("anneal-sim", "--model"), ("bench", "--config")])
def test_missing_input_file_ends_on_one_line(command, flag, tmp_path, capsys):
    # each used to end in a FileNotFoundError traceback with exit status 1
    missing = tmp_path / "nope.json"
    with _input_error(capsys, command, re.escape(str(missing))):
        main([command, flag, str(missing), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_commands_without_sparse_algebra_never_import_scipy(tmp_path):
    # scipy is imported inside the functions that use it; a fresh
    # interpreter that imports qhdkit and runs these commands never loads it
    main(["qp-gen", "--dim", "2", "--sparsity", "2", "--count", "1",
          "--seed", "1", "--out", str(tmp_path)])
    model = tmp_path / "m.txt"
    main(["encode", "--qp", str(tmp_path / "instance_000.json"),
          "--encoding", "hamming", "--resolution", "2", "--format", "qubo",
          "--out", str(model)])
    out = str(tmp_path / "out")
    calls = [
        ["simulate-qhd", "--resolution", "8", "--T", "0.1", "--dt", "0.01",
         "--out", out],
        ["simulate-qaa", "--bits", "2", "--T", "0.1", "--dt", "0.01",
         "--out", out],
        ["classical", "--algo", "nagd", "--iters", "5", "--runs", "2",
         "--out", out],
        ["anneal-sim", "--model", str(model), "--tf", "0.1", "--dt", "0.01",
         "--shots", "5", "--out", out + "/samples.csv"],
        ["tts", "--tf", "1", "--ps", "0.5"],
        ["tcount", "--dim", "5"],
    ]
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.'))\n"
        "import qhdkit\n"
        "from qhdkit.cli import main\n"
        "assert not scipy_modules(), ('import', scipy_modules())\n"
        f"for argv in {calls!r}:\n"
        "    main(argv)\n"
        "    assert not scipy_modules(), (argv[0], scipy_modules())\n")
    src = str(pathlib.Path(qk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
