"""Run one qhdkit benchmark workload, check its outputs and print metrics.

    python3 perfbench/run.py --workload levy-2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; qhdkit is imported from ``src/``. After a
set-up sample the workload repeats whole rounds for about ``--seconds``.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics of the traced rounds. Run
outputs, trace files and a BENCH record land in ``perfbench/out/``. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

#: BLAS threads, fixed before numpy loads so runs compare on any core count
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("levy-2d", "convex-512", "qp-tts", "analog-anneal")

#: set-up is repeated once before the rounds and once after each, at least
#: this many times a run, and its median reported
SETUP_REPEATS = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))

#: engine rates over the untraced rounds, keyed by workload
RATES = {"qhd_steps_per_s": "steps/s", "qaa_steps_per_s": "steps/s",
         "gd_iters_per_s": "iterations/s", "qp_instances_per_s": "instances/s",
         "anneal_steps_per_s": "steps/s"}

#: traced functions and the per-round statistics kept for each
TRACED = {
    "dynamics.qhd_evolve": ("s", "calls", "steps", "us_per_step",
                            "node_steps", "fft_gflop"),
    "dynamics.qaa_evolve": ("s", "steps", "us_per_step"),
    "dynamics.radix2_problem": ("s",),
    "mesh.discretize_objective": ("s", "calls"),
    "mesh.sample_positions": ("s",),
    "objectives.qp_eval_grad": ("s", "calls"),
    "classical.nagd_run": ("s",),
    "classical.sgd_run": ("s",),
    "classical.ensemble_stats": ("s",),
    "spectral.build_hamiltonian": ("s",),
    "spectral.lowest_eigenpairs": ("s",),
    "spectral.probability_spectrum": ("s",),
    "spectral.lyapunov_W": ("s", "calls"),
    "ising.simulate_ising_dense": ("s", "steps", "us_per_step"),
    "ising.relaxed_qhd_evolve": ("s", "steps", "us_per_step"),
    "ising.hamming_encode_qp": ("s",),
    "ising.format_model": ("s",),
    "ising.parse_model": ("s",),
    "ising.ising_energies": ("s",),
    "ising.decode_samples": ("s",),
    "bench.generate_qp": ("s",),
    "bench.multistart_refine": ("s",),
    "bench.local_refine": ("s", "calls"),
    "cli.simulate-qhd": ("s",),
    "cli.simulate-qaa": ("s",),
    "cli.classical": ("s",),
    "cli.qp-gen": ("s",),
    "cli.encode": ("s",),
}
UNITS = {"s": "s", "calls": "count", "steps": "count", "us_per_step": "us",
         "node_steps": "count", "fft_gflop": "GFLOP"}
LAYERS = ("mesh", "objectives", "dynamics", "classical", "spectral",
          "ising", "bench", "cli")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in output order."""
    spec = [(f"{fn}.{key}", UNITS[key])
            for fn, keys in TRACED.items() for key in keys]
    spec += [(f"{layer}.self_s", "s") for layer in LAYERS]
    spec += [("classical.iters", "count"), ("classical.us_per_iter", "us"),
             ("bench.evals_per_refine", "count"),
             ("bench.p_s.relaxed_qhd", "fraction"),
             ("bench.p_s.uniform_grid", "fraction"),
             ("cli.bytes_written", "bytes"), ("trace.calls", "count"),
             ("trace_overhead_s", "s")]
    spec += list(RATES.items())
    return spec


def layer_values(stats, n, layer, rates, overhead, bytes_written):
    """Per-round per-layer values from the tracer's statistics over ``n``
    traced rounds; 0 for a layer the workload does not run."""
    def get(fn, key):
        return stats.get(fn, {}).get(key, 0) / n

    def per_step(fn, steps):
        return get(fn, "self_s") / steps * 1e6 if steps else 0.0

    vals = {}
    for fn, keys in TRACED.items():
        for key in keys:
            if key == "s":
                vals[f"{fn}.s"] = get(fn, "self_s")
            elif key == "us_per_step":
                vals[f"{fn}.us_per_step"] = per_step(fn, get(fn, "steps"))
            else:
                vals[f"{fn}.{key}"] = get(fn, key)
    for name in LAYERS:
        vals[f"{name}.self_s"] = sum(v["self_s"] for fn, v in stats.items()
                                     if fn.split(".")[0] == name) / n
    iters = get("classical.nagd_run", "steps") + get("classical.sgd_run",
                                                     "steps")
    gd_s = get("classical.nagd_run", "self_s") + get("classical.sgd_run",
                                                     "self_s")
    refines = get("bench.local_refine", "calls")
    vals.update({
        "classical.iters": iters,
        "classical.us_per_iter": gd_s / iters * 1e6 if iters else 0.0,
        "bench.evals_per_refine": (get("objectives.qp_eval_grad", "calls")
                                   / refines if refines else 0.0),
        "bench.p_s.relaxed_qhd": layer.get("bench.p_s.relaxed_qhd", 0.0),
        "bench.p_s.uniform_grid": layer.get("bench.p_s.uniform_grid", 0.0),
        "cli.bytes_written": bytes_written,
        "trace.calls": sum(v["calls"] for v in stats.values()) / n,
        "trace_overhead_s": overhead,
    })
    vals.update({name: rates.get(name, 0.0) for name in RATES})
    return vals


def import_qhdkit():
    if not (SRC / "qhdkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qhdkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qhdkit
    if pathlib.Path(qhdkit.__file__).resolve().parent != SRC / "qhdkit":
        sys.exit(f"perfbench: qhdkit came from {qhdkit.__file__}, not {SRC}")
    return qhdkit


def import_seconds():
    """Time to import qhdkit in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import qhdkit; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def _blas_threads():
    import numpy
    import scipy
    counts = {}
    for pkg in (numpy, scipy):
        libdir = pathlib.Path(pkg.__file__).parent.with_suffix(".libs")
        for path in glob.glob(str(libdir / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts[pathlib.Path(path).name] = fn()
                    break
    return counts


def environment():
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "qhdkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = _blas_threads()
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {k: min(v, nproc) for k, v in blas.items()},
            # numpy.fft (pocketfft) runs on the calling thread only
            "fft_threads": 1}


def run_round(wl, state, out, tracer):
    from workloads import Round
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rnd = Round(out)
    outputs = None
    if tracer:
        tracer.install()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        outputs = wl.run(state, rnd)
    except Exception:   # counted as failed operations; the run goes on
        traceback.print_exc()
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        if tracer:
            tracer.uninstall()
    failures = wl.check(state, outputs, out) if outputs is not None else []
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"traced": tracer is not None, "wall": wall, "cpu": cpu,
            "done": rnd.done, "failures": failures, "work": rnd.work,
            "layer": rnd.layer, "bytes": written}


def measure(name, seed, seconds, trace):
    import_qhdkit()
    import workloads
    from tracing import Tracer
    wl = workloads.WORKLOADS[name]()

    imports, builds = [], []

    def set_up():
        imports.append(import_seconds())
        start = time.perf_counter()
        built = wl.setup(seed)
        builds.append(time.perf_counter() - start)
        return built

    state = set_up()
    out = OUT / f"{name}-seed{seed}"
    tracer = Tracer() if trace else None
    rounds = []
    start = time.perf_counter()

    def more():
        # a round starts only if it should end nearer to --seconds than
        # stopping now does, so a run lasts about --seconds on any workload
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / len(rounds) / 2 < seconds

    while len(rounds) < (2 if trace else 1) or more():
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(wl, state, out, tracer if traced else None))
        # set-up samples spread over the run see the machine at the same
        # speeds as the rounds do, not only at its speed of the first second
        set_up()
    while len(imports) < SETUP_REPEATS:
        set_up()
    setup_s = statistics.median(imports) + statistics.median(builds)

    plain = [r for r in rounds if not r["traced"]]
    # with two to four rounds a run, their mean varies less from run to
    # run than their median does while the machine's speed drifts
    wall_s = statistics.mean(r["wall"] for r in plain)
    rates = {}
    for rate in RATES:
        units = sum(r["work"].get(rate, (0, 0.0))[0] for r in plain)
        secs = sum(r["work"].get(rate, (0, 0.0))[1] for r in plain)
        if units:
            rates[rate] = units / secs
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        overhead = statistics.mean(r["wall"] for r in traced_rounds) - wall_s
        values = layer_values(tracer.stats, len(traced_rounds),
                              rounds[-1]["layer"], rates, overhead,
                              rounds[-1]["bytes"])
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in per_layer_spec()}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": peak}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}

    env = environment()
    hashes = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes())
              .hexdigest() for p in sorted(out.rglob("*")) if p.is_file()}
    print(f"# {name} seed={seed} rounds={len(rounds)} env={json.dumps(env)}")
    for path, digest in hashes.items():
        print(f"# sha256 {digest} {path}")
    shown = dict(metrics) if trace else dict(
        metrics, **{r: {"value": v, "unit": RATES[r]}
                    for r, v in rates.items()})
    for metric, entry in shown.items():
        print(f"# {name} {metric} = {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": not any(r["failures"] for r in rounds),
        "attempted": len(rounds) * wl.OPS,
        "failed": sum(wl.OPS - r["done"] for r in rounds),
        "metrics": metrics,
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "rates": rates,
              "setup": {"import_s": imports, "build_s": builds},
              "rounds": [{k: r[k] for k in ("traced", "wall", "cpu", "done",
                                            "failures", "bytes")}
                         for r in rounds],
              "sha256": hashes, "result": result}
    (OUT / f"bench-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    if trace:
        tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                     {"workload": name, "seed": seed,
                      "rounds": len([r for r in rounds if r["traced"]])})
    return result


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: {name} exited with {done.returncode}")
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        res = results[name]
        print(f"# {name}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        result = run_all(args)
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
