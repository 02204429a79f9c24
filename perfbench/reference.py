"""One-off reference timings of single engine calls, for README.md.

    python3 perfbench/reference.py

Repeats the ad-hoc measurements the ROADMAP quotes: a split step at 128^2,
an NAGD iteration on Levy, relaxed_qhd_evolve at d=5, r=4 and qaa_evolve
at 12 bits, 1000 steps each. Prints the median of three calls. Not part of
the benchmark's metrics.
"""

import os
import pathlib
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import qhdkit as qk  # noqa: E402


def median_seconds(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    levy = qk.get_objective("levy")
    nesterov = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    mesh = qk.Mesh(2, 128, qk.PERIODIC)
    s = median_seconds(lambda: qk.qhd_evolve(mesh, levy, nesterov, 1.0,
                                             1e-3))
    print(f"qhd_evolve 128^2: {s / 1000 * 1e3:.3f} ms per split step")
    x0 = np.array([0.2, 0.8])
    s = median_seconds(lambda: qk.nagd_run(levy, x0, 1e-3, 2000))
    print(f"nagd_run on levy: {s / 2000 * 1e6:.1f} us per iteration")
    qp = qk.generate_qp(5, 5, seed=0)
    s = median_seconds(lambda: qk.relaxed_qhd_evolve(qp, 4, nesterov, 10.0,
                                                     1e-2))
    print(f"relaxed_qhd_evolve d=5 r=4, 1000 steps: {s:.3f} s")
    problem = qk.radix2_problem(levy, 6)
    linear = qk.make_schedule("linear_qaa", horizon=1.0)
    s = median_seconds(lambda: qk.qaa_evolve(problem.diag, linear, 1.0,
                                             1e-3))
    print(f"qaa_evolve 12 bits, 1000 steps: {s:.3f} s")


if __name__ == "__main__":
    main()
