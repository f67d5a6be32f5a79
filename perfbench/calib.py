"""Host-speed calibration kernel, run as a helper process.

The host this benchmark runs on drifts in speed by tens of percent over
windows of a few seconds.  The benchmark therefore times a fixed kernel
in this helper just before and just after each block of requests, while
the program's process waits on the pipe, and scales each raw duration
by ``reference / measured``.  The helper never imports ``dissipate``,
so nothing the program leaves running can slow the reference.

The kernel is made of the kinds of work the workloads do:

* an interpreted float loop (the Jacobi sweeps of ``pointwise``),
* many numpy calls on 3x3 arrays (per-node dispatch overhead),
* complex arithmetic on arrays of a few thousand elements (the
  falsifier's functional evaluations),
* a sparse LU factorization and triangular solves (``semigroup``).

Interpreted work slows more than memory-bound sparse work when the host
slows, so each workload is calibrated by the components that match it
(``MIX``): a kernel that slowed more than the workload would
over-correct it whenever the host is slow.  The selected components run
repeatedly, so that every workload's kernel lasts about the same time.

Protocol on stdin/stdout, one line each: ``calib.py WORKLOAD`` prints
``ready`` and the reference time after a warm-up run; every input line
runs the kernel once and answers with its duration in seconds; end of
input stops the helper.

Run ``python3 perfbench/calib.py --reference`` on a quiet host to print
each component's median over 200 runs.
"""

import sys
import time

import numpy as np
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

# Median time of each component on the reference host (2-vCPU Intel Xeon
# VM, Python 3.11, numpy 2.4, scipy 1.17), from ``--reference``.
# Corrected figures are in seconds of that host running at that speed.
REFERENCE_S = {
    "interpreted": 0.003522,
    "small_arrays": 0.003515,
    "medium_arrays": 0.005119,
    "sparse_lu": 0.004838,
}

MIX = {
    "verdicts": ("interpreted", "small_arrays"),
    "falsify": ("interpreted", "small_arrays", "medium_arrays", "sparse_lu"),
    "evolve": ("medium_arrays", "sparse_lu"),
}

_RNG = np.random.default_rng(12345)
_VEC_A = _RNG.standard_normal(4096) + 1j * _RNG.standard_normal(4096)
_VEC_B = _RNG.standard_normal(4096) + 1j * _RNG.standard_normal(4096)
_MAT3 = _RNG.standard_normal((3, 3))
_LAP1 = diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(40, 40))
_SYSTEM = (identity(1600) - 1e-3 * (kron(_LAP1, identity(40)) + kron(identity(40), _LAP1))).tocsc()
_RHS = _RNG.standard_normal(1600)


def _interpreted():
    a = [[1.0, 0.5, 0.25], [0.5, 2.0, 0.125], [0.25, 0.125, 3.0]]
    s = 0.0
    for k in range(2500):
        for i in range(3):
            for j in range(3):
                s += a[i][j] * (k % 7) - 0.5 * s * 1e-9
    return s


def _small_arrays():
    m = _MAT3
    acc = 0.0
    for _ in range(700):
        sym = 0.5 * (m + m.T)
        acc += float(np.abs(sym).max()) + float(sym.trace())
    return acc


def _medium_arrays():
    x = _VEC_A
    for _ in range(40):
        x = np.exp(0.01j * x.real) * _VEC_B + x * 0.5
        x = x / (1.0 + np.abs(x))
    return float(np.sum(x.real))


def _sparse_lu():
    lu = splu(_SYSTEM)
    y = _RHS
    for _ in range(10):
        y = lu.solve(y)
    return float(y[0])


COMPONENTS = {
    "interpreted": _interpreted,
    "small_arrays": _small_arrays,
    "medium_arrays": _medium_arrays,
    "sparse_lu": _sparse_lu,
}


def kernel(names):
    """Run the named components, each 4 / len(names) times; return the
    duration in seconds."""
    repeat = 4 // len(names)
    t0 = time.perf_counter()
    for name in names:
        for _ in range(repeat):
            COMPONENTS[name]()
    return time.perf_counter() - t0


def reference(names):
    return sum(REFERENCE_S[name] for name in names) * (4 // len(names))


def _serve(workload):
    names = MIX[workload]
    kernel(names)
    kernel(names)
    sys.stdout.write(f"ready {reference(names)!r}\n")
    sys.stdout.flush()
    for _ in sys.stdin:
        sys.stdout.write(f"{kernel(names)!r}\n")
        sys.stdout.flush()


def _reference(runs=200):
    for name in COMPONENTS:
        times = sorted(kernel((name,) * 4) for _ in range(runs))
        print(f"{name}: median {times[runs // 2] / 4:.6f} s, quartiles "
              f"{times[runs // 4] / 4:.6f} / {times[3 * runs // 4] / 4:.6f} s over {runs} runs")


if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        _reference()
    else:
        _serve(sys.argv[1])
