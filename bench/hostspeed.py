"""Host-speed probe that puts the gated times on a common clock.

On a shared virtual machine the same Python code runs up to about 1.6x
slower or faster for stretches of seconds to hours, as other tenants load
the physical cores.  Such a shift moves every operation alike, so the worker
times a fixed kernel next to each operation (outside the timed region) and
divides each operation's time by the host's slowdown around it, the kernel
time over its reference time: a gated second is a second on a host where
the kernels take their reference times.

There are two kernels, one per kind of work the workloads are made of:
``python`` (scalar float arithmetic and small-array numpy calls, like the
zeta root finding) and ``numpy`` (a seeded normal draw and a matrix product,
like the Monte-Carlo estimate).  The worker times both before every
operation and divides the operation's time by the slowdown of the kernel
that does its kind of work (``Workload.probe``); a kernel of the other kind
follows the host less closely.  The kernels call nothing of ``outagebf``, so a change to
the package moves the scaled times by the same factor as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

SETUP_REPEATS = 9

_SMALL = np.random.default_rng(0).random(8)
_MAT = np.random.default_rng(1).standard_normal((64, 64))


def _python_kernel() -> float:
    s = 0.0
    for i in range(3000):
        x = 0.5 + (i % 13) * 0.01
        s += x * x / (1.0 + x) - x**0.5
    for _ in range(300):
        s += float(np.sum(_SMALL * 1.0001))
    return s


def _numpy_kernel() -> float:
    z = np.random.default_rng(5).standard_normal((2048, 64))
    return float((z @ _MAT).sum())


# kernel, and its seconds on the reference host
KERNELS = {"python": (_python_kernel, 0.003), "numpy": (_numpy_kernel, 0.0045)}


def sample(parts=tuple(KERNELS)) -> float:
    """One slowdown sample: wall time of the named kernels over their reference time."""
    t0 = time.perf_counter()
    s = sum(KERNELS[p][0]() for p in parts)
    dt = time.perf_counter() - t0
    if not np.isfinite(s):
        raise ArithmeticError("host-speed kernel produced a non-finite sum")
    return dt / sum(KERNELS[p][1] for p in parts)


def setup_slowdown() -> float:
    """Slowdown right after set-up (median of a few samples of both kernels).

    Set-up (interpreter start, imports, input generation) mixes both kinds of
    work, so every workload scales its ``setup_s`` by both kernels.
    """
    return float(np.median([sample() for _ in range(SETUP_REPEATS)]))
