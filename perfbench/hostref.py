"""A fixed host-speed reference that shares no code with gapmodel.

The host this benchmark was tuned on switches between a fast and a slow
state every few seconds (readings of about 6 and 10 ms). Time metrics are
scaled by readings taken next to each timed item; see README.md.
"""

import math
import time


def python_loop_seconds():
    """Seconds for a fixed pure-Python loop; imports nothing."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(25000):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - t0


def _vector_kernel(np):
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(120):
        a = np.sqrt(a * a + 0.5) - 0.25
    return a


def _small_steps(np):
    # Python-level right-hand sides on tiny arrays, as an ODE stepper runs them
    y = np.array([0.1, 1.0])
    h = 1e-3
    for i in range(400):
        k = np.array([y[1], -math.sin(y[0]) * math.cos(i * h)])
        y = y + h * k
        float(np.max(np.abs(k)))
    return y


def host_reference():
    """Seconds for the whole reference: the Python loop, a numpy vector
    kernel, and small-array steps."""
    import numpy as np

    t0 = time.perf_counter()
    python_loop_seconds()
    _vector_kernel(np)
    _small_steps(np)
    return time.perf_counter() - t0
