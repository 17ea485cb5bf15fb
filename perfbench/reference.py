"""References that gauge how fast the machine runs right now.

On a few shared cores a CPU switches between a fast and a slow state (about
4.3 and 6.8 ms for the kernel below) every second or so, in wall and in CPU
time alike, as other tenants load the host; raw medians of runs minutes
apart differ by up to 30%. The benchmark runs pinned to one CPU
(pinning.py) and times references around the requests (workloads.Bracket);
run.py multiplies a request's time by ``NOMINAL_S[workload] / reference
time``, with the mean of the references right before and after it: the
request's time on a machine where the reference takes the nominal time.
Set-up probes are scaled the same way.

- ``cli`` commands and every workload's set-up probes: IMPORT_REFERENCE, a
  fresh interpreter importing numpy. Both are mostly interpreter start and
  import, which a numeric kernel does not track; a short reference on both
  sides of a command tracked it better than a longer one (numpy.fft and
  scipy.linalg) on one side.
- ``library``: kernel(), complex FFTs of a grid (the quantum channel),
  loading and running a compiled module and a plain interpreter loop.

Neither touches ``mixedframes``, so a change to the program leaves the
references alone. ``verify``, a 45 s run on every CPU, is not scaled:
``expm`` calls timed before and after it did not track it. The raw times
are printed in the detail line.
"""

from __future__ import annotations

import marshal
import sys
import time

import numpy as np

# Medians of the references on the 2-core x86-64 VM the benchmark was written
# on, by workload; set-up probes use the "cli" one.
NOMINAL_S = {"cli": 0.18, "library": 0.0065}

IMPORT_REFERENCE = [sys.executable, "-c", "import numpy"]

_SIGNAL = np.exp(2j * np.pi * 0.123 * np.arange(4096) ** 2 / 4096)
_MODULE = marshal.dumps(
    compile(
        "\n".join(f"def f{i}(x, y={i}):\n    return [x * y + k for k in range({i % 7})]" for i in range(150)),
        "<reference>",
        "exec",
    )
)


def kernel() -> float:
    spectrum = _SIGNAL
    for _ in range(10):
        spectrum = np.fft.ifft(np.fft.fft(spectrum))
    for _ in range(8):
        namespace: dict = {}
        exec(marshal.loads(_MODULE), namespace)
    total = 0
    for i in range(900):
        total += len(namespace[f"f{i % 150}"](i))
    return float(spectrum.real[0]) + total


def time_kernel() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
