"""Pin the benchmark to one CPU with single-threaded numeric libraries.

This module imports nothing heavy: pin() must run before numpy is loaded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Thread settings of the numeric libraries while pinned to one CPU.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Pinning:
    """What pin() changed, so that a command can run without it."""

    cpus: set[int]
    env: dict[str, str | None]


def pin() -> Pinning:
    """Run this process and every process it starts on one CPU, with one BLAS thread.

    The CPUs of a shared host change speed independently of each other, so
    the reference kernel only tracks the speed the program sees when both
    run on the same CPU; one BLAS thread keeps a pinned process from
    contending with itself. Must run before numpy is imported.
    """
    cpus = os.sched_getaffinity(0)
    pinning = Pinning(cpus, {name: os.environ.get(name) for name in ONE_THREAD})
    os.environ.update(ONE_THREAD)
    os.sched_setaffinity(0, {max(cpus)})
    return pinning
