"""Host speed probe: a fixed kernel timed between the ops of a run.

On a 2-vCPU virtual machine of a shared host, the speed of any code drifts
by tens of percent over minutes. So each run also times a kernel that does
not touch rmcf, between its ops, and scales its times by how fast
the kernel ran against its reference time. The kernel is a fresh interpreter
importing numpy, scipy.integrate and jsonschema: the bulk of a fresh
``import rmcf.cli``, and, like rmcf's ops, interpreter work over a large
working set. Kernels with a small working set (a scipy RK45 solve with a
Python right-hand side, compiling a large generated module) tracked the
ops' drift worse, and adding them to the import kernel widened the spread.

The kernel is part of the benchmark, so a change to rmcf cannot move it.
"""

import statistics
import subprocess
import sys
import time

# mean seconds of one kernel on a 2-vCPU virtual machine (Intel Xeon, Python 3.11, scipy 1.17)
REFERENCE_S = 0.75


def kernel():
    """Run the kernel once; returns its wall seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.integrate, jsonschema"],
                   check=True)
    return time.perf_counter() - start


class Calibration:
    """The kernel times of one run."""

    def __init__(self):
        self.times = []

    def sample(self):
        """Run the kernel once; returns its wall seconds."""
        self.times.append(kernel())
        return self.times[-1]

    def factor(self):
        """Host slowness against the reference: 1.0 at reference speed, 1.2 when 20 % slower."""
        return statistics.fmean(self.times) / REFERENCE_S
