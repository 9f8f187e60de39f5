"""Start-up cost of a fresh process: importing lskit and the first BLAS call.

    python3 perfbench/startup.py   # prints [import_s, warm_up_s]

A process pays this once, so one sample per process is all a run would get;
`measure()` takes a sample in a new child process instead, as often as the
caller asks, and the set-up median is taken over those.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def warm_up():
    """First BLAS/LAPACK call (thread start-up), so no timed command pays it."""
    import numpy as np
    import scipy.linalg

    a = np.random.default_rng(0).standard_normal((256, 256))
    scipy.linalg.eigh(a + a.T)
    return float((a @ a).sum())


def measure():
    """(import_s, warm_up_s) of a new interpreter with this one's environment."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__)], capture_output=True, text=True,
                          check=True, timeout=120, cwd=os.path.dirname(HERE))
    import_s, warm_up_s = json.loads(done.stdout.splitlines()[-1])
    return import_s, warm_up_s


def main():
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import lskit.cli  # noqa: F401  (everything a command needs)

    t1 = time.perf_counter()
    warm_up()
    print(json.dumps([t1 - t0, time.perf_counter() - t1]))


if __name__ == "__main__":
    main()
