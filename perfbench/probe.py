"""Child process that times one fresh-interpreter step and prints seconds.

    python perfbench/probe.py setup WORKLOAD   import leviroots, build inputs
    python perfbench/probe.py import           import leviroots.cli only

Run from the checkout root with PYTHONPATH=src.
"""

import sys
import time

from workloads import setup

if __name__ == "__main__":
    start = time.perf_counter()
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        import leviroots.cli  # noqa: F401
    print(time.perf_counter() - start)
