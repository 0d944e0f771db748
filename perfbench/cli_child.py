"""Run one leviroots CLI call with the span tracer installed.

    python perfbench/cli_child.py OUT.json ARG...

Behaves like ``python -m leviroots.cli ARG...`` on stdout and exit status,
and writes the per-layer totals and spans of the call to
OUT.json.  Run from the checkout root with PYTHONPATH=src.
"""

import json
import sys

from tracer import Tracer

if __name__ == "__main__":
    import leviroots.cli as cli

    tracer = Tracer()
    with tracer:
        code = cli.run(sys.argv[2:])
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({
            "layers": tracer.layer_totals(),
            "counts": tracer.counts,
            "absent": tracer.absent,
            "spans": tracer.spans,
        }, fh)
    sys.exit(code)
