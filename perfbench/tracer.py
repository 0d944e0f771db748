"""Span tracer that wraps leviroots functions from outside the package.

Installing a ``Tracer`` replaces each traced function, in its home module
and in every ``leviroots`` module that imported it by name (such as
``checks.troot_system``), with a wrapper that records one span per call.
Spans stay in memory; the caller writes them out when the run ends.  A
layer's self time is its spans' duration minus the time covered by their
child spans, which the span stack links to them.  A name the code under
test no longer has is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, module, attributes).  The check laws are private helpers of
# checks; when they are merged or renamed they show up in ``absent``.
LAYERS = (
    ("rootsys.generate", "leviroots.rootsys", ("generate",)),
    ("levi.troot_system", "leviroots.levi", ("troot_system",)),
    ("exactlin.solve_many", "leviroots.exactlin", ("solve_many",)),
    ("exactlin.rank_of", "leviroots.exactlin", ("rank_of",)),
    ("series.grading", "leviroots.series", ("grading",)),
    ("series.closed_form_series", "leviroots.series", ("closed_form_series",)),
    ("series.lower_series_oracle", "leviroots.series", ("lower_series_oracle",)),
    ("series.upper_series_oracle", "leviroots.series", ("upper_series_oracle",)),
    ("checks.partition", "leviroots.checks", ("_check_partition",)),
    ("checks.weights", "leviroots.checks", ("_check_weights",)),
    ("checks.simples", "leviroots.checks", ("_check_simples",)),
    ("checks.brackets", "leviroots.checks", ("_check_brackets",)),
    ("checks.signs", "leviroots.checks", ("_check_signs",)),
    ("checks.strings", "leviroots.checks", ("_check_strings",)),
    ("checks.delta", "leviroots.checks", ("_check_delta",)),
    ("checks.check_designation", "leviroots.checks", ("check_designation",)),
    ("checks.check_node", "leviroots.checks", ("check_node",)),
    ("checks.check_type", "leviroots.checks", ("check_type",)),
    ("checks.check_document", "leviroots.checks", ("check_document",)),
    ("bds.extended_diagram", "leviroots.bds", ("extended_diagram",)),
    ("bds.delete_node", "leviroots.bds", ("delete_node",)),
    ("bds.classify", "leviroots.bds", ("classify",)),
    ("bds.subalgebra_roots", "leviroots.bds", ("subalgebra_roots",)),
    ("bds.maximal_equal_rank", "leviroots.bds", ("maximal_equal_rank",)),
    ("bds.residue_irreducibility", "leviroots.bds", ("residue_irreducibility",)),
    ("bds.residue_bracket_check", "leviroots.bds", ("residue_bracket_check",)),
    ("slnx.crosscheck", "leviroots.slnx", ("crosscheck",)),
    # the CLI's output layer: it serializes with json.dumps or a renderer
    ("cli.json_dumps", "json", ("dumps",)),
    ("cli.render_pretty", "leviroots.cli", (
        "_pretty_roots", "_pretty_troots", "_pretty_series", "_pretty_bds",
        "_pretty_maximal", "_pretty_sln", "_pretty_check",
    )),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)


def _spaces_of(report) -> int:
    return getattr(report, "counts", {}).get("troots", 0)


# layer -> (count name, function of the layer's return value)
COUNTERS = {"checks.check_designation": ("levi.spaces", _spaces_of)}


class Tracer:
    """Records (op, layer, parent span, start, end) for every traced call.

    Use as a context manager: entering installs the wrappers and leaving
    restores the original functions.  Set ``op`` to label the spans of one
    operation (a root system, a CLI call).
    """

    def __init__(self, op: str = ""):
        self.op = op
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, layer, parent, start, end)
            if counter is not None:
                name, count = counter
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        return traced

    def __enter__(self):
        self.absent = []
        for layer, module_name, attrs in LAYERS:
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                self.absent.extend(f"{module_name}.{a}" for a in attrs)
                continue
            holders = [home] + [
                mod for name, mod in list(sys.modules.items())
                if mod is not None and mod is not home
                and (name == "leviroots" or name.startswith("leviroots."))
            ]
            for attr in attrs:
                original = getattr(home, attr, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, original)
                for mod in holders:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
                            self._patches.append((mod, name, original))
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()
        return False

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Self time in seconds and call count per layer, every layer listed."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: {"s": 0.0, "calls": 0} for layer in LAYER_NAMES}
        for i, (_, layer, _, start, end) in enumerate(self.spans):
            totals[layer]["s"] += end - start - child[i]
            totals[layer]["calls"] += 1
        return totals
