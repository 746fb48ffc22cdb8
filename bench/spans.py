"""Spans around the calls the benchmark's workloads make into qkit.

The traced run replaces the module attributes that callers actually
look up (the CLI and the suites bind names with `from ... import`, so
each binding is wrapped separately) and restores them afterwards.
Nothing inside `src/` is touched.

A span records its name, start and end (perf_counter nanoseconds), the
index of its parent span and the run id of the pass it belongs to.
Spans stay in memory; `dump` writes them out once the run ends.  Work
counts (kernel terms, bytes, instances) are computed from the kept
arguments and results after the pass, outside every timed region.
"""
from __future__ import annotations

import json
import operator
import os
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, span name): every binding a workload's calls reach.
TARGETS = (
    ("cli", "read_pgm", "pgm.read"),
    ("cli", "write_pgm", "pgm.write"),
    ("cli", "read_coefficients", "cli.coef_read"),
    ("cli", "write_coefficients", "cli.coef_write"),
    ("cli", "luk_kernel", "fuzzy.kernel_build"),
    ("cli", "apply_direct", "transform.direct"),
    ("cli", "apply_inverse", "transform.inverse"),
    ("transform", "apply_direct", "transform.direct"),
    ("transform", "apply_inverse", "transform.inverse"),
    ("suites", "apply_direct", "transform.direct"),
    ("suites", "apply_inverse", "transform.inverse"),
    ("cli", "dilate_grey", "morphology.dilate"),
    ("cli", "erode_grey", "morphology.erode"),
    ("morphology", "dilate_grey", "morphology.dilate"),
    ("morphology", "erode_grey", "morphology.erode"),
    ("suites", "dilate_grey", "morphology.dilate"),
    ("suites", "erode_grey", "morphology.erode"),
    ("morphology", "kernel_of_structuring", "morphology.kernel_build"),
    ("suites", "kernel_of_structuring", "morphology.kernel_build"),
)

SUITE_NAMES = ("quantale", "module", "transform", "morphology")

# span name -> the per-layer metric that receives its self time
SELF_METRIC = {
    "cli.command": "cli.self_s",
    "cli.coef_read": "cli.coef_read_s",
    "cli.coef_write": "cli.coef_write_s",
    "pgm.read": "pgm.read_s",
    "pgm.write": "pgm.write_s",
    "fuzzy.kernel_build": "fuzzy.kernel_build_s",
    "transform.direct": "transform.direct_s",
    "transform.inverse": "transform.inverse_s",
    "morphology.dilate": "morphology.dilate_s",
    "morphology.erode": "morphology.erode_s",
    "morphology.kernel_build": "morphology.kernel_build_s",
    **{f"suites.{s}": f"suites.{s}_s" for s in SUITE_NAMES},
}

COUNTS = (
    "pgm.bytes",
    "fuzzy.kernel_builds",
    "fuzzy.kernel_entries",
    "fuzzy.kernel_nonbottom",
    "transform.direct_calls",
    "transform.direct_terms",
    "transform.inverse_calls",
    "transform.inverse_terms",
    "morphology.calls",
    "morphology.cell_terms",
    "morphology.kernel_entries",
    *(f"suites.{s}.instances" for s in SUITE_NAMES),
)

NAME, START, END, PARENT, RUN, KEPT = range(6)


def _nonbottom(kernel) -> int:
    bot = kernel.carrier.bot
    return sum(1 for row in kernel.rows for v in row if v != bot)


class Tracer:
    """In-memory span recorder that wraps qkit's layer functions."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0, 0, parent, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[KEPT] = (args, result)
            return result

        return traced

    def install(self, mods) -> None:
        """Wrap every target binding and each entry of suites.SUITES."""
        for mod_name, attr, name in TARGETS:
            mod = getattr(mods, mod_name)
            self._replace(setattr, mod, attr, getattr(mod, attr), name)
        suites = mods.suites.SUITES
        for key, fn in list(suites.items()):
            self._replace(operator.setitem, suites, key, fn, f"suites.{key}")

    def _replace(self, put, owner, key, fn, name) -> None:
        self._saved.append((put, owner, key, fn))
        put(owner, key, self._wrap(fn, name))

    def uninstall(self) -> None:
        """Put back every original the last install replaced."""
        while self._saved:
            put, owner, key, fn = self._saved.pop()
            put(owner, key, fn)

    def layers(self, first: int, wall_s: float) -> dict:
        """Per-layer metrics of the pass whose spans start at index `first`.

        Self time is a span's duration minus its children's; the self
        times of all layers plus `trace.unspanned_s` give `trace.wall_s`.
        Drops the kept arguments and results afterwards.
        """
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        top_ns = 0
        for rec in spans:
            dur = rec[END] - rec[START]
            if rec[PARENT] is None:
                top_ns += dur
            else:
                child_ns[rec[PARENT] - first] += dur
        out = {m: 0.0 for m in SELF_METRIC.values()}
        out.update(dict.fromkeys(COUNTS, 0))
        nonbottom = {}

        def terms(kernel):
            key = id(kernel)
            if key not in nonbottom:
                nonbottom[key] = _nonbottom(kernel)
            return nonbottom[key]

        for rec, child in zip(spans, child_ns):
            name = rec[NAME]
            out[SELF_METRIC[name]] += (rec[END] - rec[START] - child) / 1e9
            if rec[KEPT] is None:
                continue
            args, result = rec[KEPT]
            if name in ("pgm.read", "pgm.write"):
                out["pgm.bytes"] += os.path.getsize(args[0])
            elif name == "fuzzy.kernel_build":
                out["fuzzy.kernel_builds"] += 1
                out["fuzzy.kernel_entries"] += len(result.rows) * len(result.y_index)
                out["fuzzy.kernel_nonbottom"] += terms(result)
            elif name == "transform.direct":
                out["transform.direct_calls"] += 1
                out["transform.direct_terms"] += terms(args[0])
            elif name == "transform.inverse":
                out["transform.inverse_calls"] += 1
                out["transform.inverse_terms"] += terms(args[0])
            elif name in ("morphology.dilate", "morphology.erode"):
                out["morphology.calls"] += 1
                out["morphology.cell_terms"] += args[0].grid.size * len(args[1].entries)
            elif name == "morphology.kernel_build":
                out["morphology.kernel_entries"] += len(result.x_index) * len(result.y_index)
            elif name.startswith("suites."):
                out[f"{name}.instances"] += sum(r.checked for r in result)
        for rec in spans:  # the kept kernels pin the ids used as cache keys
            rec[KEPT] = None
        out["trace.wall_s"] = wall_s
        out["trace.unspanned_s"] = wall_s - top_ns / 1e9
        out["trace.spans"] = len(spans)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[NAME],
                            "start_ns": rec[START],
                            "end_ns": rec[END],
                            "parent": rec[PARENT],
                            "run": rec[RUN],
                        }
                    )
                    + "\n"
                )
