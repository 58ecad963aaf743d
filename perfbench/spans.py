"""Spans around the public functions of treeca's modules, from outside.

Tracer.install() replaces each target function at every name that binds
it in any loaded treeca module (from-imports copy the name, so
treeca.analysis.linalg_report and treeca.rulematrix.linalg_report are
both patched), and TreeShape methods on the class. Each call records a
span (id, parent, name, start, end, thread, n, |V_n|, p, extra) in
memory; a per-thread stack gives the parent, and sweep's pool threads
inherit the span that submitted them. uninstall() restores every name.
"""
from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from treeca import analysis, cli, dynamics, field, rulematrix, tree
from treeca.dynamics import Configuration
from treeca.rulematrix import Params, RuleMatrix
from treeca.tree import TreeShape

FIELDS = ("id", "parent", "name", "start", "end", "thread", "n", "V_n", "p", "extra")


def _level(size: int) -> int | None:
    """n with |V_n| = size, or None."""
    n = ((size - 1) // 3 + 1).bit_length() - 1
    return n if size == 1 + 3 * (2**n - 1) else None


def _nvp_for(fn):
    """Extractor of (n, |V_n|, p) from a call's arguments, where they say."""
    names = list(inspect.signature(fn).parameters)
    i_n = names.index("n") if "n" in names else None
    i_p = names.index("p") if "p" in names else None

    def nvp(args, kwargs):
        n, p = _nvp(args, kwargs)
        if i_n is not None:
            n = args[i_n] if len(args) > i_n else kwargs.get("n", n)
        if i_p is not None:
            p = args[i_p] if len(args) > i_p else kwargs.get("p", p)
        return n, (None if n is None else 1 + 3 * (2**n - 1)), p

    return nvp


def _nvp(args, kwargs) -> tuple:
    n = p = None
    for v in (*args, *kwargs.values()):
        if isinstance(v, (RuleMatrix, Configuration)):
            n, p = v.shape.n, v.p
        elif isinstance(v, TreeShape):
            n = v.n
        elif isinstance(v, Params):
            p = v.p
        elif isinstance(v, np.ndarray) and v.ndim == 2 and n is None:
            n = _level(v.shape[0])
    return n, p


def _prime_nvp(args, kwargs):
    return None, None, args[0]


def _shape_nvp(args, kwargs):
    return args[0].n, args[0].total_vertices, None


def _rref_extra(args, kwargs, result):
    return {"cells": int(args[0].shape[0] * args[0].shape[1])}


def _garden_extra(args, kwargs, result):
    return {"found": len(result.sample_garden_configs)}


def _probe_extra(args, kwargs, result):
    params, shape = args[0], kwargs.get("truncation", args[2] if len(args) > 2 else None)
    return {"configs": params.p ** shape.total_vertices}


def _sweep_extra(args, kwargs, result):
    return {"threads": kwargs.get("threads", args[1] if len(args) > 1 else 1)}


# (module, attribute, span name, extra) -- public functions of each layer
TARGETS = [
    (field, "is_prime", "field.is_prime", None),  # its argument is p, not a level
    (rulematrix, "build_rule_matrix", "rulematrix.build", None),
    (rulematrix, "det_mod", "rulematrix.det_mod", None),
    (rulematrix, "det_mod_p", "rulematrix.det_mod_p", None),
    (rulematrix, "rref_mod", "rulematrix.rref_mod", _rref_extra),
    (rulematrix, "rank_mod_p", "rulematrix.rank_mod_p", None),
    (rulematrix, "linalg_report", "rulematrix.linalg_report", None),
    (rulematrix, "invert", "rulematrix.invert", None),
    (rulematrix, "kernel_basis_mod", "rulematrix.kernel_basis_mod", None),
    (rulematrix, "kernel_basis", "rulematrix.kernel_basis", None),
    (rulematrix, "solve", "rulematrix.solve", None),
    (rulematrix, "format_matrix", "rulematrix.format", None),
    (rulematrix, "parse_matrix", "rulematrix.parse_matrix", None),
    (dynamics, "step_local", "dynamics.step_local", None),
    (dynamics, "step_matrix", "dynamics.step_matrix", None),
    (dynamics, "evolve", "dynamics.evolve", None),
    (dynamics, "preimages", "dynamics.preimages", None),
    (dynamics, "enumerate_preimages", "dynamics.enumerate_preimages", None),
    (dynamics, "garden_report", "dynamics.garden", _garden_extra),
    (dynamics, "bijectivity_oracle", "dynamics.bijectivity_oracle", None),
    (dynamics, "exhaustive_image_size", "dynamics.exhaustive_image_size", None),
    (dynamics, "format_config", "dynamics.format_config", None),
    (dynamics, "parse_config", "dynamics.parse_config", None),
    (dynamics, "trace_to_json", "dynamics.trace_to_json", None),
    (analysis, "classify", "analysis.classify", None),
    (analysis, "sweep", "analysis.sweep", _sweep_extra),
    (analysis, "records_to_csv", "analysis.records_to_csv", None),
    (analysis, "records_to_json", "analysis.records_to_json", None),
    (analysis, "det_formula_n2", "analysis.det_formula_n2", None),
    (analysis, "det_formula_n3", "analysis.det_formula_n3", None),
    (analysis, "entropy_sequence", "analysis.entropy_sequence", None),
    (analysis, "partition_atom_count", "analysis.probe", _probe_extra),
    (analysis, "table1_check", "analysis.table1_check", None),
    (cli, "main", "cli.main", None),
]
# TreeShape's index arithmetic, patched on the class
METHODS = [(m, "tree.index") for m in ("parent_index", "child_indices", "linear_index",
                                       "address_of")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.events: list[tuple[str, int]] = []  # (name, cells); append is thread-safe
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, name, extra, nvp):
        spans, ids, stack = self.spans, self._ids, self._stack

        def wrapper(*args, **kwargs):
            st = stack()
            sid = next(ids)
            parent = st[-1] if st else None
            st.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                t1 = time.perf_counter()
                st.pop()
                spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                              *nvp(args, kwargs), {"error": getattr(exc, "code", "exception")}))
                raise
            t1 = time.perf_counter()
            st.pop()
            spans.append((sid, parent, name, t0, t1, threading.get_ident(), *nvp(args, kwargs),
                          None if extra is None else extra(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_under(self, parent, fn, *args, **kwargs):
        st = self._stack()
        st.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            st.pop()

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "treeca" or k.startswith("treeca.")]
        for mod, attr, name, extra in TARGETS:
            orig = getattr(mod, attr)
            nvp = _prime_nvp if orig is field.is_prime else _nvp_for(orig)
            wrapped = self._wrap(orig, name, extra, nvp)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._undo.append((m, k, v))
                        setattr(m, k, wrapped)
        for meth, name in METHODS:
            orig = getattr(TreeShape, meth)
            self._undo.append((TreeShape, meth, orig))
            setattr(TreeShape, meth, self._wrap(orig, name, None, _shape_nvp))
        self._patch_counter(TreeShape, "__post_init__", "tree.TreeShape", lambda obj: 0)
        self._patch_counter(RuleMatrix, "__post_init__", "rulematrix.dense",
                            lambda obj: obj.order ** 2)
        tracer = self

        class SpanPool(ThreadPoolExecutor):
            """Pool whose tasks run under the span that submitted them."""

            def submit(self, fn, /, *args, **kwargs):
                st = tracer._stack()
                return super().submit(tracer._run_under, st[-1] if st else None,
                                      fn, *args, **kwargs)

        self._undo.append((analysis, "ThreadPoolExecutor", analysis.ThreadPoolExecutor))
        analysis.ThreadPoolExecutor = SpanPool

    def _patch_counter(self, cls, meth, name, cells):
        orig = getattr(cls, meth)
        events = self.events

        def counted(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            events.append((name, cells(obj)))

        self._undo.append((cls, meth, orig))
        setattr(cls, meth, counted)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.events.clear()



def write_spans(spans, path) -> None:
    """One JSON object per line, keyed by FIELDS."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(FIELDS, s))) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    kids = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            kids[s[1]].append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - _union([(max(a, s[3]), min(b, s[4]))
                                          for a, b in kids.get(s[0], ())])
            for s in spans}


DET = ("rulematrix.det_mod", "rulematrix.det_mod_p")
RREF = ("rulematrix.rref_mod", "rulematrix.rank_mod_p", "rulematrix.kernel_basis_mod",
        "rulematrix.kernel_basis", "rulematrix.solve", "rulematrix.invert",
        "rulematrix.linalg_report")


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    """Per-layer counts and self times (ms) of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def self_ms(*names):
        return 1e3 * sum(own[s[0]] for n in names for s in by_name[n])

    def rung_ms(name, n):
        vals = [own[s[0]] for s in by_name[name] if s[6] == n]
        return 1e3 * statistics.median(vals) if vals else 0.0

    def extra_sum(name, key):
        return sum((s[9] or {}).get(key, 0) for s in by_name[name])

    span_of = {s[0]: s for s in spans}

    def under(s, name):
        while s[1] is not None:
            s = span_of.get(s[1])
            if s is None:
                return False
            if s[2] == name:
                return True
        return False

    garden_solves = sum(under(s, "dynamics.garden") for s in by_name["rulematrix.solve"])
    busy = wall = 0.0
    for s in by_name["analysis.sweep"]:
        threads = (s[9] or {}).get("threads", 1)
        wall += threads * (s[4] - s[3])
        busy += sum(c[4] - c[3] for c in by_name["analysis.classify"] if c[1] == s[0])
    m = {
        "rulematrix.det.calls": calls("rulematrix.det_mod"),
        "rulematrix.det.self_ms": self_ms(*DET),
        "rulematrix.rref.calls": calls("rulematrix.rref_mod"),
        "rulematrix.rref.self_ms": self_ms(*RREF),
        "rulematrix.rref.cells": extra_sum("rulematrix.rref_mod", "cells"),
    }
    m.update({f"rulematrix.det.ms.n{n}": rung_ms("rulematrix.det_mod", n) for n in (6, 7, 8, 9)})
    m.update({f"rulematrix.rref.ms.n{n}": rung_ms("rulematrix.rref_mod", n) for n in (6, 7, 8)})
    m.update({
        "rulematrix.build.calls": calls("rulematrix.build"),
        "rulematrix.build.self_ms": self_ms("rulematrix.build"),
        "rulematrix.dense_cells": sum(c for n, c in tracer.events if n == "rulematrix.dense"),
        "rulematrix.format.self_ms": self_ms("rulematrix.format"),
        "tree.index.calls": calls("tree.index"),
        "tree.index.self_ms": self_ms("tree.index"),
        "tree.TreeShape.calls": sum(n == "tree.TreeShape" for n, _ in tracer.events),
        "field.is_prime.calls": calls("field.is_prime"),
        "field.is_prime.self_ms": self_ms("field.is_prime"),
        "dynamics.step_local.calls": calls("dynamics.step_local"),
        "dynamics.step_local.self_ms": self_ms("dynamics.step_local"),
        "dynamics.trace_to_json.self_ms": self_ms("dynamics.trace_to_json"),
        "dynamics.parse_config.self_ms": self_ms("dynamics.parse_config"),
        "dynamics.garden.self_ms": self_ms("dynamics.garden"),
        "dynamics.garden.solve_calls": garden_solves,
        "dynamics.garden.hit_ratio": (extra_sum("dynamics.garden", "found") / garden_solves
                                      if garden_solves else 0.0),
        "dynamics.preimages.self_ms": self_ms("dynamics.preimages"),
        "analysis.probe.self_ms": self_ms("analysis.probe"),
        "analysis.probe.configs": extra_sum("analysis.probe", "configs"),
        "analysis.classify.calls": calls("analysis.classify"),
        "analysis.classify.self_ms": self_ms("analysis.classify"),
        "analysis.sweep.self_ms": self_ms("analysis.sweep"),
        "analysis.sweep.busy_ratio": busy / wall if wall else 0.0,
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
    })
    return m
