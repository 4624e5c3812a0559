"""Span tracing around the calls into each ``cclab`` layer.

Spans are recorded from outside the program: every traced function is
replaced, at every module or class attribute that holds it, by a wrapper
that records a span (name, start, end, parent span, unit id). Callers that
look the function up at call time, including function-local imports such
as the ones in ``population_bound_check``, therefore see the wrapper.
Nothing under ``src/`` is modified; ``uninstall`` restores every
attribute.

Spans stay in memory until the run ends, in flat typed arrays so that
recording allocates no objects the garbage collector has to scan;
``aggregate`` turns them into per-name call counts, inclusive time and
self time (inclusive time minus the time covered by direct child spans).
Counting work done by the tracer itself (outcomes, checkpoint bytes) is
recorded as its own ``trace.counter`` span, so it is not charged to the
self time of the caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

UNIT_SPAN = "harness.unit"
COUNTER_SPAN = "trace.counter"  # the tracer's own counting, kept out of its parent's self time

# Public functions traced, as (span name, owner path, attribute).
# The owner path names where the function is defined; every other
# attribute in the cclab package that holds the same object is patched too.
TRACED = [
    ("core.positive_pairs", "cclab.core", "positive_pairs"),
    ("core.negative_combos", "cclab.core", "negative_combos"),
    ("core.mixture", "cclab.core", "mixture"),
    ("core.TableModel.embed", "cclab.core.TableModel", "embed"),
    ("losses.population_contrastive", "cclab.losses", "population_contrastive"),
    ("losses.population_distillation", "cclab.losses", "population_distillation"),
    ("losses.decomposition_residual", "cclab.losses", "decomposition_residual"),
    ("losses.empirical_contrastive", "cclab.losses", "empirical_contrastive"),
    ("losses.empirical_distillation", "cclab.losses", "empirical_distillation"),
    ("bounds.lemma1_trials", "cclab.bounds", "lemma1_trials"),
    ("bounds.decomposition_check_trials", "cclab.bounds", "decomposition_check_trials"),
    ("bounds.theorem1_upper", "cclab.bounds", "theorem1_upper"),
    ("bounds.theorem1_lower", "cclab.bounds", "theorem1_lower"),
    ("bounds.compute_U", "cclab.bounds", "compute_U"),
    ("bounds.turning_point", "cclab.bounds", "turning_point"),
    ("trainer.Encoder.forward", "cclab.trainer.Encoder", "forward"),
    ("trainer.Encoder.snapshot", "cclab.trainer.Encoder", "snapshot"),
    ("trainer.grad_total", "cclab.trainer", "grad_total"),
    ("trainer.sgd_step", "cclab.trainer", "sgd_step"),
    ("trainer.save_checkpoint", "cclab.trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "cclab.trainer", "load_checkpoint"),
    ("continual.run_sequence", "cclab.continual", "run_sequence"),
    ("continual.run_task", "cclab.continual", "run_task"),
    ("continual.augment", "cclab.continual", "augment"),
    ("continual.linear_probe", "cclab.continual", "linear_probe"),
    ("continual.population_bound_check", "cclab.continual", "population_bound_check"),
    ("data.make_blob_sequence", "cclab.data", "make_blob_sequence"),
    ("cli.main", "cclab.cli", "main"),
]

CCLAB_MODULES = ("cclab", "cclab.core", "cclab.losses", "cclab.bounds",
                 "cclab.trainer", "cclab.continual", "cclab.data", "cclab.cli")


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def _outcome_counter(sig: inspect.Signature):
    """Counter of the P * n^k ordered outcomes of one population-loss call:
    P same-class ordered pairs times n^k ordered negative tuples over the
    support. Reads ``dist`` and ``k`` by position and keeps the pair count
    of the last distribution seen, since consecutive calls share it."""
    names = list(sig.parameters)
    i_dist, i_k = names.index("dist"), names.index("k")
    k_default = sig.parameters["k"].default
    last = [None, 0]  # distribution, its ordered same-class pair count

    def outcomes(args, kwargs) -> int:
        dist = args[i_dist] if len(args) > i_dist else kwargs["dist"]
        k = args[i_k] if len(args) > i_k else kwargs.get("k", k_default)
        if dist is not last[0]:
            _, counts = np.unique(dist.labels, return_counts=True)
            last[:] = [dist, int((counts.astype(np.int64) ** 2).sum())]
        return last[1] * dist.size ** int(k)

    return outcomes


class Tracer:
    """In-memory span recorder plus the attribute patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []  # span name by name id
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # index of the enclosing span, -1 at the root
        self.unit_of = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self.unit_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit_of.append(self.unit_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def unit(self, unit_id: int):
        """Root span of one benchmark unit."""
        self.unit_id = unit_id
        idx = self._open(self._intern(UNIT_SPAN))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self._intern(name)
        counter_nid = self._intern(COUNTER_SPAN)
        sig = inspect.signature(fn)
        counter = None
        if name in ("losses.population_contrastive", "losses.population_distillation"):
            outcomes = _outcome_counter(sig)

            def counter(args, kwargs, result):
                tracer.counters["losses.outcomes"] += outcomes(args, kwargs)
        elif name == "trainer.save_checkpoint":
            def counter(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                tracer.counters["trainer.checkpoint_bytes"] += os.path.getsize(
                    bound.arguments["path"]
                )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                cidx = tracer._open(counter_nid)
                try:
                    counter(args, kwargs, result)
                finally:
                    tracer._close(cidx)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every attribute in the cclab package that holds a traced
        function; functions missing from this version are skipped."""
        if self._patches:
            return
        owners = [_resolve(m) for m in CCLAB_MODULES]
        for name, owner_path, attr in TRACED:
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                continue
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            wrapper = self._wrappers.get(name)
            if wrapper is None:
                wrapper = self._wrappers[name] = self._wrap(name, original)
            holders = owners + [owner] if inspect.isclass(owner) else owners
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def write(self, path: str, header: dict) -> None:
        """Write every span as one JSON document, times in seconds from the
        first span: one row of [name id, start, end, parent, unit] each."""
        t0 = self.start[0] if self.start else 0.0
        rows = [[self.name_id[i], self.start[i] - t0, self.end[i] - t0,
                 self.parent[i], self.unit_of[i]] for i in range(len(self.start))]
        doc = dict(header, span_fields=["name", "start_s", "end_s", "parent", "unit"],
                   names=self.names, spans=rows)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
