"""Wrappers installed around homspec's public functions from outside the
package: a set-up probe for untraced runs and a span recorder for traced ones.

Functions are replaced in every ``homspec`` module namespace that holds them
(``from .signal import scan`` binds a second name) and methods on their class;
:func:`patched` restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

now = time.perf_counter

# (module, attribute) of the calls that end set-up: the first quadrature or
# evolution call of an operation.
COMPUTE_ENTRIES = (
    ("homspec.signal", "coincidence"),
    ("homspec.signal", "scan"),
    ("homspec.oracle", "evolve_perturbative"),
)

# Public calls traced per layer; the layer is the defining module.
TRACED = (
    ("homspec.biphoton", "BiphotonAmplitude.time_value"),
    ("homspec.biphoton", "BiphotonAmplitude.time_support"),
    ("homspec.biphoton", "default_grid"),
    ("homspec.biphoton", "build_jsa"),
    ("homspec.biphoton", "from_frequency_values"),
    ("homspec.biphoton", "to_time_domain"),
    ("homspec.model", "LiouvilleOperatorSet.__init__"),
    ("homspec.model", "CorrelatorExpansion.build"),
    ("homspec.model", "CorrelatorExpansion.evaluate"),
    ("homspec.pathways", "term_table"),
    ("homspec.signal", "default_quadrature"),
    ("homspec.signal", "reference_time"),
    ("homspec.signal", "coincidence"),
    ("homspec.signal", "term_value"),
    ("homspec.signal", "scan"),
    ("homspec.signal", "SignalGrid.serialize"),
    ("homspec.oracle", "evolve_perturbative"),
    ("homspec.oracle", "fourth_order_coincidence"),
    ("homspec.cli", "main"),
    ("homspec.cli", "load_config"),
    ("homspec.cli", "run"),
    ("homspec.crosscheck", "three_level_benchmark"),
    ("homspec.crosscheck", "run_benchmark"),
    ("homspec.crosscheck", "evolve_benchmark_kets"),
)

Wrap = Callable[[str, str, Callable], Callable]


def _homspec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "homspec" or name.startswith("homspec."))]


@contextlib.contextmanager
def patched(targets: Sequence[Tuple[str, str]], wrap: Wrap) -> Iterator[None]:
    """Replace each target by ``wrap(layer, name, current)`` until exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for modname, path in targets:
            mod = sys.modules[modname]
            layer = modname.rpartition(".")[2]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(wrap(layer, path, raw.__func__))
                else:
                    new = wrap(layer, path, raw)
                undo.append((cls, attr, raw))
                setattr(cls, attr, new)
            else:
                current = getattr(mod, path)
                new = wrap(layer, path, current)
                for m in _homspec_modules():
                    for key, value in list(vars(m).items()):
                        if value is current:
                            undo.append((m, key, value))
                            setattr(m, key, new)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


class SetupDone(Exception):
    """Raised by an armed probe at the first compute call (set-up only runs)."""


class Probe:
    """Time of the first compute call of the current operation."""

    def __init__(self) -> None:
        self.first: Optional[float] = None
        self.abort = False

    def arm(self, abort: bool = False) -> None:
        self.first = None
        self.abort = abort

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if self.first is None:
                self.first = now()
            if self.abort:
                raise SetupDone(f"{layer}.{name}")
            return fn(*args, **kwargs)
        return entry

    def installed(self):
        return patched(COMPUTE_ENTRIES, self._wrap)


@dataclass
class Span:
    id: int
    name: str                 # "<layer>.<function>"
    layer: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    workload: str
    op: int
    attrs: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size_attrs(name: str, args, kwargs) -> Dict[str, int]:
    if name.endswith(".time_value") or name.endswith(".evaluate"):
        return {"points": int(max(np.size(a) for a in args[1:]))}
    if name == "scan":
        return {"workers": int(kwargs.get("workers") or 0)}
    return {}


class Tracer:
    """In-memory span recorder.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    with an empty stack (a scan worker) takes as parent the innermost span
    open on the thread that started the operation, which is blocked in
    ``scan`` while its points run, so every point stays tied to its scan and
    its operation.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.op = -1
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: List[int] = []
        self._root_thread = threading.get_ident()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._root_thread = threading.get_ident()
        self._root_stack = self._stack()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        owner, _, attr = name.rpartition(".")
        span_name = f"{layer}.{owner if attr == '__init__' else attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._root_thread and self._root_stack:
                parent = self._root_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                self.spans.append(Span(sid, span_name, layer, start, end, parent,
                                       threading.get_ident(), self.workload,
                                       self.op, _size_attrs(name, args, kwargs)))
        return traced

    def installed(self):
        return patched(TRACED, self._wrap)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children on other threads may overlap one another, so the covered part is
    the union of the children's intervals clipped to the parent's.
    """
    by_id = {s.id: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(p.id, []).append((lo, hi))
    return {s.id: s.duration - _covered(children.get(s.id, [])) for s in spans}
