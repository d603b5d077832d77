"""In-memory span recorder for the traced run of the lifecycle benchmark.

The program carries no tracing of its own on these paths, so the traced
run wraps the public functions of each layer from here: instance
attributes on the built objects, and class attributes where the program
creates the objects itself (``SnapshotStore`` handles reopened on every
refresh, ``ReadIndex``/``HistoryIndex`` builds).  :meth:`Tracer.restore`
puts every original back.

A span records name, start, end, parent, thread and the phase id the
benchmark was in (``setup-N``, ``release-N``, ``cycle-NN``,
``burst-NN``).  The parent is the innermost open span of the calling
thread; a pool thread with no open span of its own is working for the
orchestrating thread, so its spans hang under that thread's innermost
open span (``classify_batch`` fans its stage generators out that way).

Two times come out of a span set:

* **self time** -- a span's duration minus the union of its child
  intervals.  The union matters because the pool threads of
  ``classify_batch`` overlap.
* **wall share** -- every instant of a phase is split equally between
  the spans that are open and have no open child at that instant.  The
  shares of one phase add up to its wall time by construction.
  :func:`phase_report` attributes a share to a layer only when its span
  is, or is nested in, a span that a per-layer metric reads; the rest
  (the benchmark's catch-all spans and its code between calls) is
  *unattributed*, and that is what the check bounds.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span id, name, start, end, parent id, thread id, phase, count)
Span = Tuple[int, str, float, float, Optional[int], int, str, int]

#: Span-name prefix of the benchmark's own phase roots.
PHASE_PREFIX = "phase."
#: Marks an attribute that :meth:`Tracer.wrap` found missing.
_ABSENT = object()


class Tracer:
    """Collects spans in memory; see the module doc."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "start"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             count: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``;
        ``count(args, kwargs, result)`` gives the span's work count."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        span_id = next(self._ids)
        phase = self.phase
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        units = count(args, kwargs, result) if count is not None else 1
        self.spans.append((span_id, name, start, end, parent,
                           threading.get_ident(), phase, units))
        return result

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span (for calls the benchmark makes)."""
        return self.call(name, fn, args, kwargs)

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``owner`` is a class (the wrapper is installed on the class and
        sees ``self`` as its first argument; classmethods stay
        classmethods), or an instance or a module (the attribute is
        replaced in its ``__dict__``).
        """
        tracer = self
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, count)

            setattr(owner, attr,
                    classmethod(wrapper) if is_classmethod else wrapper)
            self._patches.append((owner, attr, original, True))
        else:
            bound = getattr(owner, attr)

            @functools.wraps(bound)
            def wrapper(*args, **kwargs):
                return tracer.call(name, bound, args, kwargs, count)

            previous = owner.__dict__.get(attr, _ABSENT)
            owner.__dict__[attr] = wrapper
            self._patches.append((owner, attr, previous, False))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, on_class = self._patches.pop()
            if on_class:
                setattr(owner, attr, original)
            elif original is _ABSENT:
                owner.__dict__.pop(attr, None)
            else:
                owner.__dict__[attr] = original


def write(spans: List[Span], path: str) -> None:
    """Write spans as gzipped JSON lines."""
    keys = ("id", "name", "start", "end", "parent", "thread", "phase",
            "count")
    with gzip.open(path, "wt") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_of(name: str) -> str:
    """``whois.parsed`` -> ``whois``."""
    return name.split(".", 1)[0]


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {span[0]: (span[2], span[3]) for span in spans}
    for span in spans:
        parent = span[4]
        if parent in bounds:
            low, high = bounds[parent]
            children[parent].append((max(span[2], low), min(span[3], high)))
    return {
        span[0]: (span[3] - span[2]) - _union(children.get(span[0], []))
        for span in spans
    }


def wall_shares(spans: List[Span]) -> Dict[int, float]:
    """Span id -> the wall time attributed to it (see the module doc)."""
    events = []
    for span in spans:
        events.append((span[2], 1, span[0]))
        events.append((span[3], 0, span[0]))
    events.sort()
    parent_of = {span[0]: span[4] for span in spans}
    shares: Dict[int, float] = defaultdict(float)
    open_spans: Dict[int, None] = {}
    last = None
    for moment, opening, span_id in events:
        if last is not None and open_spans and moment > last:
            parents = {parent_of[sid] for sid in open_spans}
            leaves = [sid for sid in open_spans if sid not in parents]
            piece = (moment - last) / len(leaves)
            for sid in leaves:
                shares[sid] += piece
        last = moment
        if opening:
            open_spans[span_id] = None
        else:
            open_spans.pop(span_id, None)
    return shares


def _attributed(spans: List[Span], names) -> Dict[int, bool]:
    """Span id -> whether the span, or a span it is nested in, is named
    in ``names``."""
    name_of = {span[0]: span[1] for span in spans}
    parent_of = {span[0]: span[4] for span in spans}
    known: Dict[int, bool] = {}
    for span in spans:
        chain = []
        sid: Optional[int] = span[0]
        verdict = False
        while sid is not None and sid in name_of:
            if sid in known:
                verdict = known[sid]
                break
            chain.append(sid)
            if name_of[sid] in names:
                verdict = True
                break
            sid = parent_of[sid]
        for member in chain:
            known[member] = verdict
    return known


#: Row-name prefix of the spans whose time no per-layer metric covers.
UNATTRIBUTED = "(unattributed) "


def phase_report(spans: List[Span], attributed: Dict[str, frozenset]):
    """Per phase kind (``setup``, ``release``, ``cycle``): rows of calls,
    total, self and wall-share seconds summed over the kind's
    instances, plus each instance's wall time and unattributed share.

    ``attributed[kind]`` names the spans that the kind's per-layer
    metrics read.  A span that is, or is nested in, one of them belongs
    to the row of its layer.  Any other span belongs to an
    ``(unattributed) <span name>`` row: the benchmark's catch-all spans
    (their self time and whatever is nested in them without a metric)
    and the phase roots (the benchmark's code between calls).

    Returns ``{kind: {"instances": [(phase, wall, unattributed share)],
    "rows": {row: {"calls", "total_s", "self_s", "wall_s"}}}}``.
    ``total_s`` sums the durations of a row's outermost spans (a span
    nested in a span of the same row counts once); ``calls`` counts
    those outermost spans.
    """
    by_phase: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_phase[span[6]].append(span)
    report: Dict[str, dict] = {}
    selfs = self_times(spans)
    for phase, members in by_phase.items():
        roots = [s for s in members if s[1].startswith(PHASE_PREFIX)]
        if not roots:
            continue
        kind = phase.rsplit("-", 1)[0]
        covered = _attributed(members, attributed.get(kind, frozenset()))
        row_of = {
            span[0]: (layer_of(span[1]) if covered[span[0]]
                      else UNATTRIBUTED + span[1])
            for span in members
        }
        entry = report.setdefault(kind, {"instances": [], "rows": {}})
        wall = sum(root[3] - root[2] for root in roots)
        shares = wall_shares(members)
        unattributed = 0.0
        for span in members:
            name = row_of[span[0]]
            row = entry["rows"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                       "wall_s": 0.0})
            row["self_s"] += selfs[span[0]]
            row["wall_s"] += shares.get(span[0], 0.0)
            if row_of.get(span[4]) != name:
                row["calls"] += 1
                row["total_s"] += span[3] - span[2]
            if not covered[span[0]]:
                unattributed += shares.get(span[0], 0.0)
        entry["instances"].append(
            (phase, wall, unattributed / wall if wall else 0.0))
    return report
