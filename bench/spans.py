"""In-memory spans and counters around calls into hyphodge's public functions.

The tracer replaces a function at every module attribute bound to it (the
modules import their collaborators by name, so ``cli.profile_closed`` and
``recursion.profile_closed`` are separate binding sites) and restores them
all on ``uninstall``.  Nothing inside the package is edited.

A span is a name, start, end, parent and line id, kept in parallel arrays
(a traced run holds around a million spans).  Its parent is the index of the
span that was open when it started, and the line id is the input line being
answered.  Spans are recorded in order of start.  The pipe is single
threaded with no queue of its own, so spans nest strictly and no layer has a
waiting time to report.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable


class Tracer:
    """Spans and counters for one traced run; ``line`` is set by the caller."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.line_of = array("l")
        self.counts: Counter[str] = Counter()
        self.line = -1
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.line_of.append(self.line)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def timed(
        self, name: str, fn: Callable, size: Callable[[Any], int] | None = None
    ) -> Callable:
        """Span every call to ``fn``; with ``size``, also sum ``size(result)``
        into ``counts[name + ".size"]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if size is not None:
                counts[name + ".size"] += size(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Count calls to ``fn`` without a span (for very frequent calls)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_everywhere(self, fn: Callable, wrapper: Callable, package: str) -> None:
        """Rebind ``fn`` to ``wrapper`` in every loaded module of ``package``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """All spans as gzipped TSV, times in ns from the first span's start."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\tline\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[i]]}\t{round((self.start[i] - t0) * 1e9)}\t"
                    f"{round((self.end[i] - t0) * 1e9)}\t{self.parent[i]}\t{self.line_of[i]}\n"
                )


def self_times(start, end, parent) -> array:
    """Each span's duration minus the part of it covered by its children.

    Spans must be listed in order of start, as the tracer records them; the
    union of the child intervals is taken, clipped to the parent.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))
