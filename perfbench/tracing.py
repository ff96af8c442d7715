"""Span tracing around calls into netradar, installed from outside `src/`.

A `Tracer` replaces a function at the name its callers look it up by (a
module attribute, or a class attribute for methods) with a wrapper that
records one span per call: name, start, end and the span it was called
from.  Spans live in flat arrays while the run lasts and are written out
at the end.  Optional observers see each call's arguments and result, to
count work where it happens.  `restore` puts every original back.
"""
from __future__ import annotations

import contextlib
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, observe=None):
        """Return `fn` wrapped to record a span named `name`; `observe`,
        if given, is called as observe(args, kwargs, result) after the span
        closes."""
        name_id = self._name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr (a module or class attribute; plain functions
        and classmethods) with its traced wrapper."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, observe))
        else:
            replacement = self.wrap(original, name, observe)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, install):
        """Run `install(self)`, then the body, then restore the originals."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    def __len__(self) -> int:
        return len(self.name)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """{span name: (calls, total seconds, self seconds)}."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        selfs = self_times(durations, self.parent)
        out: dict[str, list] = {}
        for name_id, duration, own in zip(self.name, durations, selfs):
            entry = out.setdefault(self.names[name_id], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path) -> None:
        """One line per span: id, name, start, end, parent id (-1 at top)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i, (n, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{self.names[n]}\t{s:.9f}\t{e:.9f}\t{p}\n")


def self_times(durations, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest on one thread, so a parent's children never overlap and
    their durations add up to the part of the parent they cover."""
    covered = [0.0] * len(durations)
    for duration, parent in zip(durations, parents):
        if parent >= 0:
            covered[parent] += duration
    return [d - c for d, c in zip(durations, covered)]
