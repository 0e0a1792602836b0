"""In-memory span recording around calls into the program's public functions.

A :class:`Tracer` wraps functions at class level (``install``), records one
span per call -- name, start, end, parent span and thread -- and keeps the
spans in memory until :meth:`Tracer.save` writes them once, at the end of
the run.  Every wrapper lives in this file: the program under test is never
edited, so an untraced run executes exactly the program's own code.

Self time is a span's duration minus the time its child spans cover.  Calls
on one thread nest strictly, so the children of a span never overlap and
their durations simply add up.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

#: ``size_of(args)`` gives the units of work one call carries (lanes in a
#: stacked call, misses in a cohort round); None counts each call as one.
SizeOf = Callable[[tuple], int] | None


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` recorded as span ``name``."""

    owner: type
    attr: str
    name: str
    size_of: SizeOf = None
    #: Count a call as one unit of work only when it returns a true value
    #: (a polled ``step() -> bool`` that found nothing to do counts zero).
    by_result: bool = False


class Tracer:
    """Records spans from wrapped calls and from explicit ``span`` blocks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One tuple per finished span: (id, name id, parent id, thread,
        # start ns, end ns, size).  list.append is atomic, so the serving
        # threads can record into the same list.
        self._spans: list[tuple[int, int, int, int, int, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[type, str, Any]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, size_of: SizeOf = None,
             by_result: bool = False) -> Callable:
        nid = self._name_id(name)
        spans = self._spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            size = 1 if size_of is None else size_of(args)
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if by_result:
                    size = 1 if result else 0
                end = clock()
                stack.pop()
                spans.append((sid, nid, parent, get_ident(), start, end, size))

        return traced

    def install(self, targets: Sequence[Target]) -> None:
        """Replace each target with its traced wrapper, at class level.

        Install before building any object: the program binds several of
        these methods once, at construction, so later patches miss them.
        """
        for target in targets:
            raw = inspect.getattr_static(target.owner, target.attr)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(self.wrap(
                    raw.__func__, target.name, target.size_of, target.by_result))
            else:
                wrapped = self.wrap(raw, target.name, target.size_of,
                                    target.by_result)
            self._restore.append((target.owner, target.attr,
                                  target.owner.__dict__.get(target.attr)))
            setattr(target.owner, target.attr, wrapped)

    def uninstall(self) -> None:
        """Put back every function :meth:`install` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, size: int = 1) -> Iterator[None]:
        """A ``with`` block recorded as one span (the benchmark's own roots)."""
        nid = self._name_id(name)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._spans.append((sid, nid, parent, threading.get_ident(), start,
                                end, size))

    def table(self) -> "SpanTable":
        return SpanTable.build(self.names, self._spans)

    def save(self, path: Path) -> None:
        """Write every span once, as compressed arrays (see ``SpanTable``)."""
        table = self.table()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name=table.name, parent=table.parent,
                            thread=table.thread, start_ns=table.start,
                            end_ns=table.end, size=table.size)


@dataclass
class SpanTable:
    """Spans as parallel arrays indexed by span id, with self times."""

    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    thread: np.ndarray
    start: np.ndarray
    end: np.ndarray
    size: np.ndarray
    self_ns: np.ndarray

    @classmethod
    def build(cls, names: list[str],
              spans: list[tuple[int, int, int, int, int, int, int]]
              ) -> "SpanTable":
        n = len(spans)
        cols = np.array(spans, dtype=np.int64).reshape(n, 7)
        order = np.argsort(cols[:, 0], kind="stable")
        cols = cols[order]
        if n and not np.array_equal(cols[:, 0], np.arange(n)):
            raise RuntimeError("span ids are not dense: a span never ended")
        threads = {ident: i for i, ident in enumerate(dict.fromkeys(cols[:, 3]))}
        dur = cols[:, 5] - cols[:, 4]
        child = np.zeros(n, dtype=np.int64)
        has_parent = cols[:, 2] >= 0
        np.add.at(child, cols[has_parent, 2], dur[has_parent])
        return cls(names=names, name=cols[:, 1], parent=cols[:, 2],
                   thread=np.array([threads[t] for t in cols[:, 3]],
                                   dtype=np.int64),
                   start=cols[:, 4], end=cols[:, 5], size=cols[:, 6],
                   self_ns=dur - child)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def select(self, name: str) -> np.ndarray:
        """Boolean mask of the spans called ``name`` (empty if none ran)."""
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def roots(self) -> np.ndarray:
        return self.parent < 0
