"""Outside-in layer tracer: exact call counts, inclusive and self times.

The tracer patches timing wrappers over class methods and over the module
attributes the engine actually looks up (``repro.datacenter.model.
apply_rack_decisions``, not the defining module's copy), so no engine code
changes.  Aggregates are maintained online — count, inclusive total and self
time per ``(name, parent name)`` pair — with no span buffer, so totals stay
exact at any run length.

Every thread keeps its own nesting stack and its own aggregate table (no lock
on the hot path).  Work a traced call hands to a thread pool is adopted: the
pool's ``submit`` is patched so each task runs inside a *worker frame* named
after the submitting frame, so calls inside a task keep their real parent.

Self times are thread times.  A submitting frame is charged, as child time,
the wall-clock interval from its first task's start to its last task's end
(the time it waited on its pool); each worker frame's self time is its own
thread's busy time.  Summed over every thread, self times therefore equal the
traced wall time plus the *parallel excess* — task time beyond that wall
interval, which is what concurrent threads add — and ``coverage`` divides by
exactly that sum.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

_INHERITED = object()


@dataclass
class Aggregate:
    """Online totals of one ``(name, parent)`` pair, in nanoseconds."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    units: int = 0


class _Frame:
    __slots__ = ("name", "parent", "start", "child", "first_task", "last_task")

    def __init__(self, name: str, parent: str | None) -> None:
        self.name = name
        self.parent = parent
        self.start = 0
        self.child = 0
        # Wall interval covered by the pool tasks this frame submitted.
        self.first_task: int | None = None
        self.last_task = 0


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.active: dict[str, int] = {}
        self.table: dict[tuple[str, str | None], Aggregate] | None = None


class LayerTracer:
    """Patch-based tracer; :meth:`wrap` entry points, :meth:`uninstall` all.

    ``clock`` returns integer nanoseconds (``time.perf_counter_ns`` by
    default); tests substitute a deterministic one.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self._state = _ThreadState()
        self._tables: list[dict] = []
        self._task_ns = 0
        self._waited_ns = 0
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, weigh=None) -> None:
        """Time every call of ``owner.attr``.

        ``owner`` is a class (the method is wrapped for every instance, and
        timed as ``Class.attr``) or a module (the attribute the engine looks
        up there, timed as ``attr``).  ``weigh(args, kwargs)`` optionally
        returns work units to accumulate per call.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        name = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
        # An inherited method is shadowed on ``owner`` and deleted again later.
        original = raw if attr in vars(owner) else _INHERITED
        setattr(owner, attr, self._timed(raw, name, weigh))
        self._patches.append((owner, attr, original))

    def adopt_pool(self, module, attr: str = "ThreadPoolExecutor") -> None:
        """Replace ``module.attr`` by a pool whose tasks run in worker frames.

        Must be installed before the engine creates its pool.
        """
        tracer = self

        class AdoptingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._state.stack
                parent = stack[-1] if stack else None
                return super().submit(tracer._adopted, parent, fn, *args, **kwargs)

        original = inspect.getattr_static(module, attr)
        setattr(module, attr, AdoptingPool)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Hot path
    # ------------------------------------------------------------------ #
    def _table(self) -> dict:
        state = self._state
        if state.table is None:
            state.table = {}
            with self._lock:
                self._tables.append(state.table)
        return state.table

    def _record(self, frame: _Frame, duration: int, *, calls: int, total: int, units: int) -> None:
        table = self._state.table if self._state.table is not None else self._table()
        agg = table.get((frame.name, frame.parent))
        if agg is None:
            agg = table[(frame.name, frame.parent)] = Aggregate()
        agg.calls += calls
        agg.total_ns += total
        agg.self_ns += duration - frame.child
        agg.units += units

    def _timed(self, fn, name: str, weigh):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = tracer._state
            stack = state.stack
            frame = _Frame(name, stack[-1].name if stack else None)
            units = weigh(args, kwargs) if weigh is not None else 0
            depth = state.active.get(name, 0)
            state.active[name] = depth + 1
            stack.append(frame)
            frame.start = tracer._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer._clock() - frame.start
                stack.pop()
                state.active[name] = depth
                if frame.first_task is not None:
                    waited = frame.last_task - frame.first_task
                    frame.child += waited
                    with tracer._lock:
                        tracer._waited_ns += waited
                if stack:
                    stack[-1].child += duration
                # Recursion: only the outermost call adds inclusive time.
                tracer._record(
                    frame, duration, calls=1, total=duration if depth == 0 else 0, units=units
                )

        return timed

    def _adopted(self, parent: _Frame | None, fn, *args, **kwargs):
        """Run one pool task inside a worker frame named after its submitter."""
        if parent is None:
            return fn(*args, **kwargs)
        stack = self._state.stack
        frame = _Frame(parent.name, parent.parent)
        stack.append(frame)
        frame.start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            duration = end - frame.start
            with self._lock:
                self._task_ns += duration
                if parent.first_task is None or frame.start < parent.first_task:
                    parent.first_task = frame.start
                parent.last_task = max(parent.last_task, end)
            self._record(frame, duration, calls=0, total=0, units=0)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def summary(self) -> "Summary":
        """All threads' tables merged per ``(name, parent)``."""
        merged: dict[tuple[str, str | None], Aggregate] = {}
        with self._lock:
            tables = list(self._tables)
            task_ns, waited_ns = self._task_ns, self._waited_ns
        for table in tables:
            for key, agg in table.items():
                into = merged.setdefault(key, Aggregate())
                into.calls += agg.calls
                into.total_ns += agg.total_ns
                into.self_ns += agg.self_ns
                into.units += agg.units
        return Summary(merged, task_ns, waited_ns)


class Summary:
    """Read-side queries over one merged snapshot of the tracer's tables."""

    def __init__(self, aggregates: dict, task_ns: int = 0, waited_ns: int = 0) -> None:
        self.aggregates = aggregates
        self.task_s = task_ns / 1e9
        self.waited_s = waited_ns / 1e9

    def _sum(self, field: str, names, parent=...) -> int:
        if isinstance(names, str):
            names = (names,)
        return sum(
            getattr(agg, field)
            for (name, agg_parent), agg in self.aggregates.items()
            if name in names and (parent is ... or agg_parent == parent)
        )

    def calls(self, names, parent=...) -> int:
        """Calls of ``names`` (optionally only those under ``parent``)."""
        return self._sum("calls", names, parent)

    def total_s(self, names, parent=...) -> float:
        """Inclusive time of ``names`` (optionally only under ``parent``)."""
        return self._sum("total_ns", names, parent) / 1e9

    def self_s(self, names) -> float:
        """Self time of ``names`` over every thread."""
        return self._sum("self_ns", names) / 1e9

    def units(self, names) -> int:
        """Work units the ``weigh`` hook counted for ``names``."""
        return self._sum("units", names)

    def all_self_s(self) -> float:
        """Self time summed over every name and thread."""
        return sum(agg.self_ns for agg in self.aggregates.values()) / 1e9

    @property
    def parallel_excess_s(self) -> float:
        """Pool-task time beyond the wall intervals their submitters waited."""
        return self.task_s - self.waited_s
