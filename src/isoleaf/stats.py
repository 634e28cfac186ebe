"""Run statistics: stage durations, counters and results of one run.

Reporting is off by default.  `collect` switches it on for the duration of
a ``with`` block and yields the run's record, a dict.  `span`, `count` and
`record` add to the record of the enclosing block and do nothing outside
one, so the library calls them at its entry points; they are never called
inside field arithmetic or series loops.

The record holds the keyword fields given to `collect`, ``spans`` (stage
name -> summed seconds, ``total`` for the whole block), ``counts`` (counter
name -> total) and any key set by `record`.
"""

from __future__ import annotations

import contextlib
import contextvars
from time import perf_counter

__all__ = ["collect", "span", "count", "record"]

# the record of the innermost `collect` block of this context, or None
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("isoleaf_stats", default=None)
_OFF = contextlib.nullcontext()


@contextlib.contextmanager
def collect(**fields):
    """Collect a record for the block; yields it."""
    rec = {**fields, "spans": {}, "counts": {}}
    token = _CURRENT.set(rec)
    t0 = perf_counter()
    try:
        yield rec
    finally:
        rec["spans"]["total"] = perf_counter() - t0
        _CURRENT.reset(token)


def span(name: str):
    """A context manager that adds its duration to ``spans[name]``."""
    rec = _CURRENT.get()
    return _OFF if rec is None else _timed(rec["spans"], name)


@contextlib.contextmanager
def _timed(spans: dict, name: str):
    t0 = perf_counter()
    try:
        yield
    finally:
        spans[name] = spans.get(name, 0.0) + perf_counter() - t0


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to ``counts[name]``."""
    rec = _CURRENT.get()
    if rec is not None:
        rec["counts"][name] = rec["counts"].get(name, 0) + n


def record(key: str, value) -> None:
    """Set ``key`` of the record to ``value``."""
    rec = _CURRENT.get()
    if rec is not None:
        rec[key] = value
