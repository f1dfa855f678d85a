"""Deterministic simulated-time clock with category attribution.

Every component of the reproduction charges simulated nanoseconds here
instead of measuring wall-clock time.  This makes benchmark output
deterministic and — crucially for the paper's breakdown figures (Fig. 4,
Fig. 6, Fig. 17) — lets each charge be attributed to the category currently
on top of a scope stack ("transformation", "metadata", "gc", ...).

Example::

    clock = Clock()
    with clock.scope("transformation"):
        clock.charge(120.0)            # attributed to "transformation"
    clock.charge(10.0)                 # attributed to "other"
    clock.breakdown()                  # {"transformation": 120.0, "other": 10.0}
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

DEFAULT_CATEGORY = "other"


class ChargeMeter:
    """Accumulator for charges diverted away from global time.

    A simulated GC worker runs its share of the work under
    :meth:`Clock.divert`; the charges land here instead of advancing
    ``now_ns``, and the scheduler later advances the clock once by the
    *maximum* over the workers — pause time is the slowest worker, not
    the sum (see :mod:`repro.runtime.workers`).
    """

    __slots__ = ("ns",)

    def __init__(self) -> None:
        self.ns: float = 0.0

    def take(self) -> float:
        """Return the accumulated nanoseconds and reset to zero."""
        ns, self.ns = self.ns, 0.0
        return ns


class Clock:
    """Accumulates simulated nanoseconds, attributed to nested scopes."""

    def __init__(self) -> None:
        self._now_ns: float = 0.0
        self._by_category: Dict[str, float] = {}
        self._stack: List[str] = []
        self._meters: List[ChargeMeter] = []

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, ns: float, category: str | None = None) -> None:
        """Advance time by *ns*, attributing it to *category*.

        When *category* is omitted the innermost active scope is used, or
        ``"other"`` if no scope is active.  While a :meth:`divert` is
        active the charge lands on the innermost meter instead and global
        time does not move.
        """
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        meters = self._meters
        if meters:
            meters[-1].ns += ns
            return
        self._now_ns += ns
        if category is None:
            stack = self._stack  # current_category, inlined (hot path)
            category = stack[-1] if stack else DEFAULT_CATEGORY
        by_category = self._by_category
        by_category[category] = by_category.get(category, 0.0) + ns

    def charge_each(self, costs: List[float]) -> None:
        """:meth:`charge` each of *costs* in turn, without a category.

        The totals take the same float additions in the same order as
        one ``charge`` per cost — onto the innermost :meth:`divert` meter
        if one is active, otherwise onto ``now_ns`` and the innermost
        scope's category — so the result is bit-identical.  A negative
        cost raises before anything is charged.
        """
        if not costs:
            return
        if min(costs) < 0:
            raise ValueError(f"negative charge: {min(costs)}")
        meters = self._meters
        if meters:
            meter = meters[-1]
            total = meter.ns
            for ns in costs:
                total += ns
            meter.ns = total
            return
        now = self._now_ns
        for ns in costs:
            now += ns
        self._now_ns = now
        stack = self._stack
        category = stack[-1] if stack else DEFAULT_CATEGORY
        by_category = self._by_category
        total = by_category.get(category, 0.0)
        for ns in costs:
            total += ns
        by_category[category] = total

    @contextmanager
    def divert(self, meter: ChargeMeter) -> Iterator[ChargeMeter]:
        """Divert every charge inside the block into *meter*.

        Global time (``now_ns``) and the category breakdown are untouched
        until the caller re-charges the metered total — typically
        ``clock.charge(max(worker_meters))`` after a simulated parallel
        phase.  Diversions nest; the innermost meter wins.
        """
        self._meters.append(meter)
        try:
            yield meter
        finally:
            self._meters.pop()

    @property
    def diverted(self) -> bool:
        """True while a :meth:`divert` block is active."""
        return bool(self._meters)

    def charge_ops(self, count: float, ns_per_op: float) -> None:
        """Charge *count* CPU operations at *ns_per_op* each."""
        self.charge(count * ns_per_op)

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    @property
    def current_category(self) -> str:
        return self._stack[-1] if self._stack else DEFAULT_CATEGORY

    @contextmanager
    def scope(self, category: str) -> Iterator[None]:
        """Attribute charges inside the ``with`` block to *category*."""
        self._stack.append(category)
        try:
            yield
        finally:
            self._stack.pop()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> float:
        """Total simulated nanoseconds elapsed."""
        return self._now_ns

    def elapsed_since(self, mark_ns: float) -> float:
        return self._now_ns - mark_ns

    def breakdown(self) -> Dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._by_category)

    def breakdown_since(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Per-category deltas relative to an earlier :meth:`breakdown`."""
        result: Dict[str, float] = {}
        for category, total in self._by_category.items():
            delta = total - snapshot.get(category, 0.0)
            if delta > 0:
                result[category] = delta
        return result

    def reset(self) -> None:
        self._now_ns = 0.0
        self._by_category.clear()
        self._stack.clear()
        self._meters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self._now_ns:.0f}ns, scopes={self._stack!r})"
