"""Timing scaled to a reference machine speed.

The machines this benchmark runs on are virtual and shared, and their speed
drifts: a 3 ms pure-Python loop measured continuously for 150 s had 5-second
medians from 2.0 to 3.2 ms.  The speed decorrelates within about 0.3 s and
also wanders over tens of seconds, so medians inside one run cannot make
two runs of the same code agree.

So the measured work is interleaved with probes: a fixed piece of reference
work, written here and independent of the library, whose own duration
tracks the machine's current speed.  A probe follows every stage, every
``BATCH_S`` of questions, and -- through ``Clock.tick``, which the caller
hooks into frequently called library code -- every ``BATCH_S`` inside a long
call.  No probe is inside a measured span.  Each span's duration is scaled
by ``REFERENCE_S`` over the mean of the probes within ``WINDOW_S`` of it, so
the result is in seconds at the speed at which the probe takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.002
PROBE_REPEATS = 5
BATCH_S = 0.2  # a probe follows about this much work
WINDOW_S = 1.0  # probes this close to a span set its scale

_rng = np.random.default_rng(0)
_WORDS = [
    "".join(chr(97 + int(c)) for c in _rng.integers(0, 26, 3 + i % 6))
    + ("ing", "ation", "s", "")[i % 4]
    for i in range(1500)
]
_DOCS = _rng.integers(0, 5000, 20000)
_VALUES = _rng.random(5000)


def _reference_work() -> int:
    """A mix like the benchmark's own: string and dict work in Python, then
    a scatter-add and a sort over a corpus-sized numpy vector."""
    counts: dict[str, int] = {}
    for word in _WORDS:
        w = word.lower()
        for suffix in ("ing", "ation", "s"):
            if w.endswith(suffix):
                w = w[: -len(suffix)]
                break
        counts[w] = counts.get(w, 0) + len(w)
    scores = np.bincount(_DOCS, weights=_VALUES[_DOCS % 5000], minlength=5000)
    pos = np.flatnonzero(scores > 0.5)
    order = np.lexsort((pos, -scores[pos]))
    return len(counts) + int(order[0])


def probe() -> float:
    """Seconds the reference work takes now (median of a few repeats).  The
    collector is off meanwhile: a collection of the measured program's heap
    would otherwise land in the probe."""
    times = []
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            t = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - t)
    finally:
        gc.enable()
    return statistics.median(times)


class Clock:
    """Records spans of work and probes of the machine's speed, and scales
    each span by the probes taken within ``WINDOW_S`` of it."""

    def __init__(self):
        self._probes_t: list[float] = []
        self._probes_s: list[float] = []
        self._spans: list[tuple[float, float, object]] = []
        self._since_probe = 0.0
        self._open: tuple[float, object] | None = None  # (start, label)
        self._probe()

    def _probe(self) -> None:
        t = time.perf_counter()
        self._probes_s.append(probe())
        self._probes_t.append(t)
        self._since_probe = 0.0

    def record(self, start: float, end: float, label=None) -> None:
        """Add a span measured by the caller; probe once about ``BATCH_S``
        of work has gone by since the last probe."""
        self._spans.append((start, end, label))
        self._since_probe += end - start
        if self._since_probe >= BATCH_S:
            self._probe()

    def tick(self) -> None:
        """Called from inside the open span: once it has run ``BATCH_S``,
        close it, probe, and open a new piece with the same label, so that a
        long call is scaled piece by piece.  The probe is in no piece."""
        if self._open is None:
            return
        start, label = self._open
        now = time.perf_counter()
        if now - start >= BATCH_S:
            self._spans.append((start, now, label))
            self._probe()
            self._open = (time.perf_counter(), label)

    @contextmanager
    def span(self, label=None, probes: int = 1):
        """Time the body; ``probes`` probes before and after it give a long
        span with few neighbours its scale."""
        for _ in range(probes - 1):
            self._probe()
        self._open = (time.perf_counter(), label)
        try:
            yield
        finally:
            start, label = self._open
            self._open = None
            self._spans.append((start, time.perf_counter(), label))
            for _ in range(probes):
                self._probe()

    def scaled(self) -> list[tuple[object, float, float]]:
        """(label, scaled seconds, raw seconds) for every span, in order."""
        self._probe()
        times = np.array(self._probes_t)
        cum = np.concatenate([[0.0], np.cumsum(self._probes_s)])
        out = []
        for start, end, label in self._spans:
            lo = int(np.searchsorted(times, start - WINDOW_S))
            hi = int(np.searchsorted(times, end + WINDOW_S, side="right"))
            if hi == lo:  # no probe that close: take the next one
                hi = min(lo + 1, len(times))
                lo = hi - 1
            mean = (cum[hi] - cum[lo]) / (hi - lo)
            raw = end - start
            out.append((label, raw * REFERENCE_S / mean, raw))
        return out
