"""Cross-layer metrics registry: counters, gauges, histograms, exposition.

The registry is the always-on pillar of :mod:`repro.obs`.  Components record
into named instruments through a :class:`MetricsRegistry`; registries merge
with :meth:`MetricsRegistry.absorb`, which is exactly how worker-side
metrics ride the executor layer's cost-ledger path: each concurrent task
charges a private :class:`~repro.distributed.cluster.SimulatedCluster`
ledger (which carries its own registry), and the master absorbs the ledgers
in submission order.  Because the merge operations are commutative over the
recorded multiset — counters add, gauges take the max, histograms merge
their sample multisets — the serial and process backends converge
to identical registry contents for every deterministic instrument.

Histogram quantiles come from a seeded :class:`ReservoirSampler`: memory is
bounded by a fixed-size reservoir, the sampler's RNG is seeded so replays
stay deterministic, and quantiles are computed over the *sorted* samples so
they are independent of merge order whenever the sample count stays below
the reservoir cap (above the cap they are a deterministic approximation).

A component that counts owns one registry and records into it when the
event happens; a composite absorbs its parts' registries on demand (see
:meth:`repro.service.server.KSPService.metrics_registry`).  Wall-clock
histograms stay with their owner, unregistered, so the exposition remains
replay-deterministic.

:meth:`MetricsRegistry.render_prometheus` emits the Prometheus text
exposition format (``# HELP`` / ``# TYPE`` + samples, histograms as
summaries with quantile labels) consumed by ``repro stats --metrics``,
``repro replay/serve --metrics`` and the front door's ``/metrics``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "percentile",
    "ReservoirSampler",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

Number = Union[int, float]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100]).

    The "linear" method statistics packages default to; 0.0 on empty input
    so reports over zero observations stay printable.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


class ReservoirSampler:
    """Fixed-size uniform reservoir sample with a seeded RNG.

    Algorithm R: the first ``max_samples`` observations are kept verbatim;
    afterwards observation ``n`` replaces a uniformly random slot with
    probability ``max_samples / n``.  The RNG is seeded, so a replayed
    stream of observations produces an identical reservoir — the
    determinism the serving-layer latency percentiles rely on.
    """

    __slots__ = ("max_samples", "count", "samples", "_rng")

    def __init__(self, max_samples: int, seed: int = 0) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.max_samples = max_samples
        self.count = 0
        self.samples: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        """Observe one value."""
        self.count += 1
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.max_samples:
                self.samples[slot] = value

    def __len__(self) -> int:
        return len(self.samples)

    def __getstate__(self):
        return (self.max_samples, self.count, self.samples, self._rng.getstate())

    def __setstate__(self, state) -> None:
        self.max_samples, self.count, self.samples, rng_state = state
        self._rng = random.Random()
        self._rng.setstate(rng_state)


class Counter:
    """Monotonically increasing total.  Merge: addition."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def __getstate__(self):
        return (self.name, self.help, self.value)

    def __setstate__(self, state) -> None:
        self.name, self.help, self.value = state


class Gauge:
    """Point-in-time value.  Merge: maximum (high-water-mark semantics).

    Max-merge is what keeps gauges deterministic across executor ledgers —
    "last write" has no meaning when ledgers merge in submission order but
    tasks ran interleaved.
    """

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Overwrite the gauge."""
        self.value = value

    def set_max(self, value: Number) -> None:
        """Raise the gauge to ``value`` if larger (high-water mark)."""
        if value > self.value:
            self.value = value

    def __getstate__(self):
        return (self.name, self.help, self.value)

    def __setstate__(self, state) -> None:
        self.name, self.help, self.value = state


class Histogram:
    """Distribution summary: exact count/sum/min/max + reservoir quantiles.

    Merge semantics: the exact streaming aggregates (count, sum, min, max)
    combine losslessly and commutatively; the reservoirs concatenate, which
    is multiset-exact — and therefore merge-order-independent — while the
    combined sample count stays at or below ``max_samples``.  Beyond the
    cap both recording and merging downsample deterministically (seeded
    RNG / sorted-stride), so results stay reproducible run to run even
    though they are then approximations.
    """

    __slots__ = ("name", "help", "count", "total", "min", "max", "_reservoir")

    #: Default reservoir size: big enough that every in-repo workload stays
    #: in the exact regime, small enough to bound ledger payloads.
    DEFAULT_MAX_SAMPLES = 4096

    def __init__(
        self, name: str, help: str = "", max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir = ReservoirSampler(max_samples, seed=0)

    def observe(self, value: Number) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._reservoir.add(value)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]) over the reservoir.

        Computed over the *sorted* samples, so the value depends only on
        the sample multiset, never on recording or merge order.
        """
        return percentile(self._reservoir.samples, q)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (exact aggregates + sample multisets)."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        combined = self._reservoir.samples + other._reservoir.samples
        cap = self._reservoir.max_samples
        if len(combined) > cap:
            # Deterministic, order-independent downsample: sort, then take
            # an evenly spaced stride.  A quantile approximation, but the
            # same one on every run.
            combined.sort()
            step = len(combined) / cap
            combined = [combined[int(i * step)] for i in range(cap)]
        self._reservoir.samples = combined
        # The merged reservoir stands for every observation of both, so
        # later additions are kept with probability cap / (their total).
        self._reservoir.count += other._reservoir.count

    def __getstate__(self):
        return (self.name, self.help, self.count, self.total, self.min, self.max,
                self._reservoir)

    def __setstate__(self, state) -> None:
        (self.name, self.help, self.count, self.total, self.min, self.max,
         self._reservoir) = state


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments with deterministic merge and text exposition.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the instrument (optionally with help text), later calls
    return the same object, so call sites stay one-liners::

        registry.counter("bolt_queries_total").inc()
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, cls, help: str, **kwargs) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help=help, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get(name, Gauge, help)

    def histogram(
        self, name: str, help: str = "",
        max_samples: int = Histogram.DEFAULT_MAX_SAMPLES,
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get(name, Histogram, help, max_samples=max_samples)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(self._instruments.values())

    def absorb(self, other: "MetricsRegistry") -> None:
        """Merge another registry into this one (the ledger-absorb path).

        Counters add, gauges take the max, histograms merge; instruments
        unknown to this registry are adopted by deep-ish copy through the
        merge path so later absorbs never alias the source.
        """
        for name, theirs in other._instruments.items():
            if isinstance(theirs, Counter):
                self.counter(name, theirs.help).inc(theirs.value)
            elif isinstance(theirs, Gauge):
                self.gauge(name, theirs.help).set_max(theirs.value)
            elif isinstance(theirs, Histogram):
                self.histogram(
                    name, theirs.help, max_samples=theirs._reservoir.max_samples
                ).merge(theirs)

    def as_dict(self) -> Dict[str, Number]:
        """Flat name → value mapping (histograms expand to _count/_sum)."""
        out: Dict[str, Number] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[f"{name}_count"] = instrument.count
                out[f"{name}_sum"] = instrument.total
            else:
                out[name] = instrument.value
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (instruments sorted by name).

        Histograms render as summaries (quantile-labelled samples plus
        ``_count`` / ``_sum``), which matches how their reservoir actually
        answers quantile queries.
        """
        lines: List[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_format_value(instrument.value)}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_format_value(instrument.value)}")
            else:
                lines.append(f"# TYPE {name} summary")
                for q in (50.0, 90.0, 95.0, 99.0):
                    value = instrument.quantile(q)
                    lines.append(
                        f'{name}{{quantile="{q / 100.0:g}"}} {_format_value(value)}'
                    )
                lines.append(f"{name}_count {instrument.count}")
                lines.append(f"{name}_sum {_format_value(instrument.total)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __getstate__(self):
        return self._instruments

    def __setstate__(self, state) -> None:
        self._instruments = state


def _format_value(value: Number) -> str:
    """Exposition value formatting: ints stay ints, floats use repr."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
