"""Per-query span tracing with deterministic Chrome trace-event export.

The tracing pillar of :mod:`repro.obs`: a lightweight tracer threaded
through the full query lifecycle — service admission/queue wait →
micro-batch → topology batch → route → SubgraphBolt/QueryBolt work items →
DTLP memo hit/miss → kernel searches.

Design constraints, in order:

1. **Zero-ish cost when off.**  Instrumentation sites call :func:`span` /
   :func:`push_span`; with no trace active on the current thread these are
   one thread-local ``getattr`` and return a shared null context manager /
   ``None``.  No span objects, no argument dict, nothing allocated.
2. **Replay-deterministic output.**  Exported traces carry *no wall-clock
   values*: span identity derives from ``(seq, route_index)``, timestamps
   are logical (a deterministic DFS layout), and durations are logical
   work units (1 per span plus the span's deterministic kernel counters
   when profiling is on).  Two replays of the same trace — on *any*
   execution backend, given backend-independent per-query work — produce
   byte-identical JSON.  (Cross-backend byte-identity additionally
   requires per-query work to be backend-independent; the cross-round
   partial-path memo is per-process state, so it holds with ``pruning``
   off — see ``ARCHITECTURE.md``, "Observability".)
3. **Executor-transparent collection.**  Spans build per query on
   whichever thread/process runs it (the thread-local stack isolates
   concurrent queries); the finished tree travels back on the query
   result — pickled across the process boundary like any other result
   field — and the master stitches trees into the session in submission
   order.

The export target is the Chrome trace-event JSON format (the ``X``
complete-event flavour), loadable in Perfetto / ``chrome://tracing``;
:func:`render_tree` and ``repro trace`` provide a human-readable view.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "TraceSession",
    "trace_active",
    "begin_trace",
    "end_trace",
    "span",
    "push_span",
    "pop_span",
    "mark",
    "render_tree",
    "trees_from_chrome",
]

from .profile import counters_delta, counters_snapshot

_local = threading.local()


class Span:
    """One node of a query's span tree: a name, args, and child spans."""

    __slots__ = ("name", "args", "children")

    def __init__(self, name: str, args: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.args: Dict[str, Any] = args if args is not None else {}
        self.children: List["Span"] = []

    def child(self, name: str, **args: Any) -> "Span":
        """Append and return a new child span."""
        node = Span(name, args)
        self.children.append(node)
        return node

    def walk(self) -> Iterable["Span"]:
        """Pre-order traversal over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __getstate__(self):
        return (self.name, self.args, self.children)

    def __setstate__(self, state) -> None:
        self.name, self.args, self.children = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, args={self.args!r}, children={len(self.children)})"


# ----------------------------------------------------------------------
# thread-local span stack
# ----------------------------------------------------------------------
# Stack frames are [span, kernel_snapshot_or_None]; a non-empty stack means
# a trace is active on this thread.


def trace_active() -> bool:
    """Whether a span tree is being built on the current thread."""
    return bool(getattr(_local, "stack", None))


def begin_trace(root: Span) -> Span:
    """Activate tracing on this thread with ``root`` as the open span."""
    _local.stack = [[root, None]]
    return root


def end_trace() -> Optional[Span]:
    """Deactivate tracing on this thread, returning the root span."""
    stack = getattr(_local, "stack", None)
    _local.stack = None
    return stack[0][0] if stack else None


def push_span(name: str, _kernel: bool = False, **args: Any) -> Optional[Span]:
    """Open a child span under the current one; ``None`` when tracing is off.

    Pass the returned token to :func:`pop_span` (a ``None`` token makes the
    pop a no-op, so call sites need no conditionals).  ``_kernel=True``
    snapshots the active kernel-profiling counters on entry and records
    their growth as span args on exit.
    """
    stack = getattr(_local, "stack", None)
    if not stack:
        return None
    node = Span(name, args)
    stack[-1][0].children.append(node)
    stack.append([node, counters_snapshot() if _kernel else None])
    return node


def pop_span(token: Optional[Span]) -> None:
    """Close the span opened by the matching :func:`push_span`."""
    if token is None:
        return
    stack = _local.stack
    node, snapshot = stack.pop()
    if snapshot is not None:
        node.args.update(counters_delta(snapshot))


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_name", "_kernel", "_args", "_token")

    def __init__(self, name: str, kernel: bool, args: Dict[str, Any]) -> None:
        self._name = name
        self._kernel = kernel
        self._args = args
        self._token: Optional[Span] = None

    def __enter__(self) -> Span:
        self._token = push_span(self._name, _kernel=self._kernel, **self._args)
        return self._token

    def __exit__(self, *exc_info: object) -> bool:
        pop_span(self._token)
        return False


def span(name: str, _kernel: bool = False, **args: Any):
    """Context manager opening a child span (shared no-op when tracing is off)."""
    if not trace_active():
        return _NULL_CONTEXT
    return _SpanContext(name, _kernel, args)


def mark(name: str, **args: Any) -> None:
    """Record a childless point-event span under the current span."""
    stack = getattr(_local, "stack", None)
    if stack:
        stack[-1][0].children.append(Span(name, args))


# ----------------------------------------------------------------------
# session: collection and export
# ----------------------------------------------------------------------


class TraceSession:
    """Master-side collector of span trees for one traced run.

    Query trees are keyed by a deterministic sequence number (the service's
    admission order, or the topology's global route index in standalone
    use); session-level events (micro-batches, maintenance rounds) form a
    separate track.  Export never consults the clock — see the module
    docstring.
    """

    def __init__(self) -> None:
        self._queries: List[Tuple[int, Span]] = []
        self._events: List[Span] = []

    # -- collection ----------------------------------------------------
    def add_query(self, seq: int, root: Optional[Span]) -> None:
        """Attach one query's finished span tree under sequence number ``seq``."""
        if root is not None:
            self._queries.append((seq, root))

    def add_event(self, event: Span) -> Span:
        """Record a session-level (non-query) event span."""
        self._events.append(event)
        return event

    def event(self, name: str, **args: Any) -> Span:
        """Convenience: create and record a session-level event span."""
        return self.add_event(Span(name, args))

    @property
    def queries(self) -> List[Tuple[int, Span]]:
        """``(seq, root)`` pairs collected so far, in collection order."""
        return list(self._queries)

    # -- export --------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON object (Perfetto-loadable).

        Track layout: tid 0 carries the session-level events laid out
        sequentially; each query gets its own track at ``tid = seq + 1``
        starting at logical time 0.  Durations are logical work units —
        every span costs 1 plus its recorded kernel ``settled`` count,
        plus its children — so relative bar widths reflect deterministic
        search effort, not wall clock.
        """
        events: List[Dict[str, Any]] = [
            _metadata_event(0, "session"),
        ]
        clock = 0
        for event in self._events:
            clock += _emit_span(event, tid=0, start=clock, out=events)
        for seq, root in sorted(self._queries, key=lambda item: item[0]):
            tid = seq + 1
            events.append(_metadata_event(tid, f"query {seq}"))
            _emit_span(root, tid=tid, start=0, out=events)
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def to_chrome_bytes(self) -> bytes:
        """Canonical JSON bytes of :meth:`to_chrome_trace`.

        Keys sorted, separators fixed, ASCII-only — the byte-identity
        surface asserted by the cross-backend tests.
        """
        return json.dumps(
            self.to_chrome_trace(), sort_keys=True, separators=(",", ":"),
            ensure_ascii=True,
        ).encode("ascii")

    def write_chrome_trace(self, path: str) -> int:
        """Write the canonical trace JSON to ``path``; returns bytes written."""
        payload = self.to_chrome_bytes()
        with open(path, "wb") as handle:
            handle.write(payload)
        return len(payload)

def _metadata_event(tid: int, name: str) -> Dict[str, Any]:
    return {
        "ph": "M",
        "pid": 0,
        "tid": tid,
        "name": "thread_name",
        "args": {"name": name},
    }


def _span_own_cost(node: Span) -> int:
    """Logical duration of a span excluding children: 1 + kernel work."""
    settled = node.args.get("settled")
    if isinstance(settled, int) and settled > 0:
        return 1 + settled
    return 1


def _emit_span(node: Span, tid: int, start: int, out: List[Dict[str, Any]]) -> int:
    """Emit ``node`` and descendants as complete events; returns the duration."""
    children_events: List[Dict[str, Any]] = []
    clock = start
    for child in node.children:
        clock += _emit_span(child, tid=tid, start=clock, out=children_events)
    duration = (clock - start) + _span_own_cost(node)
    out.append(
        {
            "ph": "X",
            "pid": 0,
            "tid": tid,
            "ts": start,
            "dur": duration,
            "name": node.name,
            "cat": node.args.get("cat", "span"),
            "args": _json_args(node.args),
        }
    )
    out.extend(children_events)
    return duration


def _json_args(args: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe copy of span args (tuples become lists)."""
    safe: Dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, tuple):
            safe[key] = list(value)
        else:
            safe[key] = value
    return safe


def _format_args(args: Dict[str, Any]) -> str:
    if not args:
        return ""
    parts = []
    for key in args:
        value = args[key]
        if isinstance(value, float):
            value = round(value, 4)
        parts.append(f"{key}={value}")
    return " [" + " ".join(parts) + "]"


def _render_span(node: Span, indent: str, lines: List[str]) -> None:
    lines.append(f"{indent}{node.name}{_format_args(node.args)}")
    for child in node.children:
        _render_span(child, indent + "  ", lines)


def render_tree(root: Span) -> str:
    """Render one span tree as an indented text block."""
    lines: List[str] = []
    _render_span(root, "", lines)
    return "\n".join(lines)


def trees_from_chrome(payload: Dict[str, Any]) -> List[Tuple[int, List[Span]]]:
    """Rebuild span trees from an exported Chrome trace JSON object.

    The inverse of :meth:`TraceSession.to_chrome_trace` up to layout: used
    by ``repro trace`` to print a tree view of a trace file.  Returns
    ``(tid, roots)`` pairs sorted by tid; nesting is recovered from the
    ``ts``/``dur`` intervals (a child's interval lies within its parent's).
    """
    by_tid: Dict[int, List[Dict[str, Any]]] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        by_tid.setdefault(int(event.get("tid", 0)), []).append(event)
    tracks: List[Tuple[int, List[Span]]] = []
    for tid in sorted(by_tid):
        events = sorted(
            by_tid[tid], key=lambda e: (e["ts"], -e["dur"])
        )
        roots: List[Span] = []
        stack: List[Tuple[int, int, Span]] = []  # (start, end, span)
        for event in events:
            node = Span(str(event.get("name", "")), dict(event.get("args", {})))
            start = int(event["ts"])
            end = start + int(event["dur"])
            while stack and start >= stack[-1][1]:
                stack.pop()
            if stack:
                stack[-1][2].children.append(node)
            else:
                roots.append(node)
            stack.append((start, end, node))
        tracks.append((tid, roots))
    return tracks
