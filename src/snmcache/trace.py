"""Canonical request-trace representation and file I/O.

A trace is a time-sorted sequence of requests plus an observation
horizon, held as three columns: ``times`` (float64, days since the
trace origin, one per request), ``codes`` (int32, one per request) and
``ids``, the tuple of distinct content ids, which the codes index.  Ids
are numbered in order of first appearance, so equal traces have equal
columns.  Content ids are opaque tokens.  The on-disk format is
line-oriented text:

    # trace-v1 horizon=<real>
    <timestamp_days>,<content_id>
    ...

Timestamps are written with ``repr`` so a read/write cycle is lossless.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "RequestEvent",
    "Trace",
    "TraceFormatError",
    "Violation",
    "read_trace",
    "write_trace",
    "validate",
]

HEADER_MAGIC = "# trace-v1"
MAX_ID_LEN = 64
_WRITE_ROWS = 1 << 16  # rows formatted per write call
_READ_CHARS = 1 << 20  # text parsed per block


class TraceFormatError(ValueError):
    """Raised on malformed or out-of-order trace input.

    ``line`` is the 1-based line number of the first offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RequestEvent(NamedTuple):
    timestamp: float  # days since trace origin
    content_id: str


class Violation(NamedTuple):
    invariant: str  # "timestamp" | "content_id" | "sorted" | "horizon"
    index: int  # first offending event index
    message: str


def _valid_content_id(cid: str) -> bool:
    # non-empty, at most 64 visible ASCII chars, no comma (the field
    # separator) and no whitespace
    if not cid or len(cid) > MAX_ID_LEN:
        return False
    return all(33 <= ord(c) <= 126 and c != "," for c in cid)


def _encode(ids: Sequence[str], index: dict[str, int]) -> np.ndarray:
    # code each id by order of first appearance, extending ``index``
    return np.fromiter((index.setdefault(c, len(index)) for c in ids), np.int32, count=len(ids))


class Trace:
    """Immutable request trace held as columns.

    ``times`` must be non-decreasing and lie in ``[0, horizon]``;
    :func:`validate` reports violations without raising.  ``events``,
    :meth:`timestamps` and :meth:`content_ids` build lists from the
    columns on every call.
    """

    __slots__ = ("times", "codes", "ids", "horizon")

    def __init__(self, events: Iterable[RequestEvent], horizon: float):
        events, index = list(events), {}
        self._fill([e[0] for e in events], _encode([e[1] for e in events], index), tuple(index), horizon)

    def _fill(self, times, codes: np.ndarray, names: Sequence[str], horizon: float) -> None:
        # renumber the names by first appearance and drop the unused ones
        first = np.full(len(names), codes.size)
        np.minimum.at(first, codes, np.arange(codes.size))
        order = np.argsort(first)[: np.count_nonzero(first < codes.size)]
        remap = np.empty(len(names), np.int32)
        remap[order] = np.arange(order.size, dtype=np.int32)
        self.times = np.array(times, np.float64)
        self.codes = remap[codes]
        self.times.flags.writeable = self.codes.flags.writeable = False
        self.ids = tuple(names[i] for i in order.tolist())
        self.horizon = float(horizon)

    @classmethod
    def from_events(cls, events: Iterable[RequestEvent], horizon: float | None = None) -> "Trace":
        """Build a trace, defaulting the horizon to the last timestamp."""
        events = list(events)
        if horizon is None:
            horizon = events[-1].timestamp if events else 0.0
        return cls(events, horizon)

    @classmethod
    def from_columns(cls, times: Sequence[float], ids: Sequence[str], horizon: float) -> "Trace":
        """Build a trace from parallel timestamp and content-id columns."""
        if len(times) != len(ids):
            raise ValueError(f"column lengths differ: {len(times)} times, {len(ids)} ids")
        index: dict[str, int] = {}
        return cls.from_codes(times, _encode(ids, index), tuple(index), horizon)

    @classmethod
    def from_codes(cls, times, codes: np.ndarray, names: Sequence[str], horizon: float) -> "Trace":
        """Build a trace from a timestamp column and a column of indices
        into ``names``; names that no request uses are left out."""
        trace = cls.__new__(cls)
        trace._fill(times, codes, names, horizon)
        return trace

    @property
    def events(self) -> list[RequestEvent]:
        return list(map(RequestEvent, self.times.tolist(), self.content_ids()))

    def __len__(self) -> int:
        return self.times.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if (self.horizon, self.ids) != (other.horizon, other.ids):
            return False
        return np.array_equal(self.times, other.times) and np.array_equal(self.codes, other.codes)

    def __repr__(self) -> str:
        return f"Trace({len(self)} events, horizon={self.horizon!r})"

    def content_ids(self) -> list[str]:
        return np.array(self.ids, dtype=object)[self.codes].tolist()

    def timestamps(self) -> list[float]:
        return self.times.tolist()


def _first_violations(times: np.ndarray, codes: np.ndarray, ids, horizon: float) -> dict[str, int]:
    # first offending request of each invariant, in the order a reader checks a row
    bad_ids = np.array([not _valid_content_id(c) for c in ids], bool)
    masks = (
        ("timestamp", ~(np.isfinite(times) & (times >= 0)), 0),
        ("content_id", bad_ids[codes], 0),
        ("sorted", times[1:] < times[:-1], 1),
        ("horizon", times > horizon, 0),
    )
    return {name: int(bad.argmax()) + shift for name, bad, shift in masks if bad.any()}


def _parse_rows(body: str) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], str | None]:
    # Columns of the rows before the first malformed one, and its error (or None),
    # parsed a block of lines at a time so that one block's row strings are alive at once.
    times, codes, index, start, error = [np.empty(0)], [np.empty(0, np.int32)], {}, 0, None
    while start < len(body) and error is None:
        stop = body.find("\n", start + _READ_CHARS) + 1 or len(body)
        text, start = body[start:stop], stop
        seps = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
        seps = seps[(seps == 44) | (seps == 10)]  # commas and line ends, in order
        commas = np.diff(np.flatnonzero(seps == 10), prepend=-1) - 1
        if (commas != 1).any():
            end = int((commas != 1).argmax())
            error = f"expected 2 comma-separated columns, got {commas[end] + 1}"
            text = "".join(line + "\n" for line in text.split("\n", end)[:end])
        fields = text.replace("\n", ",").split(",")
        stamps, names = fields[0:-1:2], fields[1::2]
        unparsed = iter(stamps)
        try:
            times.append(np.fromiter(map(float, unparsed), np.float64, count=len(stamps)))
        except ValueError:
            # map stopped right after taking the unparsable stamp from the iterator
            end = len(stamps) - 1 - sum(1 for _ in unparsed)
            error = f"unparsable timestamp {stamps[end]!r}"
            times.append(np.array([float(s) for s in stamps[:end]], np.float64))
            names = names[:end]
        codes.append(_encode(names, index))
    return np.concatenate(times), np.concatenate(codes), tuple(index), error


def read_trace(stream: IO[str]) -> Trace:
    """Parse the trace file format from a text stream.

    The horizon defaults to the last timestamp unless the header carries
    an explicit ``horizon=`` field.  Raises :class:`TraceFormatError`
    (with the offending line number) on malformed rows, unsorted
    timestamps, or timestamps beyond the declared horizon.
    """
    header = stream.readline()
    if not header.startswith(HEADER_MAGIC):
        raise TraceFormatError(f"expected header starting with {HEADER_MAGIC!r}", line=1)
    horizon: float | None = None
    for token in header[len(HEADER_MAGIC):].split():
        if token.startswith("horizon="):
            try:
                horizon = float(token[len("horizon="):])
            except ValueError:
                raise TraceFormatError(f"unparsable horizon {token!r}", line=1) from None
            if not math.isfinite(horizon) or horizon < 0:
                raise TraceFormatError(f"horizon must be finite and >= 0, got {horizon}", line=1)
        else:
            raise TraceFormatError(f"unrecognized header field {token!r}", line=1)

    body = stream.read()
    times, codes, ids, error = _parse_rows(body if body.endswith("\n") or not body else body + "\n")
    found = _first_violations(times, codes, ids, math.inf if horizon is None else horizon)
    if found:
        name, i = min(found.items(), key=lambda kv: kv[1])
        stamp, cid = body.split("\n", i + 1)[i].split(",")
        ts = float(times[i])
        message = {
            "timestamp": f"timestamp must be finite and >= 0, got {stamp}",
            "content_id": f"invalid content id {cid!r}",
            "sorted": f"timestamps not sorted: {ts!r} after {float(times[i - 1])!r}",
            "horizon": f"timestamp {ts!r} beyond horizon {horizon!r}",
        }[name]
        raise TraceFormatError(message, line=i + 2)
    if error is not None:
        raise TraceFormatError(error, line=times.size + 2)
    if horizon is None:
        horizon = float(times[-1]) if times.size else 0.0
    return Trace.from_codes(times, codes, ids, horizon)


def write_trace(trace: Trace, stream: IO[str]) -> None:
    """Emit the trace file format.

    Timestamps are rendered with ``repr`` (shortest round-tripping
    decimal), so ``read_trace`` recovers the exact float values.
    """
    stream.write(f"{HEADER_MAGIC} horizon={trace.horizon!r}\n")
    row = "{!r},{}\n".format
    names = np.array(trace.ids, dtype=object)
    for lo in range(0, len(trace), _WRITE_ROWS):
        hi = lo + _WRITE_ROWS
        stream.write("".join(map(row, trace.times[lo:hi].tolist(), names[trace.codes[lo:hi]].tolist())))


def validate(trace: Trace) -> list[Violation]:
    """Check the trace invariants, reporting the first offender of each.

    Returns an empty list iff the trace is valid.
    """
    violations = []
    for name, i in _first_violations(trace.times, trace.codes, trace.ids, trace.horizon).items():
        ts = float(trace.times[i])
        message = {
            "timestamp": f"timestamp {ts!r} not finite and >= 0",
            "content_id": f"invalid content id {trace.ids[trace.codes[i]]!r}",
            "sorted": f"timestamp {ts!r} breaks sort order",
            "horizon": f"timestamp {ts!r} beyond horizon {trace.horizon!r}",
        }[name]
        violations.append(Violation(name, i, message))
    return violations
