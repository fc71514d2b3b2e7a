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
:func:`write_atomic` is the package's one way to write output files,
and :func:`format_cell` writes each value of a CSV or config file.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "RequestEvent",
    "Trace",
    "TraceFormatError",
    "Violation",
    "read_trace",
    "write_trace",
    "validate",
    "write_atomic",
    "format_cell",
]

HEADER_MAGIC = "# trace-v1"
MAX_ID_LEN = 64
_WRITE_ROWS = 1 << 16  # rows formatted per write call
_READ_CHARS = 1 << 20  # text parsed per block
# a content id: 1 to 64 visible ASCII chars (33-126) other than the comma, the field separator
_CONTENT_ID = re.compile(r"[!-+\--~]{1,%d}" % MAX_ID_LEN)


class TraceFormatError(ValueError):
    """Raised on malformed or out-of-order trace input.

    ``line`` is the 1-based line number of the first offending line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RequestEvent(NamedTuple):
    timestamp: float  # days since trace origin
    content_id: str


class Violation(NamedTuple):
    invariant: str  # "timestamp" | "content_id" | "sorted" | "horizon"
    index: int  # first offending event index, or -1 for the horizon itself
    message: str


def _encode(ids: Sequence[str], index: dict[str, int]) -> np.ndarray:
    # code each id by order of first appearance, extending ``index``
    return np.fromiter((index.setdefault(c, len(index)) for c in ids), np.int32, count=len(ids))


class Trace:
    """Immutable request trace held as columns.

    ``Trace(times, codes, names, horizon)`` takes a timestamp column and
    an equally long column of integer indices into ``names`` (else
    ValueError);
    the names are renumbered by first appearance and those that no
    request uses are left out.
    :meth:`from_columns` takes the content ids themselves and
    :meth:`from_events` collects a stream of events.  ``times`` must be
    non-decreasing and lie in ``[0, horizon]``, a finite horizon >= 0;
    :func:`validate` reports violations without raising.  ``events``,
    :meth:`timestamps` and :meth:`content_ids` build lists anew per call.
    """

    __slots__ = ("times", "codes", "ids", "horizon")

    def __init__(self, times, codes, names: Sequence[str], horizon: float):
        self.times = np.array(times, np.float64)
        codes = np.asarray(codes)
        if codes.dtype.kind not in "iu":
            if codes.size:
                raise ValueError(f"codes must be integers, got {codes.dtype}")
            codes = codes.astype(np.int32)  # an empty column of any dtype
        if self.times.shape != codes.shape:
            raise ValueError(f"column lengths differ: {self.times.size} times, {codes.size} codes")
        if codes.size and not (0 <= codes.min() and codes.max() < len(names)):
            raise ValueError(f"codes must index the {len(names)} names, got {codes.min()} to {codes.max()}")
        first = np.full(len(names), codes.size)
        np.minimum.at(first, codes, np.arange(codes.size))
        order = np.argsort(first)[: np.count_nonzero(first < codes.size)]
        remap = np.empty(len(names), np.int32)
        remap[order] = np.arange(order.size, dtype=np.int32)
        self.codes = remap[codes]
        self.times.flags.writeable = self.codes.flags.writeable = False
        self.ids = tuple(names[i] for i in order.tolist())
        self.horizon = float(horizon)

    @classmethod
    def from_events(cls, events: Iterable[RequestEvent], horizon: float | None = None) -> "Trace":
        """Collect a stream of events, defaulting the horizon to the last timestamp."""
        events = list(events)
        if horizon is None:
            horizon = events[-1].timestamp if events else 0.0
        return cls.from_columns([e[0] for e in events], [e[1] for e in events], horizon)

    @classmethod
    def from_columns(cls, times: Sequence[float], ids: Sequence[str], horizon: float) -> "Trace":
        """Build a trace from parallel timestamp and content-id columns."""
        index: dict[str, int] = {}
        return cls(times, _encode(ids, index), tuple(index), horizon)

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


def _violations(times: np.ndarray, codes: np.ndarray, ids, horizon: float) -> list[Violation]:
    # first offender of each invariant in file order; a bad horizon is the header's, index -1
    violations = []
    if not 0 <= horizon < math.inf:
        violations.append(Violation("horizon", -1, f"horizon must be finite and >= 0, got {horizon!r}"))
        horizon = math.inf  # one horizon violation, not one more for each request
    bad_ids = np.array([_CONTENT_ID.fullmatch(c) is None for c in ids], bool)
    masks = (
        ("timestamp", ~(np.isfinite(times) & (times >= 0)), 0),
        ("content_id", bad_ids[codes], 0),
        ("sorted", times[1:] < times[:-1], 1),
        ("horizon", times > horizon, 0),
    )
    for name, bad, shift in masks:
        if bad.any():
            i = int(bad.argmax()) + shift
            ts = float(times[i])
            message = {
                "timestamp": f"timestamp {ts!r} not finite and >= 0",
                "content_id": f"invalid content id {ids[codes[i]]!r}",
                "sorted": f"timestamps not sorted: {ts!r} after {float(times[i - 1])!r}",
                "horizon": f"timestamp {ts!r} beyond horizon {horizon!r}",
            }[name]
            violations.append(Violation(name, i, message))
    return violations


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
    (with the offending line number) on a repeated ``horizon=`` field, a
    declared horizon that is not finite and >= 0, malformed rows,
    unsorted timestamps, or timestamps beyond the declared horizon.
    """
    header = stream.readline()
    if not header.startswith(HEADER_MAGIC):
        raise TraceFormatError(f"expected header starting with {HEADER_MAGIC!r}", line=1)
    horizon: float | None = None
    for token in header[len(HEADER_MAGIC):].split():
        if not token.startswith("horizon="):
            raise TraceFormatError(f"unrecognized header field {token!r}", line=1)
        if horizon is not None:
            raise TraceFormatError("repeated header field 'horizon'", line=1)
        try:
            horizon = float(token[len("horizon="):])
        except ValueError:
            raise TraceFormatError(f"unparsable horizon {token!r}", line=1) from None

    body = stream.read()
    times, codes, ids, error = _parse_rows(body if body.endswith("\n") or not body else body + "\n")
    if horizon is None:  # the last timestamp, or 0; the largest finite one if the rows are unsorted
        horizon = float(np.max(times, initial=0.0, where=np.isfinite(times)))
    violations = _violations(times, codes, ids, horizon)
    if violations:
        first = min(violations, key=lambda v: v.index)
        raise TraceFormatError(first.message, line=first.index + 2)
    if error is not None:
        raise TraceFormatError(error, line=times.size + 2)
    return Trace(times, codes, ids, horizon)


def write_trace(trace: Trace, stream: IO[str]) -> None:
    """Emit the trace file format.

    Timestamps are rendered with ``repr`` (shortest round-tripping
    decimal), so ``read_trace`` recovers the exact float values.  A
    trace that :func:`validate` rejects raises ``ValueError`` with the
    first violation's message before anything is written.
    """
    violations = _violations(trace.times, trace.codes, trace.ids, trace.horizon)
    if violations:
        first = min(violations, key=lambda v: v.index)
        where = "header" if first.index < 0 else f"request {first.index}"
        raise ValueError(f"cannot write {where}: {first.message}")
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
    return _violations(trace.times, trace.codes, trace.ids, trace.horizon)


def write_atomic(files: Mapping[Path, Callable[[IO[str]], object]]) -> None:
    """Write each file through a temporary file next to it, then rename
    them all into place in order, so the last one appears last.

    Nothing is renamed until every writer has returned.  On any failure
    the temporary files and the files this call already renamed into
    place are removed (an older file one of them replaced is not
    restored), so a failed call leaves none of its outputs.
    """
    tmps = {path: path.with_name(path.name + f".tmp{os.getpid()}") for path in files}
    placed = []
    try:
        for path, write in files.items():
            with open(tmps[path], "w", encoding="utf-8", newline="\n") as f:
                write(f)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in (*tmps.values(), *placed):
            path.unlink(missing_ok=True)
        raise


def format_cell(value) -> str:
    """A string as it is, a number as the ``repr`` of its Python value, which reads back
    exactly: a numpy scalar's ``.item()``, as numpy 2 would write ``np.float64(...)``."""
    if isinstance(value, str):
        return value
    return repr(value.item() if isinstance(value, np.generic) else value)
