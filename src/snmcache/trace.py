"""Canonical request-trace representation and file I/O.

A trace is a time-sorted sequence of requests plus an observation
horizon (by default the largest finite timestamp, or 0), held as three
columns: ``times`` (float64, days since the trace origin, one per
request), ``codes`` (int32, one per request) and ``ids``, the tuple of
distinct content ids, which the codes index.  Ids are numbered in order
of first appearance, so equal traces have equal columns.  Content ids
are opaque tokens.  The on-disk format is line-oriented text:

    # trace-v1 horizon=<real>
    <timestamp_days>,<content_id>
    ...

Timestamps are written with ``repr`` so a read/write cycle is lossless.
:func:`read_trace` parses blocks of 2**20 characters and codes the ids
without a per-row dict: an id's key is its first ``MAX_ID_LEN + 1``
UTF-8 bytes padded with 0xFF, which UTF-8 never uses, into 8-byte words,
so ids share a key only when they are equal or both too long to be
valid.  Its ``tracemalloc`` peak is about 31 bytes a request on a file
of 2e6 requests with 8-character ids, and 44 with 64-character ids.
:func:`write_atomic` is the package's one way to write output files, and
:func:`format_cell` writes each value of a CSV or config file.  The
package's value rules live here too, ``_require`` (real numbers and
samples, with ``_reals`` its type half), ``_require_int`` and
``_require_bool``: each returns the value it accepted, so that every
check of an argument is one call.
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
_KEY_BYTES = 8 * (MAX_ID_LEN // 8 + 1)  # whole words that hold an id's first MAX_ID_LEN + 1 bytes
# a big-endian key word's padding by the count of its bytes that belong to the id, 0 to 8
_PAD = np.array([(1 << 8 * (8 - k)) - 1 for k in range(9)], np.uint64)
# a content id: 1 to 64 visible ASCII chars (33-126) other than the comma, the field separator
_CONTENT_ID = re.compile(r"[!-+\--~]{1,%d}" % MAX_ID_LEN)


class TraceFormatError(ValueError):
    """Raised on malformed or out-of-order trace input; ``line`` is the first offending line's 1-based number."""

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


def _by_content(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the stable by-content order of a codes column, and the codes in that order, from one
    # (SIMD) sort of the int64 keys code << 32 | position; positions take 32 bits
    key = np.left_shift(codes, 32, dtype=np.int64)
    key |= np.arange(codes.size)
    key.sort()
    order = key & 0xFFFFFFFF
    key >>= 32
    return order, key


class Trace:
    """Immutable request trace held as columns.

    ``Trace(times, codes, names, horizon=None)`` takes a 1-D timestamp
    column and an equally long 1-D column of integer indices into
    ``names`` (else ValueError), renumbered by first appearance: unused
    names are left out and used ones must be distinct (else ValueError).
    The horizon defaults to the largest finite timestamp, or 0.
    :meth:`from_columns` takes the content ids themselves and
    :meth:`from_events` collects a stream of events.  ``times`` must be
    non-decreasing and lie in ``[0, horizon]``, a finite horizon >= 0;
    :func:`validate` reports violations without raising.  ``events``,
    :meth:`timestamps` and :meth:`content_ids` build lists anew per call.
    """

    __slots__ = ("times", "codes", "ids", "horizon")

    def __init__(self, times, codes, names: Sequence[str], horizon: float | None = None):
        self.times = np.array(times, np.float64)
        codes = np.asarray(codes)
        for name, column in (("times", self.times), ("codes", codes)):
            if column.ndim != 1:
                raise ValueError(f"{name} must be a 1-D column, got {column.ndim}-D")
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
        if len(set(self.ids)) < len(self.ids):  # a file would merge the contents that share a name
            seen: set[str] = set()
            repeated = next(c for c in self.ids if c in seen or seen.add(c))
            raise ValueError(f"the names the codes use must be distinct, got {repeated!r} twice")
        if horizon is None:  # the largest finite timestamp, or 0
            horizon = np.max(self.times, initial=0.0, where=np.isfinite(self.times))
        self.horizon = float(horizon)

    @classmethod
    def from_events(cls, events: Iterable[RequestEvent], horizon: float | None = None) -> "Trace":
        """Collect a stream of events; the horizon defaults to the largest finite timestamp, or 0."""
        events = list(events)
        return cls.from_columns([e[0] for e in events], [e[1] for e in events], horizon)

    @classmethod
    def from_columns(cls, times: Sequence[float], ids: Sequence[str], horizon: float | None = None) -> "Trace":
        """Build a trace from parallel timestamp and content-id columns."""
        index: dict[str, int] = {}  # each id's code, by order of first appearance
        codes = np.fromiter((index.setdefault(c, len(index)) for c in ids), np.int32, count=len(ids))
        return cls(times, codes, tuple(index), horizon)

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


def _id_keys(data: np.ndarray, start: np.ndarray, size: np.ndarray, words: int) -> np.ndarray:
    # Each id's key as ``words`` big-endian 64-bit numbers, so that keys compare in byte order: its
    # first bytes from ``start`` on, then 0xFF, which UTF-8 never uses, from byte ``size`` on.  ``data``
    # is the block's UTF-8 text followed by _KEY_BYTES bytes of padding, and one take from the view of
    # the words at every byte offset gathers them all.
    keys = np.ndarray((data.size - _KEY_BYTES, words), np.uint64, data, strides=(1, 8))[start]
    keys.byteswap(inplace=True)
    for j, column in enumerate(keys.T):
        column |= _PAD[np.clip(size - 8 * j, 0, 8)]
    return keys


def _group_rows(keys: np.ndarray, words: int) -> tuple[np.ndarray, np.ndarray]:
    # Each row's group, numbered in the order of the keys, and each group's first row, from one
    # np.unique per word of the first ``words`` (the others must be equal in every row): a row's
    # group so far, shifted left 32 bits and OR-ed with its rank in the next word, fits one int64.
    _, group = np.unique(keys[:, 0], return_inverse=True)
    for column in keys.T[1:words]:
        _, rank = np.unique(column, return_inverse=True)
        _, group = np.unique(group << 32 | rank, return_inverse=True)
    first = np.full(group.max(initial=-1) + 1, group.size)
    np.minimum.at(first, group, np.arange(group.size))
    return group, first


def _parse_rows(stream: IO[str]) -> tuple[np.ndarray, np.ndarray, list[str], str | None]:
    # Columns of the rows before the first malformed one, and its error (or None), read and parsed a block
    # of whole lines at a time so that one block's text and row strings are alive at once.  Ids are coded
    # by their keys (_id_keys), which are equal exactly when the ids are, unless both are longer than
    # MAX_ID_LEN bytes and so invalid: a block's distinct keys are matched against the sorted keys of
    # the earlier blocks, and a new key's name is the text of its first row.
    times, codes, names, error = [np.empty(0)], [np.empty(0, np.int32)], [], None
    seen, seen_codes = np.empty(0, "V8"), np.empty(0, np.int32)  # the keys so far, as bytes, sorted
    while error is None and (text := stream.read(_READ_CHARS)):
        text += stream.readline()  # the rest of the block's last line
        if not text.endswith("\n"):  # the last line of a file without a final line end
            text += "\n"
        data = np.frombuffer(text.encode("utf-8", "surrogatepass") + b"\xff" * _KEY_BYTES, np.uint8)
        at = np.flatnonzero((data == 44) | (data == 10))  # comma and line-end positions, in order
        commas = np.diff(np.flatnonzero(data[at] == 10), prepend=-1) - 1
        rows = commas.size
        if (commas != 1).any():
            rows = int((commas != 1).argmax())
            error = f"expected 2 comma-separated columns, got {commas[rows] + 1}"
            text = "".join(line + "\n" for line in text.split("\n", rows)[:rows])
        start = at[0:2 * rows:2] + 1
        size = np.minimum(at[1:2 * rows:2] - start, MAX_ID_LEN + 1)
        words = -(-int(size.max(initial=1)) // 8)  # the words past the block's longest id are all padding
        if 8 * words > seen.itemsize:  # pad the earlier keys to the block's width
            wide = np.full((seen.size, 8 * words), 255, np.uint8)
            wide[:, :seen.itemsize] = seen.view(np.uint8).reshape(seen.size, seen.itemsize)
            seen = wide.view(f"V{8 * words}").ravel()
        keys = _id_keys(data, start, size, seen.itemsize // 8)
        del data, at  # before the text is split
        text = text.replace("\n", ",")
        fields = text.split(",")
        del text
        stamps = fields[0:-1:2]
        unparsed = iter(stamps)
        try:
            times.append(np.fromiter(map(float, unparsed), np.float64, count=len(stamps)))
        except ValueError:
            # map stopped right after taking the unparsable stamp from the iterator
            rows = len(stamps) - 1 - sum(1 for _ in unparsed)
            error = f"unparsable timestamp {stamps[rows]!r}"
            times.append(np.array([float(s) for s in stamps[:rows]], np.float64))
            keys = keys[:rows]
        group, first = _group_rows(keys, words)
        block = keys[first].astype(">u8").view(seen.dtype).ravel()  # the block's distinct keys, sorted
        where = np.searchsorted(seen, block)
        known = where < seen.size
        known[known] = seen[where[known]] == block[known]
        new = np.flatnonzero(~known)
        block_codes = np.empty(block.size, np.int32)
        block_codes[known] = seen_codes[where[known]]
        block_codes[new] = np.arange(len(names), len(names) + new.size)
        names += [fields[2 * r + 1] for r in first[new].tolist()]
        seen = np.insert(seen, where[new], block[new])
        seen_codes = np.insert(seen_codes, where[new], block_codes[new])
        codes.append(block_codes[group])
        del fields  # before the next block's text is split
    return np.concatenate(times), np.concatenate(codes), names, error


def read_trace(stream: IO[str]) -> Trace:
    """Parse the trace file format from a text stream.

    The horizon defaults to the largest finite timestamp, or 0, unless the
    header carries an explicit ``horizon=`` field.  The rows make a
    :class:`Trace`, and :func:`validate`'s first violation in it, a repeated
    ``horizon=`` field or a malformed row raises :class:`TraceFormatError`
    with the offending line number.
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

    *columns, error = _parse_rows(stream)
    trace = Trace(*columns, horizon)
    del columns  # the trace holds its own copies
    first = min(validate(trace), key=lambda v: v.index, default=None)
    if first is not None:
        raise TraceFormatError(first.message, line=first.index + 2)
    if error is not None:
        raise TraceFormatError(error, line=len(trace) + 2)
    return trace


def write_trace(trace: Trace, stream: IO[str]) -> None:
    """Emit the trace file format.

    Timestamps are rendered with ``repr`` (shortest round-tripping
    decimal), so ``read_trace`` recovers the exact float values.  A
    trace that :func:`validate` rejects raises ``ValueError`` with the
    first violation's message before anything is written.
    """
    first = min(validate(trace), key=lambda v: v.index, default=None)
    if first is not None:
        where = "header" if first.index < 0 else f"request {first.index}"
        raise ValueError(f"cannot write {where}: {first.message}")
    stream.write(f"{HEADER_MAGIC} horizon={trace.horizon!r}\n")
    ends = np.array([f",{c}\n" for c in trace.ids], dtype=object)  # each content's row after the stamp
    for lo in range(0, len(trace), _WRITE_ROWS):
        hi = lo + _WRITE_ROWS
        rows = ends[trace.codes[lo:hi]].tolist()
        parts = rows * 2  # each row's stamp, then the rest of the row
        parts[0::2] = map(repr, trace.times[lo:hi].tolist())
        parts[1::2] = rows
        stream.write("".join(parts))


def validate(trace: Trace) -> list[Violation]:
    """The first offender of each trace invariant (a bad horizon at index -1); [] iff the trace is valid."""
    times, codes, ids, horizon = trace.times, trace.codes, trace.ids, trace.horizon
    violations = []
    if not 0 <= horizon < math.inf:
        violations.append(Violation("horizon", -1, f"horizon must be finite and >= 0, got {horizon!r}"))
        horizon = math.inf  # one horizon violation, not one more for each request
    bad_ids = np.array([not isinstance(c, str) or _CONTENT_ID.fullmatch(c) is None for c in ids], bool)
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


def write_atomic(files: Mapping[Path, Callable[[IO[str]], object]]) -> None:
    """Write each file through a temporary file next to it, in its
    directory (made if missing), then rename them all into place in
    order, so the last one appears last.

    Nothing is renamed until every writer has returned.  On any failure
    the temporary files and the files this call already renamed into
    place are removed (an older file one of them replaced is not
    restored, and a directory made stays), so a failed call leaves none
    of its outputs.
    """
    tmps = {path: path.with_name(path.name + f".tmp{os.getpid()}") for path in files}
    placed = []
    try:
        for path, write in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmps[path], "w", encoding="utf-8", newline="\n") as f:
                write(f)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in (*tmps.values(), *placed):
            path.unlink(missing_ok=True)
        raise


def _reals(key: str, value, sample: bool) -> np.ndarray:
    # the type half of the value rule, as a float array: a real number or a sample, a 1-D sequence of
    # them, made of Python or numpy integers and floats, not bools, complex numbers, strings or mappings
    try:
        values = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        values = None
    if values is None or values.dtype.kind not in "iuf" or values.ndim != int(sample):
        raise ValueError(f"{key} must be {'a 1-D sequence of numbers' if sample else 'a number'}, got {value!r}")
    return values.astype(float)


def _require(key: str, value, positive: bool = True, sample: bool = False) -> float | tuple[float, ...]:
    # the one value rule, over a real number or (in one pass) a sample (see _reals), finite and
    # positive or >= 0. Returns the number as a float, or the sample as a tuple of floats.
    values = _reals(key, value, sample)
    bad = ~np.isfinite(values) | ((values <= 0) if positive else (values < 0))
    if bad.any():
        rule = "positive" if positive else ">= 0"
        raise ValueError(f"{key} must be {rule} and finite, got {values[bad].flat[0]}")
    return tuple(values.tolist()) if sample else values.item()


def _require_bool(key: str, value) -> bool:
    # the one flag rule, which returns a Python bool: a Python or numpy bool, not an integer or a string
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{key} must be a bool, got {value!r}")
    return bool(value)


def _require_int(key: str, value, lo: int | None = None, hi: int | None = None) -> int:
    # the one integer rule, which returns a Python int: a Python or numpy integer, not a bool, in [lo, hi]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    value = int(value)
    if lo is not None and value < lo or hi is not None and value > hi:
        raise ValueError(f"{key} must be >= {lo}, got {value}" if hi is None else
                         f"{key} must be in [{lo}, {hi}], got {value}")
    return value


def format_cell(value) -> str:
    """A string as it is, a number as the ``repr`` of its Python value, which reads back
    exactly: a numpy scalar's ``.item()``, as numpy 2 would write ``np.float64(...)``."""
    if isinstance(value, str):
        return value
    return repr(value.item() if isinstance(value, np.generic) else value)
