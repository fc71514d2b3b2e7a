import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmcache.analysis import classify_contents, content_stats, density_map, slice_bounds, sliced_popularity
from snmcache.cachesim import hit_curve, lru_results, reuse_distances, simulate_lru
from snmcache.generators import IrmConfig, SnmClassConfig, SnmConfig, SnmEventStream, generate_irm, generate_snm
from snmcache.shuffle import slice_shuffle
from snmcache.trace import (
    RequestEvent,
    Trace,
    TraceFormatError,
    Violation,
    read_trace,
    validate,
    write_atomic,
    write_trace,
)

from helpers import make_trace


def roundtrip(trace: Trace) -> Trace:
    buf = io.StringIO()
    write_trace(trace, buf)
    buf.seek(0)
    return read_trace(buf)


class TestReadTrace:
    def test_empty_body_with_horizon(self):
        t = read_trace(io.StringIO("# trace-v1 horizon=10\n"))
        assert len(t) == 0
        assert t.horizon == 10.0

    def test_ties_preserved_in_file_order(self):
        t = read_trace(io.StringIO("# trace-v1\n0.5,a\n0.5,b\n1.0,a\n"))
        assert t.events == [RequestEvent(0.5, "a"), RequestEvent(0.5, "b"), RequestEvent(1.0, "a")]
        assert t.horizon == 1.0

    def test_horizon_defaults_to_last_timestamp(self):
        t = read_trace(io.StringIO("# trace-v1\n1.0,a\n3.5,b\n"))
        assert t.horizon == 3.5

    def test_missing_header(self):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO("0.5,a\n"))
        assert exc.value.line == 1

    def test_wrong_column_count(self):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO("# trace-v1\n0.5,a\n0.7\n"))
        assert exc.value.line == 3

    def test_unparsable_number(self):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO("# trace-v1\nnope,a\n"))
        assert exc.value.line == 2

    def test_negative_timestamp(self):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO("# trace-v1\n-0.5,a\n"))
        assert exc.value.line == 2

    def test_unsorted_rows(self):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO("# trace-v1\n1.0,a\n0.5,b\n"))
        assert exc.value.line == 3
        assert "sorted" in str(exc.value)

    def test_bad_content_id(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("# trace-v1\n0.5,has space\n"))
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("# trace-v1\n0.5,\n"))

    def test_repeated_horizon_field(self):
        with pytest.raises(TraceFormatError, match="repeated header field 'horizon'") as exc:
            read_trace(io.StringIO("# trace-v1 horizon=5 horizon=1\n0.5,a\n"))
        assert exc.value.line == 1

    def test_timestamp_beyond_declared_horizon(self):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO("# trace-v1 horizon=1\n2.0,a\n"))
        assert exc.value.line == 2

    @pytest.mark.parametrize("chars", [1, 5, 12, 1 << 20])
    def test_any_block_size_reads_the_same(self, monkeypatch, chars):
        # the block size sets how much text is alive at once, never the result or the line an error names;
        # a last line may lack its line end
        monkeypatch.setattr("snmcache.trace._READ_CHARS", chars)
        times, ids = [i / 4 for i in range(20)], [f"c{i % 3}" for i in range(20)]
        body = "# trace-v1\n" + "".join(f"{t!r},{c}\n" for t, c in zip(times, ids))
        expected = Trace.from_columns(times, ids, 4.75)
        assert read_trace(io.StringIO(body)) == read_trace(io.StringIO(body[:-1])) == expected
        for last, message in [("0.7", "line 22: expected 2 comma-separated columns, got 1"),
                              ("9.5,a,b", "line 22: expected 2 comma-separated columns, got 3"),
                              ("x,a", "line 22: unparsable timestamp 'x'"),
                              ("1.0,a", "line 22: timestamps not sorted: 1.0 after 4.75")]:
            for end in ("\n", ""):
                with pytest.raises(TraceFormatError) as exc:
                    read_trace(io.StringIO(body + last + end))
                assert str(exc.value) == message
        # a violation in an earlier row wins over a later malformed row
        with pytest.raises(TraceFormatError, match="^line 5: timestamps not sorted: 0.0 after 0.5$"):
            read_trace(io.StringIO(body.replace("0.5,c2", "0.5,c2\n0.0,c2", 1) + "0.7"))

    @pytest.mark.parametrize("header,message", [
        ("# trace-v1 horizon=5 seed=1\n", "line 1: unrecognized header field 'seed=1'"),
        ("# trace-v1 horizon=five\n", "line 1: unparsable horizon 'horizon=five'"),
    ])
    def test_bad_header_fields(self, header, message):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO(header + "0.5,a\n"))
        assert (str(exc.value), exc.value.line) == (message, 1)

    def test_memory_peak_per_request(self, tmp_path):
        # the reader holds one _READ_CHARS block of text at a time, not the whole file: 200,000 rows
        # with ids of 64 hex digits, as long as a SHA-256 digest (84 bytes a row, 17 MB, 16 blocks),
        # peak at 44 bytes a request (48 when a dict coded the ids); reading the whole text at once peaked at 167
        rng = np.random.default_rng(1)
        trace = Trace(np.sort(rng.random(200_000)) * 30, rng.integers(0, 1000, 200_000),
                      [f"{k:064x}" for k in range(1000)], 30.0)
        path = tmp_path / "long_ids.trace"
        with open(path, "w", encoding="utf-8") as f:
            write_trace(trace, f)
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as f:
                before = tracemalloc.get_traced_memory()[0]
                read = read_trace(f)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert read == trace
        assert peak <= 64 * len(trace)


def dict_read(body: str) -> Trace:
    """The reader's contract restated row by row for a headerless body, with ids coded by
    ``Trace.from_columns``'s dict: the rows before the first malformed one make the trace, whose first
    violation, else the malformed row, raises."""
    rows = body.split("\n")[1:]
    if rows[-1] == "":  # the final line end
        rows.pop()
    times, ids, error = [], [], None
    for row in rows:
        fields = row.split(",")
        if len(fields) != 2:
            error = f"expected 2 comma-separated columns, got {len(fields)}"
            break
        try:
            times.append(float(fields[0]))
        except ValueError:
            error = f"unparsable timestamp {fields[0]!r}"
            break
        ids.append(fields[1])
    trace = Trace.from_columns(times, ids)
    first = min(validate(trace), key=lambda v: v.index, default=None)
    if first is not None:
        raise TraceFormatError(first.message, line=first.index + 2)
    if error is not None:
        raise TraceFormatError(error, line=len(trace) + 2)
    return trace


class TestIdKeys:
    # the reader codes ids by their first 65 UTF-8 bytes padded with 0xFF into 8-byte words; these ids
    # end at, and share prefixes across, the word boundaries and the 65-byte cut
    LENGTHS = (0, 1, 7, 8, 9, 16, 17, 63, 64, 65, 66, 70)

    @staticmethod
    def outcome(body: str, read) -> Trace | str:
        try:
            return read(body)
        except TraceFormatError as exc:
            return str(exc)

    @staticmethod
    def random_body(rng: np.random.Generator) -> str:
        # half the bodies are valid; the others may hold invalid ids and malformed or unsorted rows
        valid = rng.random() < 0.5
        lengths = [n for n in TestIdKeys.LENGTHS if 0 < n <= 64] if valid else TestIdKeys.LENGTHS
        base = "".join(rng.choice(list("abcXYZ019._:/+-~"), 70))
        pool = []
        for length in rng.choice(lengths, rng.integers(1, 6), replace=False).tolist():
            pool.append(base[:length])
            if length:  # the same prefix with another last byte: \x00, which the padding must not equal, or é
                pool.append(base[:length - 1] + str(rng.choice(["A"] if valid else ["A", "\x00", "é", " "])))
        rows, t = [], 0.0
        for _ in range(rng.integers(0, 120)):
            t += float(rng.choice([0.0, 0.25, 1.5]))
            stamp, name = repr(t), str(rng.choice(pool))
            fault = 1.0 if valid else rng.random()
            if fault < 0.02:
                stamp = "x"
            elif fault < 0.04:
                name += ",b"
            elif fault < 0.06:
                stamp = repr(t - 2.0)  # out of order, or negative
            rows.append(f"{stamp},{name}\n")
        body = "# trace-v1\n" + "".join(rows)
        return body[:-1] if rows and rng.random() < 0.3 else body

    @pytest.mark.parametrize("chars", [1, 7, 64, 1 << 20])
    def test_reader_agrees_with_the_dict_coding(self, monkeypatch, chars):
        monkeypatch.setattr("snmcache.trace._READ_CHARS", chars)
        rng = np.random.default_rng(33)
        valid = 0
        for _ in range(60):
            body = self.random_body(rng)
            expected = self.outcome(body, dict_read)
            assert self.outcome(body, lambda text: read_trace(io.StringIO(text))) == expected, body
            valid += isinstance(expected, Trace) and len(expected) > 0
        assert valid >= 10  # the cases do not all fail at their first row

    def test_padding_is_no_utf8_byte(self):
        # with 0x00 padding "a" and "a\x00" would share a key and the invalid id would read as "a"
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO("# trace-v1\n0.5,a\n1.0,a\x00\n"))
        assert str(exc.value) == "line 3: invalid content id 'a\\x00'"

    def test_long_ids_with_one_key_name_the_first(self):
        # ids past 64 bytes that share their first 65 share a key; the error names the first row's id
        prefix = "x" * 65
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO(f"# trace-v1\n0.25,a\n0.5,{prefix}first\n1.0,{prefix}last\n"))
        assert str(exc.value) == f"line 3: invalid content id {prefix + 'first'!r}"


class TestWriteTrace:
    def test_empty_trace_header_only(self):
        buf = io.StringIO()
        write_trace(Trace.from_events([], 0.0), buf)
        assert buf.getvalue() == "# trace-v1 horizon=0.0\n"

    def test_single_event_row(self):
        buf = io.StringIO()
        write_trace(Trace.from_events([RequestEvent(2.25, "x")]), buf)
        assert buf.getvalue().splitlines()[1] == "2.25,x"

    def test_rows_are_whole_lines_across_write_blocks(self, monkeypatch):
        # each block of rows ends with a line end, also the file's last one
        monkeypatch.setattr("snmcache.trace._WRITE_ROWS", 2)
        buf = io.StringIO()
        write_trace(Trace.from_columns([0.0, 0.5, 1.0], ["a", "b", "a"], 2.0), buf)
        assert buf.getvalue() == "# trace-v1 horizon=2.0\n0.0,a\n0.5,b\n1.0,a\n"

    def test_double_roundtrip_byte_identical(self):
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0, 30, 10_000))
        events = [RequestEvent(float(t), f"v{rng.integers(0, 500)}") for t in times]
        trace = Trace.from_events(events, 30.0)
        first = io.StringIO()
        write_trace(trace, first)
        first.seek(0)
        second = io.StringIO()
        write_trace(read_trace(first), second)
        assert first.getvalue() == second.getvalue()

    @pytest.mark.parametrize(
        "times, ids, horizon, message",
        [
            ([0.0], [","], 1.0, "cannot write request 0: invalid content id ','"),
            ([0.0, 2.0, 1.0], ["a", "b", "c"], 3.0, "cannot write request 2: timestamps not sorted: 1.0 after 2.0"),
            ([0.0, 2.5], ["a", "b"], 2.0, "cannot write request 1: timestamp 2.5 beyond horizon 2.0"),
        ],
        ids=["bad-id", "unsorted", "beyond-horizon"],
    )
    def test_invalid_trace_writes_nothing(self, times, ids, horizon, message):
        buf = io.StringIO()
        with pytest.raises(ValueError) as exc:
            write_trace(Trace.from_columns(times, ids, horizon), buf)
        assert str(exc.value) == message
        assert buf.getvalue() == ""

    def test_invalid_trace_leaves_no_file(self, tmp_path):
        path = tmp_path / "bad.trace"
        with pytest.raises(ValueError):
            write_atomic({path: lambda f: write_trace(Trace.from_columns([0.0], [","], 1.0), f)})
        assert list(tmp_path.iterdir()) == []


class TestHorizonRule:
    # one rule, "finite and >= 0", for validate, write_trace and read_trace;
    # write_trace used to write a header that read_trace then rejected
    BAD = [math.nan, math.inf, -math.inf, -1.0]

    @pytest.mark.parametrize("horizon", BAD)
    def test_validate_reports_the_horizon(self, horizon):
        expected = [Violation("horizon", -1, f"horizon must be finite and >= 0, got {horizon!r}")]
        assert validate(Trace.from_columns([], [], horizon)) == expected
        assert validate(Trace.from_columns([0.0, 0.5], ["a", "b"], horizon)) == expected

    @pytest.mark.parametrize("horizon", BAD)
    def test_write_trace_writes_nothing(self, horizon):
        buf = io.StringIO()
        with pytest.raises(ValueError) as exc:
            write_trace(Trace.from_columns([], [], horizon), buf)
        assert str(exc.value) == f"cannot write header: horizon must be finite and >= 0, got {horizon!r}"
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("horizon", BAD)
    def test_read_trace_reports_line_one(self, horizon):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO(f"# trace-v1 horizon={horizon!r}\n0.0,a\n"))
        assert exc.value.line == 1
        assert str(exc.value) == f"line 1: horizon must be finite and >= 0, got {horizon!r}"

    def test_headerless_default_is_no_bad_horizon(self):
        # with no horizon= field the horizon is the largest finite timestamp, or 0, and a
        # non-finite row is reported at its own line rather than as the horizon
        assert read_trace(io.StringIO("# trace-v1\n")).horizon == 0.0
        for row in ("inf", "nan"):
            with pytest.raises(TraceFormatError) as exc:
                read_trace(io.StringIO(f"# trace-v1\n0.5,a\n{row},b\n"))
            assert str(exc.value) == f"line 3: timestamp {float(row)!r} not finite and >= 0"


class TestRoundTrip:
    def test_random_thousand_rows(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 12, 1000))
        events = [RequestEvent(float(t), f"c{rng.integers(0, 40)}") for t in times]
        trace = Trace.from_events(events, 15.0)
        assert roundtrip(trace) == trace

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.text(alphabet="abcXYZ019._:/+-", min_size=1, max_size=12),
            ),
            max_size=60,
        )
    )
    def test_roundtrip_property(self, rows):
        rows.sort(key=lambda r: r[0])
        events = [RequestEvent(t, cid) for t, cid in rows]
        horizon = (events[-1].timestamp if events else 0.0) + 1.0
        trace = Trace.from_events(events, horizon)
        assert roundtrip(trace) == trace



class TestConstructor:
    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="column lengths differ: 3 times, 2 codes"):
            Trace(np.array([0.0, 1.0, 2.0]), np.array([0, 0], np.int32), ["a"], 3.0)

    def test_codes_may_be_any_integer_sequence(self):
        assert Trace([0.0, 1.0], [1, 0], ["a", "b"], 3.0) == Trace.from_columns([0.0, 1.0], ["b", "a"], 3.0)
        assert len(Trace([], np.array([], np.float64), [], 0.0)) == 0  # an empty column of any dtype

    def test_codes_must_be_integers(self):
        with pytest.raises(ValueError, match="codes must be integers, got float64"):
            Trace(np.array([0.0, 1.0]), np.array([0.0, 1.0]), ["a", "b"], 3.0)

    @pytest.mark.parametrize("times,codes,names,message", [
        # a 0-d pair used to reach np.minimum.at's "not broadcastable"
        (0.5, 0, ["a"], "times must be a 1-D column, got 0-D"),
        # a 2-D pair used to construct, and write_trace then wrote "[0.5, 0.6],['a', 'b']"
        ([[0.5, 0.6]], [[0, 1]], ["a", "b"], "times must be a 1-D column, got 2-D"),
        ([0.5, 0.6], [[0, 1]], ["a", "b"], "codes must be a 1-D column, got 2-D"),
    ])
    def test_columns_must_be_1d(self, times, codes, names, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Trace(times, codes, names, 1.0)

    @pytest.mark.parametrize("codes", [[-1, -1], [0, 2], [1, -2]])
    def test_codes_must_index_the_names(self, codes):
        # a negative code used to wrap around to the last name
        with pytest.raises(ValueError, match="codes must index the 2 names"):
            Trace(np.array([0.0, 1.0]), np.array(codes, np.int32), ["a", "b"], 3.0)

    def test_used_names_must_be_distinct(self):
        # two contents named "a" used to construct; the file write_trace wrote
        # read back as one content, with other reuse distances
        with pytest.raises(ValueError, match="distinct, got 'a' twice"):
            Trace([0.0, 1.0, 2.0], [0, 1, 0], ["a", "a"], 2.0)
        with pytest.raises(ValueError, match="got 'b' twice"):
            Trace([0.0, 1.0, 2.0], [2, 0, 1], ["b", "c", "b"], 2.0)
        # a repeated name that no code uses is left out, as any unused name is
        assert Trace([0.0, 1.0], [0, 1], ["a", "b", "a"], 2.0).ids == ("a", "b")

    def test_equal_only_to_a_trace(self):
        t = Trace.from_columns([0.5], ["a"], 1.0)
        assert t.__eq__((t.times, t.codes, t.ids, t.horizon)) is NotImplemented
        assert t != (t.times, t.codes, t.ids, t.horizon) and t != "a"

    def test_horizon_defaults_to_the_largest_finite_time(self):
        # from_events took the last time, read_trace the largest finite one
        assert Trace([2.0, 1.0, math.inf, math.nan], [0, 1, 0, 1], ["a", "b"]).horizon == 2.0
        assert Trace([math.nan], [0], ["a"]).horizon == Trace([], [], []).horizon == 0.0
        assert Trace.from_columns([0.5, 1.5], ["a", "b"]).horizon == 1.5

    def test_repr_names_the_size_and_the_horizon(self):
        assert repr(Trace.from_columns([0.5, 0.75], ["a", "b"], 1.5)) == "Trace(2 events, horizon=1.5)"

class TestValidate:
    def test_valid_trace(self):
        assert validate(make_trace(["a", "b", "a"])) == []

    def test_unsorted(self):
        t = Trace.from_events([RequestEvent(1.0, "a"), RequestEvent(0.5, "b")], 2.0)
        v = validate(t)
        assert len(v) == 1
        assert v[0].invariant == "sorted" and v[0].index == 1

    def test_beyond_horizon(self):
        t = Trace.from_events([RequestEvent(1.0, "a")], 0.5)
        v = validate(t)
        assert len(v) == 1
        assert v[0].invariant == "horizon" and v[0].index == 0

    def test_bad_timestamp_and_id(self):
        t = Trace.from_events([RequestEvent(-1.0, "a"), RequestEvent(0.0, "")], 2.0)
        names = {v.invariant for v in validate(t)}
        assert names == {"timestamp", "content_id"}

    @pytest.mark.parametrize("cid", [1, 2.5, None, b"a"])
    def test_non_string_id_is_a_content_id_violation(self, cid):
        # these raised "TypeError: expected string or bytes-like object" from the id rule
        trace = Trace.from_columns([0.0], [cid], 1.0)
        assert validate(trace) == [Violation("content_id", 0, f"invalid content id {cid!r}")]
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(f"cannot write request 0: invalid content id {cid!r}")):
            write_trace(trace, buf)
        assert buf.getvalue() == ""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text(st.one_of(st.characters(max_codepoint=130),  # ASCII edges and lone surrogates
                              st.characters(min_codepoint=0xD7F0, max_codepoint=0xE00F, exclude_categories=()))),
            st.text(st.sampled_from(" !+,-~\x7f"), max_size=3),  # each edge of the allowed ranges
            st.text(st.characters(min_codepoint=32, max_codepoint=127), min_size=62, max_size=66),
        )
    )
    def test_content_id_rule(self, cid):
        rule = 1 <= len(cid) <= 64 and all(33 <= ord(c) <= 126 and c != "," for c in cid)
        violations = validate(Trace.from_columns([0.0], [cid], 1.0))
        assert [v.invariant for v in violations] == ([] if rule else ["content_id"])


class TestReaderValidatorAgreement:
    # Ids may hold anything but the line break, so each row stays one line
    # of the file and the reader's line L is the validator's index L - 2.
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 2.0])),
                st.one_of(st.text(st.characters(blacklist_characters="\n"), max_size=8),
                          st.sampled_from(["a", "b", "c1_10"])),
            ),
            max_size=12,
        ),
        # None leaves the horizon out of both the trace and the header, which gave the last
        # timestamp and the largest finite one, so unsorted rows broke at different lines
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=3.0)),
    )
    def test_first_error_line_matches_first_violation(self, rows, horizon):
        trace = Trace.from_events([RequestEvent(t, cid) for t, cid in rows], horizon)
        # the rows as write_trace formats them, which it refuses to do for an invalid trace
        header = f"# trace-v1 horizon={trace.horizon!r}\n"
        text = "".join(f"{t!r},{cid}\n" for t, cid in zip(trace.times.tolist(), trace.content_ids()))
        buf = io.StringIO(("# trace-v1\n" if horizon is None else header) + text)
        violations = validate(trace)
        if violations:
            with pytest.raises(ValueError):
                write_trace(trace, io.StringIO())
            with pytest.raises(TraceFormatError) as exc:
                read_trace(buf)
            first = min(violations, key=lambda v: v.index)
            assert exc.value.line == first.index + 2
            # a comma in an id splits its row, which the reader reports as a malformed row
            if "," not in trace.content_ids()[first.index]:
                assert str(exc.value) == f"line {first.index + 2}: {first.message}"
        else:
            assert read_trace(buf) == trace
            written = io.StringIO()
            write_trace(trace, written)
            assert written.getvalue() == header + text


# the inputs of the value-rule table below
TOY = make_trace([1, 2, 1, 3])
ONE_CLASS = (SnmClassConfig(1, 2.0, 1.5, "uniform", 5.0),)


class TestValueRules:
    """The package's value rules live in ``trace``; every check of an argument is one call,
    which returns the value it accepted."""

    # every integer site: the call of a value v, a value it rejects, the whole message, and a value it accepts
    SITES = {
        "simulate_lru": (lambda v: simulate_lru(TOY, v).capacity, 0, "capacity must be >= 1, got 0", 2),
        "lru_results": (lambda v: lru_results(TOY, reuse_distances(TOY), [v])[0].capacity, -1,
                        "capacity must be >= 1, got -1", 1),
        "hit_curve": (lambda v: hit_curve([1.0], [v])[0][0], 0, "capacity must be >= 1, got 0", 3),
        "K": (lambda v: slice_bounds(4, v)[-1][0], 5, "K must be in [1, 4], got 5", 2),
        "top_ranks": (lambda v: sliced_popularity(TOY, 1, v), 0, "top_ranks must be >= 1, got 0", 5),
        # a threshold of -3 used to count every content, and 'x' to raise numpy's UFuncTypeError
        "classify_contents": (lambda v: classify_contents(content_stats(TOY), v).tolist(), "x",
                              "volume_threshold must be an integer, got 'x'", 2),
        "density_map": (lambda v: density_map(content_stats(TOY), v, [0.0, 2.0], [1.0, 3.0]).tolist(), -3,
                        "volume_threshold must be >= 1, got -3", 2),
        "catalogue_size": (lambda v: generate_irm(IrmConfig(v, 0.8, 20, 1.0), 1), 0,
                           "catalogue_size must be >= 1, got 0", 5),
        "class id": (lambda v: SnmClassConfig(v, 2.0, 1.5, "uniform", 5.0).class_id, -3,
                     "class -3: class id must be >= 0, got -3", 2),
        "SnmConfig seed": (lambda v: SnmConfig(5.0, ONE_CLASS, seed=v).seed, "x",
                           "seed must be an integer, got 'x'", 7),
        "generate_irm seed": (lambda v: generate_irm(IrmConfig(5, 0.8, 20, 1.0), v), 1.5,
                              "seed must be an integer, got 1.5", 3),
        "slice_shuffle seed": (lambda v: slice_shuffle(TOY, 2, v), True, "seed must be an integer, got True", 3),
        "generate_snm seed": (lambda v: generate_snm(ONE_CLASS, 5.0, v), None, "seed must be an integer, got None", 3),
        "SnmEventStream seed": (lambda v: list(SnmEventStream(ONE_CLASS, 5.0, v)), "3",
                                "seed must be an integer, got '3'", 3),
    }

    @pytest.mark.parametrize("call,bad,message,good", SITES.values(), ids=SITES.keys())
    def test_integer_sites(self, call, bad, message, good):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == message
        # a numpy integer is the Python int: a value the call hands back is an int too
        expected, got = call(good), call(np.int64(good))
        assert got == expected and type(got) is type(expected)
