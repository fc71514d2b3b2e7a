import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestWriteTrace:
    def test_empty_trace_header_only(self):
        buf = io.StringIO()
        write_trace(Trace.from_events([], 0.0), buf)
        assert buf.getvalue() == "# trace-v1 horizon=0.0\n"

    def test_single_event_row(self):
        buf = io.StringIO()
        write_trace(Trace.from_events([RequestEvent(2.25, "x")]), buf)
        assert buf.getvalue().splitlines()[1] == "2.25,x"

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
        # with no horizon= field the horizon is the last timestamp, or 0, and a
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

    @pytest.mark.parametrize("codes", [[-1, -1], [0, 2], [1, -2]])
    def test_codes_must_index_the_names(self, codes):
        # a negative code used to wrap around to the last name
        with pytest.raises(ValueError, match="codes must index the 2 names"):
            Trace(np.array([0.0, 1.0]), np.array(codes, np.int32), ["a", "b"], 3.0)

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
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_first_error_line_matches_first_violation(self, rows, horizon):
        trace = Trace.from_events([RequestEvent(t, cid) for t, cid in rows], horizon)
        # the rows as write_trace formats them, which it refuses to do for an invalid trace
        buf = io.StringIO(f"# trace-v1 horizon={trace.horizon!r}\n"
                          + "".join(f"{t!r},{cid}\n" for t, cid in zip(trace.times.tolist(), trace.content_ids())))
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
            assert written.getvalue() == buf.getvalue()
