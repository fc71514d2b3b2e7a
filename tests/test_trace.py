import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmcache.trace import RequestEvent, Trace, TraceFormatError, read_trace, validate, write_trace

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

    def test_timestamp_beyond_declared_horizon(self):
        with pytest.raises(TraceFormatError) as exc:
            read_trace(io.StringIO("# trace-v1 horizon=1\n2.0,a\n"))
        assert exc.value.line == 2


class TestWriteTrace:
    def test_empty_trace_header_only(self):
        buf = io.StringIO()
        write_trace(Trace([], 0.0), buf)
        assert buf.getvalue() == "# trace-v1 horizon=0.0\n"

    def test_single_event_row(self):
        buf = io.StringIO()
        write_trace(Trace.from_events([RequestEvent(2.25, "x")]), buf)
        assert buf.getvalue().splitlines()[1] == "2.25,x"

    def test_double_roundtrip_byte_identical(self):
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0, 30, 10_000))
        events = [RequestEvent(float(t), f"v{rng.integers(0, 500)}") for t in times]
        trace = Trace(events, 30.0)
        first = io.StringIO()
        write_trace(trace, first)
        first.seek(0)
        second = io.StringIO()
        write_trace(read_trace(first), second)
        assert first.getvalue() == second.getvalue()


class TestRoundTrip:
    def test_random_thousand_rows(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 12, 1000))
        events = [RequestEvent(float(t), f"c{rng.integers(0, 40)}") for t in times]
        trace = Trace(events, 15.0)
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
        trace = Trace(events, horizon)
        assert roundtrip(trace) == trace


class TestValidate:
    def test_valid_trace(self):
        assert validate(make_trace(["a", "b", "a"])) == []

    def test_unsorted(self):
        t = Trace([RequestEvent(1.0, "a"), RequestEvent(0.5, "b")], 2.0)
        v = validate(t)
        assert len(v) == 1
        assert v[0].invariant == "sorted" and v[0].index == 1

    def test_beyond_horizon(self):
        t = Trace([RequestEvent(1.0, "a")], 0.5)
        v = validate(t)
        assert len(v) == 1
        assert v[0].invariant == "horizon" and v[0].index == 0

    def test_bad_timestamp_and_id(self):
        t = Trace([RequestEvent(-1.0, "a"), RequestEvent(0.0, "")], 2.0)
        names = {v.invariant for v in validate(t)}
        assert names == {"timestamp", "content_id"}


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
        trace = Trace([RequestEvent(t, cid) for t, cid in rows], horizon)
        buf = io.StringIO()
        write_trace(trace, buf)
        buf.seek(0)
        violations = validate(trace)
        if violations:
            with pytest.raises(TraceFormatError) as exc:
                read_trace(buf)
            assert exc.value.line == min(v.index for v in violations) + 2
        else:
            assert read_trace(buf) == trace
