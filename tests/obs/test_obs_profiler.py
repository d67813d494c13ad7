"""The ``--profile`` aggregation: tracer totals' monoid laws and rows."""

import pytest
from hypothesis import given, strategies as st

from repro.obs import trace


@pytest.fixture(autouse=True)
def no_installed_tracer():
    yield
    trace.disable_tracer()


# Integer-valued seconds keep merge exactly associative; real totals
# are float sums where associativity is approximate (like RunResult).
totals_maps = st.dictionaries(
    st.sampled_from(["uplink", "capture", "dwt", "codec"]),
    st.tuples(
        st.integers(min_value=0, max_value=10**6).map(float),
        st.integers(min_value=1, max_value=10**6),
    ),
    max_size=4,
)


class TestMonoid:
    @given(totals_maps, totals_maps, totals_maps)
    def test_merge_associative(self, a, b, c):
        left = trace.merge_totals(trace.merge_totals(a, b), c)
        right = trace.merge_totals(a, trace.merge_totals(b, c))
        assert left == right

    @given(totals_maps)
    def test_identity_is_two_sided_unit(self, a):
        assert trace.merge_totals({}, a) == a
        assert trace.merge_totals(a, {}) == a

    @given(totals_maps, totals_maps)
    def test_merge_commutative(self, a, b):
        assert trace.merge_totals(a, b) == trace.merge_totals(b, a)

    @given(totals_maps)
    def test_from_rows_inverts_rows(self, a):
        # total_rows() rounds seconds to 6 decimals; integer-valued
        # times survive exactly.
        rebuilt = {
            row["section"]: (row["seconds"], row["calls"])
            for row in trace.total_rows(a)
        }
        assert rebuilt == a

    def test_merge_does_not_mutate_operands(self):
        a = {"x": (1.0, 1)}
        b = {"x": (2.0, 3)}
        assert trace.merge_totals(a, b) == {"x": (3.0, 4)}
        assert a == {"x": (1.0, 1)}
        assert b == {"x": (2.0, 3)}


class TestProfiled:
    """Profiled sections: every span is timed into the tracer's totals."""

    def test_records_when_enabled(self):
        tracer = trace.enable_tracer()
        with trace.span("k"):
            pass
        with trace.span("k"):
            pass
        assert tracer.totals["k"][1] == 2
        assert tracer.totals["k"][0] >= 0.0

    def test_nested_sections_both_recorded(self):
        tracer = trace.enable_tracer()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        assert {name: calls for name, (_, calls) in tracer.totals.items()} == {
            "outer": 1,
            "inner": 1,
        }
        # Sections are flat: the outer span contains the inner one.
        assert tracer.totals["outer"][0] >= tracer.totals["inner"][0]

    def test_rows_sorted_longest_first(self):
        rows = trace.total_rows({"fast": (1.0, 1), "slow": (5.0, 2)})
        assert [r["section"] for r in rows] == ["slow", "fast"]
