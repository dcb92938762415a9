"""Tests for the analytic/measured overhead table machinery."""

import pytest

from repro.experiments.overheads import (
    TABLE_PROTOCOLS,
    OverheadRow,
    build_table,
    expected_overheads,
    measure_overheads,
    render_table,
)


class TestAnalyticFormulas:
    @pytest.mark.parametrize("protocol,expected", [
        ("2PC", (4, 7, 8)),
        ("PA", (4, 7, 8)),
        ("PC", (4, 5, 6)),
        ("3PC", (4, 11, 12)),
        ("DPCC", (4, 1, 0)),
        ("CENT", (0, 1, 0)),
    ])
    def test_table3_formulas(self, protocol, expected):
        assert expected_overheads(protocol, 3).as_tuple() == expected

    @pytest.mark.parametrize("protocol,expected", [
        ("2PC", (10, 13, 20)),
        ("PA", (10, 13, 20)),
        ("PC", (10, 8, 15)),
        ("3PC", (10, 20, 30)),
        ("DPCC", (10, 1, 0)),
        ("CENT", (0, 1, 0)),
    ])
    def test_table4_formulas(self, protocol, expected):
        assert expected_overheads(protocol, 6).as_tuple() == expected

    def test_opt_variants_inherit_base_counts(self):
        assert (expected_overheads("OPT", 3).as_tuple()
                == expected_overheads("2PC", 3).as_tuple())
        assert (expected_overheads("OPT-PC", 3).as_tuple()
                == expected_overheads("PC", 3).as_tuple())
        assert (expected_overheads("OPT-3PC", 6).as_tuple()
                == expected_overheads("3PC", 6).as_tuple())

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            expected_overheads("4PC", 3)


class TestMeasurement:
    def test_measured_matches_analytic_2pc(self):
        measured = measure_overheads("2PC", 3, 6, transactions=40)
        assert measured.as_tuple() == expected_overheads("2PC", 3).as_tuple()

    def test_measured_matches_analytic_pc_dd6(self):
        measured = measure_overheads("PC", 6, 3, transactions=40)
        assert measured.as_tuple() == expected_overheads("PC", 6).as_tuple()

    def test_build_table_pairs(self):
        rows = build_table(3, 6, protocols=("2PC", "PC"), transactions=30)
        assert len(rows) == 2
        for expected, actual in rows:
            assert expected.as_tuple() == actual.as_tuple()

    @pytest.mark.parametrize("target_ci", [None, 0.5])
    def test_parallel_table_matches_serial(self, target_ci):
        serial = build_table(3, 6, transactions=30, target_ci=target_ci)
        parallel = build_table(3, 6, transactions=30, jobs=2,
                               target_ci=target_ci)
        assert parallel == serial

    def test_build_table_analytic_only(self):
        rows = build_table(3, 6, measured=False)
        assert len(rows) == len(TABLE_PROTOCOLS)
        for expected, actual in rows:
            assert expected is actual

    def test_render_table_marks_matches(self):
        text = render_table(3, 6, protocols=("2PC",), transactions=30)
        assert "DistDegree = 3" in text
        assert "yes" in text
        assert "NO" not in text


def test_overhead_row_tuple():
    row = OverheadRow("X", 1, 2, 3)
    assert row.as_tuple() == (1, 2, 3)
