import pytest
from hypothesis import given, strategies as st

from rawbench import (EvalRecord, build_report, corruption_degradation,
                      relative_cd, truncated_mean)
from rawbench.errors import MetricError, ParameterError
from rawbench.metrics import format_report_table, normalize_score


class TestCorruptionDegradation:
    def test_equal_scores_give_one(self):
        assert corruption_degradation(0.62, 0.62) == 1.0

    def test_benchmark_low_light_value(self):
        # RAW-Adapter 75.9 vs baseline 74.9: 0.241/0.251
        cd = corruption_degradation(75.9, 74.9)
        assert cd == pytest.approx((1 - 0.759) / (1 - 0.749), abs=1e-12)
        assert cd == pytest.approx(0.960, abs=1e-3)

    def test_perfect_method_gives_zero(self):
        assert corruption_degradation(1.0, 0.8) == 0.0

    def test_zero_reference_error_undefined(self):
        with pytest.raises(MetricError):
            corruption_degradation(0.9, 1.0)

    @pytest.mark.parametrize("score", ["0.5", None, True, [0.5]])
    def test_non_number_rejected(self, score):
        with pytest.raises(ParameterError, match="not a number"):
            corruption_degradation(score, 0.5)

    def test_percent_fraction_invariance(self):
        # decimal literals differ in the last ulp after /100, nothing more
        assert corruption_degradation(75.9, 74.9) == pytest.approx(
            corruption_degradation(0.759, 0.749), abs=1e-12)


class TestRelativeCd:
    def test_reference_against_itself(self):
        assert relative_cd(0.72, 0.88, 0.72, 0.88) == 1.0

    def test_benchmark_fixture(self):
        # (0.887-0.759)/(0.877-0.749) = 0.128/0.128
        rcd = relative_cd(75.9, 88.7, 74.9, 87.7)
        assert rcd == pytest.approx(1.000, abs=1e-3)

    def test_unaffected_method_gives_zero(self):
        assert relative_cd(0.85, 0.85, 0.70, 0.88) == 0.0

    def test_zero_denominator_error_carries_inputs(self):
        with pytest.raises(MetricError) as exc:
            relative_cd(0.8, 0.9, 0.88, 0.88)
        assert "0.88" in str(exc.value)


class TestTruncatedMean:
    def test_three_values(self):
        assert truncated_mean([1, 2, 3]) == 2.0

    def test_ties(self):
        assert truncated_mean([5, 5, 5, 5]) == 5.0

    def test_derived_fixture(self):
        assert truncated_mean([0.9, 1.0, 1.1, 2.0, 0.1]) == 1.0

    def test_too_few_values(self):
        with pytest.raises(ParameterError):
            truncated_mean([1.0, 2.0])

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=3, max_size=12))
    def test_between_min_and_max(self, values):
        tm = truncated_mean(values)
        assert min(values) - 1e-9 <= tm <= max(values) + 1e-9

    @given(st.lists(st.floats(0, 10), min_size=3, max_size=9), st.randoms())
    def test_order_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert truncated_mean(values) == pytest.approx(
            truncated_mean(shuffled), abs=1e-12)


def _table_records():
    rows = [
        ("baseline", "normal", 0.877), ("baseline", "low_light", 0.749),
        ("baseline", "fog", 0.547), ("baseline", "snow", 0.363),
        ("baseline", "rain", 0.580),
        ("adapter", "normal", 0.887), ("adapter", "low_light", 0.759),
        ("adapter", "fog", 0.474), ("adapter", "snow", 0.372),
        ("adapter", "rain", 0.493),
    ]
    return [EvalRecord(method=m, condition=c, score=s) for m, c, s in rows]


class TestBuildReport:
    def test_reference_rows_are_unity(self):
        report = build_report(_table_records(), "baseline")
        for c in report.conditions:
            assert report.cd[("baseline", c)] == pytest.approx(1.0, abs=1e-12)
            if c != "normal":
                assert report.rcd[("baseline", c)] == pytest.approx(1.0, abs=1e-12)

    def test_low_light_cell(self):
        report = build_report(_table_records(), "baseline")
        assert report.cd[("adapter", "low_light")] == pytest.approx(0.960, abs=1e-3)
        assert report.rcd[("adapter", "low_light")] == pytest.approx(1.000, abs=1e-3)

    def test_truncated_mean_needs_three(self):
        records = [EvalRecord("ref", "normal", 0.9), EvalRecord("ref", "fog", 0.5),
                   EvalRecord("m", "normal", 0.9), EvalRecord("m", "fog", 0.6)]
        report = build_report(records, "ref")
        assert report.truncated_mean_rcd["m"] is None

    def test_truncated_mean_present(self):
        report = build_report(_table_records(), "baseline")
        vals = [report.rcd[("adapter", c)] for c in
                ("low_light", "fog", "snow", "rain")]
        assert report.truncated_mean_rcd["adapter"] == pytest.approx(
            truncated_mean(vals), abs=1e-12)

    def test_missing_reference_condition(self):
        records = _table_records() + [EvalRecord("adapter", "moire", 0.5)]
        with pytest.raises(MetricError) as exc:
            build_report(records, "baseline")
        assert "moire" in str(exc.value)

    def test_missing_method_cell_marked(self):
        records = _table_records()[:-1]  # drop adapter rain
        report = build_report(records, "baseline")
        assert report.cd[("adapter", "rain")] is None
        assert report.rcd[("adapter", "rain")] is None

    def test_zero_denominator_marked_not_dropped(self):
        records = [
            EvalRecord("ref", "normal", 0.9), EvalRecord("ref", "fog", 0.9),
            EvalRecord("ref", "rain", 0.5),
            EvalRecord("m", "normal", 0.9), EvalRecord("m", "fog", 0.7),
            EvalRecord("m", "rain", 0.6),
        ]
        report = build_report(records, "ref")
        assert report.rcd[("m", "fog")] is None
        assert report.rcd[("m", "rain")] is not None

    def test_ingestion_order_invariant(self):
        records = _table_records()
        a = build_report(records, "baseline")
        b = build_report(list(reversed(records)), "baseline")
        assert a == b

    def test_score_validation(self):
        with pytest.raises(ParameterError):
            EvalRecord("m", "fog", 1.5)
        with pytest.raises(ParameterError):
            normalize_score(150.0)
        with pytest.raises(ParameterError):
            normalize_score(-0.2)

    def test_table_formatting(self):
        report = build_report(_table_records(), "baseline")
        table = format_report_table(report)
        assert "96.0%" in table
        assert "reference: baseline" in table
        assert "truncated-mean rCD" in table


@pytest.mark.parametrize("method, condition, score", [
    (["a"], "fog", 0.5), ("a", 3, 0.5), ("a", "fog", True), ("a", "fog", "0.5"),
    ("a", "fog", float("nan")),
])
def test_eval_record_checks_types(method, condition, score):
    with pytest.raises(ParameterError):
        EvalRecord(method, condition, score)
