import math
import random

import pytest

from irtime import (
    HUBER_DELTA_DEFAULT, EvalReport, ape, sape, loss_mse, loss_huber,
    huber_value, group_of, score_pairs,
)
from irtime.errors import (
    EmptyInputError, IrTimeError, NonFiniteError, NonPositiveActualError,
    DegenerateDenominatorError,
)


def test_ape_values():
    assert ape(100.0, 150.0) == 50.0
    assert ape(200.0, 100.0) == 50.0
    assert ape(8.0, 8.0) == 0.0
    # not symmetric: the denominator is the actual
    assert ape(100.0, 200.0) != ape(200.0, 100.0)


def test_ape_requires_positive_actual():
    with pytest.raises(NonPositiveActualError):
        ape(0.0, 5.0)
    with pytest.raises(NonPositiveActualError):
        ape(-3.0, 5.0)


def test_sape_values():
    assert abs(sape(200.0, 100.0) - 66.6666666667) < 1e-9
    assert sape(5.0, 5.0) == 0.0
    # one-sided zero is the worst case
    assert sape(100.0, 0.0) == 200.0


def test_sape_symmetric_and_bounded():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.uniform(0.001, 1e6)
        p = rng.uniform(0.0, 1e6)
        s = sape(a, p)
        assert s == sape(p, a)
        assert 0.0 <= s <= 200.0


def test_sape_degenerate_denominator():
    with pytest.raises(DegenerateDenominatorError):
        sape(0.0, 0.0)
    with pytest.raises(DegenerateDenominatorError):
        sape(5.0, -5.0)


def test_mse():
    assert loss_mse([3.0, 0.0], [0.0, 4.0]) == 12.5
    assert loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    with pytest.raises(EmptyInputError):
        loss_mse([], [])
    with pytest.raises(EmptyInputError):
        loss_mse([1.0], [1.0, 2.0])


def test_huber_piecewise():
    assert HUBER_DELTA_DEFAULT == 1.35
    assert huber_value(1.0, 1.35) == 0.5
    assert huber_value(-1.0, 1.35) == 0.5
    # linear branch: delta*|d| - delta^2/2 = 1.35*2.4 - 0.91125
    assert abs(huber_value(2.4, 1.35) - 2.32875) < 1e-12
    assert huber_value(0.0) == 0.0


def test_huber_continuous_at_delta():
    for delta in (0.5, 1.0, 1.35, 7.25):
        # both branch formulas agree exactly at the knot
        quadratic = 0.5 * delta * delta
        linear = delta * delta - 0.5 * delta * delta
        assert abs(quadratic - linear) < 1e-12
        assert abs(huber_value(delta, delta) - quadratic) < 1e-12
        # and the function is continuous through it
        eps = 1e-9
        below = huber_value(delta - eps, delta)
        above = huber_value(delta + eps, delta)
        assert abs(above - below) <= 3 * delta * eps


def test_loss_huber_mixes_branches():
    # residuals 1.0 (quadratic) and 3.0 (linear) under delta=1.35
    got = loss_huber([1.0, 3.0], [0.0, 0.0], delta=1.35)
    want = (0.5 + (1.35 * 3.0 - 0.5 * 1.35 ** 2)) / 2
    assert abs(got - want) < 1e-12


def test_group_of():
    assert group_of("matmul_128") == "matmul"
    assert group_of("matmul_case3") == "matmul"
    assert group_of("fib") == "fib"
    assert group_of("sort2d_case10") == "sort2d"
    # only one trailing suffix is stripped
    assert group_of("a_1_2") == "a_1"
    # a bare suffix would strip to nothing; keep the original then
    assert group_of("_7") == "_7"


def test_score_pairs_report():
    report = score_pairs([
        ("m_1", 100.0, 110.0),
        ("m_2", 100.0, 90.0),
        ("other", 50.0, 50.0),
    ])
    assert isinstance(report, EvalReport)
    assert set(report.group_ape) == {"m", "other"}
    assert abs(report.group_ape["m"] - 10.0) < 1e-12
    assert report.group_ape["other"] == 0.0
    # overall mean is the mean over samples, not over groups
    assert abs(report.mean_ape - (10.0 + 10.0 + 0.0) / 3) < 1e-12
    assert abs(report.mse - (100.0 + 100.0 + 0.0) / 3) < 1e-12
    per_sample = [s.sape for s in report.scores]
    assert abs(report.mean_sape - sum(per_sample) / 3) < 1e-12


def test_score_pairs_empty():
    with pytest.raises(EmptyInputError):
        score_pairs([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_score_pairs_rejects_non_finite_prediction(bad):
    # one such prediction would make mean_ape nan or inf for the whole report
    with pytest.raises(NonFiniteError, match=r"^sample 'b_2': prediction .* is not finite$") \
            as info:
        score_pairs([("a_1", 100.0, 90.0), ("b_2", 100.0, bad), ("c", 50.0, 50.0)])
    assert isinstance(info.value, IrTimeError)


def test_table_renders():
    report = score_pairs([
        ("alpha_1", 10.0, 12.0),
        ("alpha_2", 10.0, 9.0),
        ("beta", 4.0, 4.0),
    ])
    text = report.table()
    assert "alpha" in text
    assert "beta" in text
    assert "overall" in text
    assert "mse:" in text
    # one line per group, plus header/rule/overall/mse
    assert len(text.splitlines()) == 7
    for line in text.splitlines():
        assert not line.endswith(" ")


def test_metrics_are_finite():
    rng = random.Random(11)
    for _ in range(100):
        a = rng.uniform(0.01, 1e4)
        p = rng.uniform(0.0, 1e4)
        assert math.isfinite(ape(a, p))
        assert math.isfinite(sape(a, p))
        assert math.isfinite(huber_value(a - p))
