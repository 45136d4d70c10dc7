"""Error metrics and evaluation reports.

Percentage errors are expressed against positive actual runtimes; the
relative form divides by the actual, the symmetric form by the mean of
actual and predicted.  The loss helpers score predictions in the labels'
own units, so they are not the optimizers' numbers: fit_huber minimises its
loss in robust units and the MLP its loss in z-scored units.
"""

from dataclasses import dataclass
import math
import re

from .errors import (
    EmptyInputError, NonFiniteError, NonPositiveActualError, DegenerateDenominatorError,
)

HUBER_DELTA_DEFAULT = 1.35

_GROUP_SUFFIX = re.compile(r"(_case\d+|_\d+)$")


def ape(actual: float, predicted: float) -> float:
    """Absolute percentage error, |a - p| / a * 100."""
    if actual <= 0:
        raise NonPositiveActualError(actual)
    return abs(actual - predicted) / actual * 100.0


def sape(actual: float, predicted: float) -> float:
    """Symmetric absolute percentage error, |a - p| / ((a + p) / 2) * 100."""
    if actual + predicted <= 0:
        raise DegenerateDenominatorError(actual, predicted)
    return abs(actual - predicted) / (actual + predicted) * 200.0


def loss_mse(actuals, predictions) -> float:
    actuals = list(actuals)
    predictions = list(predictions)
    if not actuals or len(actuals) != len(predictions):
        raise EmptyInputError("need matching non-empty actual/prediction sequences")
    return sum((a - p) ** 2 for a, p in zip(actuals, predictions)) / len(actuals)


def huber_value(diff: float, delta: float = HUBER_DELTA_DEFAULT) -> float:
    d = abs(diff)
    if d <= delta:
        return 0.5 * d * d
    return delta * d - 0.5 * delta * delta


def loss_huber(actuals, predictions, delta: float = HUBER_DELTA_DEFAULT) -> float:
    actuals = list(actuals)
    predictions = list(predictions)
    if not actuals or len(actuals) != len(predictions):
        raise EmptyInputError("need matching non-empty actual/prediction sequences")
    return sum(huber_value(a - p, delta) for a, p in zip(actuals, predictions)) / len(actuals)


def group_of(sample_id: str) -> str:
    """Strip a trailing case or size suffix so runs of the same program
    aggregate together: 'matmul_128' and 'matmul_256' both map to 'matmul'."""
    stripped = _GROUP_SUFFIX.sub("", sample_id)
    return stripped or sample_id


@dataclass(frozen=True)
class SampleScore:
    sample_id: str
    actual: float
    predicted: float
    ape: float
    sape: float


@dataclass(frozen=True)
class EvalReport:
    scores: tuple
    group_ape: dict
    group_sape: dict
    mean_ape: float
    mean_sape: float
    mse: float

    def table(self) -> str:
        """Human-readable summary, one line per group plus the overall row."""
        lines = []
        lines.append(f"{'group':<24} {'n':>5} {'mean APE %':>12} {'mean sAPE %':>12}")
        lines.append("-" * 57)
        counts = {}
        for s in self.scores:
            counts[group_of(s.sample_id)] = counts.get(group_of(s.sample_id), 0) + 1
        for name in sorted(self.group_ape):
            lines.append(
                f"{name:<24} {counts[name]:>5} {self.group_ape[name]:>12.3f} "
                f"{self.group_sape[name]:>12.3f}"
            )
        lines.append("-" * 57)
        lines.append(
            f"{'overall':<24} {len(self.scores):>5} {self.mean_ape:>12.3f} "
            f"{self.mean_sape:>12.3f}"
        )
        lines.append(f"mse: {self.mse:.6f}")
        return "\n".join(lines)


def score_pairs(rows) -> EvalReport:
    """Build a report from (sample_id, actual, predicted) triples.  A nan or
    infinite prediction raises NonFiniteError naming its sample."""
    rows = list(rows)
    if not rows:
        raise EmptyInputError("no samples to score")
    scores = []
    for sample_id, actual, predicted in rows:
        if not math.isfinite(predicted):
            raise NonFiniteError(f"sample '{sample_id}': prediction {predicted!r} is not finite")
        scores.append(SampleScore(
            sample_id=sample_id,
            actual=actual,
            predicted=predicted,
            ape=ape(actual, predicted),
            sape=sape(actual, predicted),
        ))
    by_group = {}
    for s in scores:
        by_group.setdefault(group_of(s.sample_id), []).append(s)
    group_ape = {g: sum(s.ape for s in ss) / len(ss) for g, ss in by_group.items()}
    group_sape = {g: sum(s.sape for s in ss) / len(ss) for g, ss in by_group.items()}
    return EvalReport(
        scores=tuple(scores),
        group_ape=group_ape,
        group_sape=group_sape,
        mean_ape=sum(s.ape for s in scores) / len(scores),
        mean_sape=sum(s.sape for s in scores) / len(scores),
        mse=loss_mse([s.actual for s in scores], [s.predicted for s in scores]),
    )


def evaluate(model, dataset) -> EvalReport:
    """Score a trained model (anything with .predict taking a feature matrix)
    against a labeled dataset."""
    rows = dataset.labeled()
    if not rows:
        raise EmptyInputError("dataset has no labeled rows")
    matrix = [list(r.features.values) for r in rows]
    predictions = model.predict(matrix)
    return score_pairs(
        (r.sample_id, r.label, float(p)) for r, p in zip(rows, predictions)
    )
