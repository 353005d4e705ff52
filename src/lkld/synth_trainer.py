"""Desk-scale synthetic benchmark for the Laplace losses.

A seeded generator produces linear-regression data whose labels carry
Laplace noise, a tiny two-head linear predictor (location head, log-scale
head) is trained by per-sample SGD with hand-chained gradients, and a
comparison runner pits label-scale strategies against each other on shared
data. The point of the exercise: training against the divergence loss with
a sensible label scale stays stable and calibrated where the raw NLL does
not.

Reproducibility: all randomness comes from numpy's PCG64 generator.
``generate`` draws from ``default_rng([seed, 0])`` (true weights, features,
then uniform noise deviates pushed through the Laplace inverse CDF) and the
per-epoch sample order from ``default_rng([seed, 1])``, so identical
configs give bit-identical datasets and reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from ._util import csv_text, fmt_sig, json_int, json_number
from .calibration import calibration_report, laplace_quantile
from .distributions import kld_terms, nll_terms
# Unused: imported only so the names perfbench/tracing.py wraps exist here.
from .distributions import kld_loss, kld_loss_zero_label_scale  # noqa: F401
from .label_uncertainty import fit_mapping, map_iou

__all__ = [
    "ConstantNoise",
    "FeatureDependentNoise",
    "ZeroLabelScale",
    "ConstantLabelScale",
    "OracleLabelScale",
    "HeuristicLabelScale",
    "SynthConfig",
    "Dataset",
    "Predictor",
    "EpochStats",
    "TrainReport",
    "CompareRow",
    "generate",
    "resolve_label_scales",
    "sample_param_grads",
    "train",
    "compare",
    "config_from_dict",
    "compare_configs_from_dict",
    "config_to_dict",
    "train_report_to_csv",
    "comparison_to_csv",
]

# Log-scale head outputs beyond this range under/overflow exp(); treated as
# a non-finite loss (divergence), not an exception.
_LOGSCALE_LIMIT = 700.0


class _Tagged:
    """A noise profile or label-scale mode; ``TAG`` names its kind in config documents."""

    def label(self) -> str:
        """The tag, then the field values at 6 significant digits in parentheses, if any."""
        values = [_text(tp, getattr(self, name)) for name, tp, _ in _fields(type(self))]
        return f"{self.TAG}({';'.join(values)})" if values else self.TAG


@dataclass(frozen=True)
class ConstantNoise(_Tagged):
    """Every label gets the same noise scale (0 means noise-free labels)."""

    TAG = "constant"
    b: float

    def __post_init__(self) -> None:
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise ValueError(f"constant noise scale must be >= 0, got {self.b}")


@dataclass(frozen=True)
class FeatureDependentNoise(_Tagged):
    """Noise scale tied to sample quality, log-linearly between two bounds.

    A sample of quality q in [0, 1] gets scale ``b_high * (b_low/b_high)**q``:
    worst quality maps to b_high, best to b_low. The log-linear form means a
    linear log-scale head (and the exponential IoU mapping) can represent
    the true noise exactly.
    """

    TAG = "feature_dependent"
    b_low: float
    b_high: float

    def __post_init__(self) -> None:
        if not (0.0 < self.b_low <= self.b_high and math.isfinite(self.b_high)):
            raise ValueError(
                f"need 0 < b_low <= b_high, got b_low={self.b_low}, b_high={self.b_high}"
            )


NoiseProfile = ConstantNoise | FeatureDependentNoise


@dataclass(frozen=True)
class ZeroLabelScale(_Tagged):
    """Treat labels as exact: the zero-label-scale (NLL) limit."""

    TAG = "zero"


@dataclass(frozen=True)
class ConstantLabelScale(_Tagged):
    """One fixed label scale for every sample."""

    TAG = "constant"
    b: float

    def __post_init__(self) -> None:
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"constant label scale must be > 0, got {self.b}")


@dataclass(frozen=True)
class OracleLabelScale(_Tagged):
    """Use each sample's true noise scale as its label scale."""

    TAG = "oracle"


@dataclass(frozen=True)
class HeuristicLabelScale(_Tagged):
    """Map each sample's quality through the exponential anchor fit.

    Quality plays the role of a proxy IoU, so the anchors have the same
    meaning as in the geometric pipeline: scale at IoU 0, 0.5, and 1.
    """

    TAG = "heuristic"
    anchors: tuple[float, float, float]

    def __post_init__(self) -> None:
        anchors = tuple(float(a) for a in self.anchors)
        if len(anchors) != 3:
            raise ValueError(f"heuristic mode needs exactly 3 anchors, got {self.anchors}")
        object.__setattr__(self, "anchors", anchors)
        fit_mapping(*anchors)  # validates ordering/positivity


LabelScaleMode = ZeroLabelScale | ConstantLabelScale | OracleLabelScale | HeuristicLabelScale


@dataclass(frozen=True)
class SynthConfig:
    """Full experiment description; seeds make everything reproducible."""

    n_train: int = 256
    n_test: int = 4000
    feature_dim: int = 128
    noise: NoiseProfile = FeatureDependentNoise(0.1, 0.5)
    label_scale: LabelScaleMode = OracleLabelScale()
    seed: int = 0
    epochs: int = 400
    learning_rate: float = 0.03
    grad_clip: float = 1.0
    average_tail_epochs: int = 100

    def __post_init__(self) -> None:
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.grad_clip > 0.0:
            raise ValueError(f"grad_clip must be > 0, got {self.grad_clip}")
        if self.average_tail_epochs < 0:
            raise ValueError(f"average_tail_epochs must be >= 0, got {self.average_tail_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def generator_settings(self) -> tuple:
        return (self.seed, self.n_train, self.n_test, self.feature_dim, self.noise)

    def describe(self) -> str:
        return _describe(self)


@dataclass(frozen=True)
class Dataset:
    """Features with true targets, noisy observed labels, and noise metadata.

    ``true_targets`` are the noise-free linear targets (used for error
    evaluation); ``labels`` are the observed noisy annotations (used for
    training and for judging the predicted distributions); ``quality`` is
    the per-sample proxy IoU in [0, 1] that the heuristic mode maps through
    the anchor fit.
    """

    features: np.ndarray
    true_targets: np.ndarray
    labels: np.ndarray
    true_scales: np.ndarray
    quality: np.ndarray


def _noise_scales(profile: NoiseProfile, quality: np.ndarray) -> np.ndarray:
    if isinstance(profile, ConstantNoise):
        return np.full(quality.shape, profile.b)
    return profile.b_high * (profile.b_low / profile.b_high) ** quality


def generate(config: SynthConfig) -> tuple[Dataset, Dataset]:
    """Draw the train and test sets for a config.

    Features are uniform on [-1, 1); the true target is a fixed (seeded)
    linear function of the features; observed labels add Laplace noise drawn
    through the inverse CDF; quality is the first feature rescaled to [0, 1].
    """
    rng = np.random.default_rng([config.seed, 0])
    d = config.feature_dim
    w_true = rng.uniform(-2.0, 2.0, d)
    c_true = rng.uniform(-1.0, 1.0)

    def make(n: int) -> Dataset:
        features = rng.uniform(-1.0, 1.0, (n, d))
        quality = 0.5 * (features[:, 0] + 1.0)
        scales = _noise_scales(config.noise, quality)
        noise = scales * laplace_quantile(np.clip(rng.random(n), 1e-12, 1.0 - 1e-12))
        true_targets = features @ w_true + c_true
        return Dataset(
            features=features,
            true_targets=true_targets,
            labels=true_targets + noise,
            true_scales=scales,
            quality=quality,
        )

    return make(config.n_train), make(config.n_test)


class Predictor:
    """Two-head linear model: location head plus log-scale head.

    The parameters live in one ``(2, d+1)`` block ``theta``: row 0 is the
    location head, row 1 the log-scale head, and the last column holds each
    head's bias, so ``theta @ [*x, 1]`` is (location, log-scale) for a
    sample. The scale head is parameterized in log space and exponentiated,
    so the predicted scale is positive by construction.
    """

    def __init__(
        self,
        weights_mean: Sequence[float],
        bias_mean: float,
        weights_logscale: Sequence[float],
        bias_logscale: float,
    ) -> None:
        self.theta = np.array(
            [[*weights_mean, bias_mean], [*weights_logscale, bias_logscale]], dtype=float
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predictor):
            return NotImplemented
        return bool(np.array_equal(self.theta, other.theta))

    __hash__ = None  # theta is mutable

    def __repr__(self) -> str:
        return (
            f"Predictor(weights_mean={self.weights_mean!r}, bias_mean={self.bias_mean!r}, "
            f"weights_logscale={self.weights_logscale!r}, bias_logscale={self.bias_logscale!r})"
        )

    @classmethod
    def initial(cls, feature_dim: int) -> "Predictor":
        # Zero weights; log-scale bias ln(1) starts at unit uncertainty,
        # well away from the small-scale singularity.
        return cls([0.0] * feature_dim, 0.0, [0.0] * feature_dim, math.log(1.0))

    @property
    def feature_dim(self) -> int:
        return self.theta.shape[1] - 1

    @property
    def weights_mean(self) -> list[float]:
        return self.theta[0, :-1].tolist()

    @property
    def bias_mean(self) -> float:
        return float(self.theta[0, -1])

    @property
    def weights_logscale(self) -> list[float]:
        return self.theta[1, :-1].tolist()

    @property
    def bias_logscale(self) -> float:
        return float(self.theta[1, -1])

    def copy(self) -> "Predictor":
        return Predictor(
            self.weights_mean, self.bias_mean, self.weights_logscale, self.bias_logscale
        )

    def as_vector(self) -> list[float]:
        """Mean weights, mean bias, log-scale weights, log-scale bias."""
        return self.theta.ravel().tolist()

    def predict_batch(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(locations, scales) over a feature matrix; a value that overflows reads inf."""
        with np.errstate(over="ignore"):
            locs = features @ self.theta[0, :-1] + self.theta[0, -1]
            log_scales = features @ self.theta[1, :-1] + self.theta[1, -1]
            return locs, np.exp(log_scales)


def resolve_label_scales(config: SynthConfig, data: Dataset) -> np.ndarray | None:
    """Per-sample label scales for a config's mode; None means the NLL limit."""
    mode = config.label_scale
    n = data.labels.shape[0]
    if isinstance(mode, ZeroLabelScale):
        return None
    if isinstance(mode, ConstantLabelScale):
        return np.full(n, mode.b)
    if isinstance(mode, OracleLabelScale):
        if not np.all(data.true_scales > 0.0):
            raise ValueError("oracle label scales require strictly positive noise scales")
        return np.asarray(data.true_scales, dtype=float)
    mapping = fit_mapping(*mode.anchors)
    return np.array([map_iou(mapping, q) for q in data.quality])


def _check_labels(labels: np.ndarray, label_scales: np.ndarray | None) -> None:
    """Reject what the loss kernels take on trust: non-finite labels and label scales <= 0."""
    bad = np.flatnonzero(~np.isfinite(labels))
    if bad.size:
        raise ValueError(f"labels must be finite, got {labels[bad[0]]} at sample {bad[0]}")
    if label_scales is not None:
        bad = np.flatnonzero(~((label_scales > 0.0) & np.isfinite(label_scales)))
        if bad.size:
            raise ValueError(
                "label scales must be positive and finite, "
                f"got {label_scales[bad[0]]} at sample {bad[0]}"
            )


def _sample_step(
    loc: float, log_scale: float, label: float, label_scale: float | None
) -> tuple[float, float, float] | None:
    """Loss at one sample from its two head outputs: the SGD step kernel.

    Returns ``(loss, d loss/d location, d loss/d log-scale)``, or None when
    the head outputs are out of range (the run would diverge). The
    log-scale partial multiplies the scale partial by the predicted scale
    (d exp(s)/ds = exp(s)); the gradient w.r.t. the ``(2, d+1)`` block is
    the outer product of the two head partials with ``[*x, 1]``.
    """
    if not (math.isfinite(loc) and -_LOGSCALE_LIMIT < log_scale < _LOGSCALE_LIMIT):
        return None
    scale = math.exp(log_scale)
    if label_scale is None:
        value, d_loc, d_scale = nll_terms(label, loc, scale)
    else:
        value, d_loc, d_scale = kld_terms(label, label_scale, loc, scale)
    return value, d_loc, d_scale * scale


def sample_param_grads(
    predictor: Predictor, x: Sequence[float], label: float, label_scale: float | None
) -> tuple[float, list[float]]:
    """Loss at one sample and its unclipped gradient w.r.t. every parameter.

    Gradient layout matches ``Predictor.as_vector``: mean weights, mean
    bias, log-scale weights, log-scale bias.
    """
    _check_labels(
        np.array([label], dtype=float),
        None if label_scale is None else np.array([label_scale], dtype=float),
    )
    x_row = np.append(x, 1.0)
    if x_row.size - 1 != predictor.feature_dim:
        raise ValueError(
            f"feature row has {x_row.size - 1} values, predictor feature_dim is "
            f"{predictor.feature_dim}"
        )
    step = _sample_step(*predictor.theta.dot(x_row).tolist(), label, label_scale)
    if step is None:
        raise ValueError("predictor output is out of range; training would have diverged")
    value, g_loc, g_log = step
    return value, np.multiply.outer((g_loc, g_log), x_row).ravel().tolist()


@dataclass(frozen=True)
class EpochStats:
    """One epoch of the running iterate on the train set.

    ``mean_loss`` and ``mean_abs_error`` average over the epoch's steps,
    each taken at the head outputs before its update. ``ece`` is the
    calibration gap of the outputs the epoch ends with: ``nan`` when a
    scoring guard fired (the run diverged), ``None`` when the run was
    trained with ``score_epochs=False``.
    """

    mean_loss: float
    mean_abs_error: float
    ece: float | None


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch training stats plus final held-out metrics.

    ``test_mae`` is measured against the noise-free targets; ``test_ece``
    judges the predicted distributions against the noisy held-out labels,
    since only noisy draws can exercise a predicted noise distribution.
    ``diverged`` is set exactly when a non-finite loss (including scale-head
    under/overflow) halted the run; final metrics are then inf/nan.
    """

    epoch_stats: tuple[EpochStats, ...]
    test_mae: float
    test_ece: float
    diverged: bool


def _evaluate(outputs: np.ndarray, data: Dataset) -> tuple[float, float]:
    """(MAE vs true targets, calibration gap vs observed labels).

    ``outputs`` is the ``(n, 2)`` array of head outputs on ``data``:
    location, then log-scale, per sample. Gives ``(inf, nan)`` when a
    location or a predicted scale is not finite or a scale is not
    positive (the log-scale under/overflows exp), or when a residual over
    its predicted scale is not finite.
    """
    locs = outputs[:, 0]
    with np.errstate(over="ignore"):
        scales = np.exp(outputs[:, 1])
    if not (np.isfinite(locs).all() and np.isfinite(scales).all() and (scales > 0.0).all()):
        return math.inf, math.nan
    with np.errstate(over="ignore"):
        residuals = data.labels - locs
        scores_finite = np.isfinite(residuals / scales).all()
    if not scores_finite:
        return math.inf, math.nan
    mae = float(np.mean(np.abs(data.true_targets - locs)))
    return mae, calibration_report(residuals, scales).ece


def train(
    config: SynthConfig,
    train_set: Dataset | None = None,
    test_set: Dataset | None = None,
    init: Predictor | None = None,
    *,
    score_epochs: bool = True,
) -> tuple[Predictor, TrainReport]:
    """Per-sample SGD with the analytic loss gradients chained by hand.

    The per-parameter gradient is clipped by its global L2 norm at
    ``grad_clip`` before the constant-learning-rate update. A non-finite
    loss (or a scale-head output that would under/overflow exp) marks the
    run diverged and halts it; the report records the fact instead of
    raising.

    The parameters move once per epoch. Step j's update is the outer
    product of its lr-scaled head step with the sample's row ``[*x, 1]``,
    so the head outputs before step j are the epoch-start outputs minus
    the Gram-weighted sum ``sum_s (x_s . x_j) step_s`` over the steps
    already taken. Each step is then one n-long dot product with a row of
    the train-set Gram matrix, and the epoch ends with one matmul that
    applies every step and one that gives the new ``(n, 2)`` head outputs:
    the epoch is scored from them and the next one starts from them. This
    is the same per-sample SGD, up to floating-point summation order. The
    Gram matrix takes 8 * n_train**2 bytes (0.5 MB at n_train 256, 32 MB
    at 2000), and the dot product grows with n_train: at feature_dim 128
    it beats a per-step parameter update only below n_train of about 2000
    to 3000 (README gives the timings).

    With ``average_tail_epochs > 0`` the returned predictor (and the one
    scored on the test set) is the average of the iterates visited during
    the last that-many epochs, summed once per epoch with each step
    weighted by the number of iterates it reaches. Constant-step
    per-sample SGD never settles, it hovers around its fixed point; tail
    averaging reports the hover center instead of wherever the final step
    happened to land. Per-epoch stats always describe the running iterate.

    ``score_epochs=False`` skips each epoch's calibration on the train set,
    a ``calibration_report`` of n_train records: every epoch still appends
    its stats, with the same loss and error, and ``ece`` None. The test set
    is scored either way.
    """
    if train_set is None or test_set is None:
        generated_train, generated_test = generate(config)
        train_set = train_set if train_set is not None else generated_train
        test_set = test_set if test_set is not None else generated_test
    for name, data in (("train_set", train_set), ("test_set", test_set)):
        n, d = data.features.shape
        if n == 0:
            raise ValueError(f"{name} is empty")
        if d != config.feature_dim:
            raise ValueError(f"{name} feature_dim {d} != config feature_dim {config.feature_dim}")
        for field in ("true_targets", "labels", "true_scales", "quality"):
            shape = np.shape(getattr(data, field))
            if shape != (n,):
                raise ValueError(f"{name} {field} shape {shape} != ({n},), one value per features row")
    n, d = train_set.features.shape
    if init is not None and init.feature_dim != d:
        raise ValueError(
            f"init predictor feature_dim {init.feature_dim} != dataset feature_dim {d}"
        )

    scales_arr = resolve_label_scales(config, train_set)
    _check_labels(train_set.labels, scales_arr)
    label_scales = [None] * n if scales_arr is None else scales_arr.tolist()
    rows = np.hstack((train_set.features, np.ones((n, 1))))
    gram = rows @ rows.T
    # Per sample: its Gram row, label, label scale, the squared norm of
    # [*x, 1] (the per-parameter gradient's norm is the head gradient's norm
    # times its square root) and its first cell in the flat (n, 2) views.
    samples = list(
        zip(gram, train_set.labels.tolist(), label_scales, gram.diagonal().tolist(), range(0, 2 * n, 2))
    )

    predictor = (init or Predictor.initial(d)).copy()
    theta = predictor.theta
    # This epoch's lr-scaled, clipped head steps by sample; zero until visited.
    steps = np.zeros((n, 2))
    step_cells = memoryview(steps).cast("B").cast("d")
    # How far the steps so far have moved the current sample's head outputs.
    moved = np.empty(2)
    moved_cells = memoryview(moved)
    weights = np.empty(n)
    lr = config.learning_rate
    clip = config.grad_clip

    order_rng = np.random.default_rng([config.seed, 1])
    stats: list[EpochStats] = []
    diverged = False
    avg_start = max(0, config.epochs - config.average_tail_epochs)
    acc = np.zeros_like(theta)
    acc_count = 0
    # Head outputs on the train set, (n, 2): each epoch starts from them and
    # the one before was scored from them. Overflow gives inf, which the
    # step kernel and _evaluate report as divergence.
    outputs = np.empty((n, 2))
    output_cells = memoryview(outputs).cast("B").cast("d")
    with np.errstate(over="ignore"):
        np.matmul(rows, theta.T, out=outputs)

    for epoch_idx in range(config.epochs):
        averaging = config.average_tail_epochs > 0 and epoch_idx >= avg_start
        steps.fill(0.0)
        order = order_rng.permutation(n)
        total_loss = 0.0
        total_abs = 0.0
        seen = 0
        for gram_row, y, label_scale, sq_norm, cell in map(samples.__getitem__, order.tolist()):
            gram_row.dot(steps, moved)
            moved_loc, moved_log = moved_cells
            loc = output_cells[cell] - moved_loc
            step = _sample_step(loc, output_cells[cell + 1] - moved_log, y, label_scale)
            if step is None:
                diverged = True
                total_loss = math.inf
                break
            value, g_loc, g_log = step
            seen += 1
            total_abs += abs(y - loc)
            if not (math.isfinite(value) and math.isfinite(g_loc) and math.isfinite(g_log)):
                diverged = True
                total_loss = math.inf
                break
            total_loss += value

            norm = math.sqrt((g_loc * g_loc + g_log * g_log) * sq_norm)
            if norm > clip:
                if norm == math.inf:
                    # The squares overflowed, not the gradient: take the norm
                    # of the gradient over its larger head partial.
                    big = max(abs(g_loc), abs(g_log))
                    g_loc /= big
                    g_log /= big
                    norm = math.sqrt((g_loc * g_loc + g_log * g_log) * sq_norm)
                factor = clip / norm
                g_loc *= factor
                g_log *= factor
            step_cells[cell] = lr * g_loc
            step_cells[cell + 1] = lr * g_log

        if averaging:
            # The iterate after step j is theta - sum_{i<=j} step_i x_i, so
            # summed over the epoch's iterates step i counts seen - i times.
            weights[order] = np.arange(seen, seen - n, -1)
            acc += seen * theta - (weights[:, None] * steps).T @ rows
            acc_count += seen
        theta -= steps.T @ rows
        with np.errstate(over="ignore"):
            np.matmul(rows, theta.T, out=outputs)

        if seen:
            mean_loss = total_loss / seen
            mean_abs = total_abs / seen
            epoch_ece = _evaluate(outputs, train_set)[1] if score_epochs else None
        else:
            mean_loss = math.inf
            mean_abs = math.nan
            epoch_ece = math.nan if score_epochs else None
        stats.append(EpochStats(mean_loss, mean_abs, epoch_ece))
        if diverged:
            break

    if not diverged and acc_count > 0:
        predictor.theta = acc / acc_count
    if diverged:
        test_mae, test_ece = math.inf, math.nan
    else:
        theta = predictor.theta
        with np.errstate(over="ignore"):
            test_outputs = test_set.features @ theta[:, :-1].T + theta[:, -1]
        test_mae, test_ece = _evaluate(test_outputs, test_set)
        if not math.isfinite(test_mae):
            diverged = True
    return predictor, TrainReport(tuple(stats), test_mae, test_ece, diverged)


@dataclass(frozen=True)
class CompareRow:
    mode: str
    test_mae: float
    test_ece: float
    diverged: bool


def compare(configs: Sequence[SynthConfig]) -> list[CompareRow]:
    """Train one run per config on shared data and tabulate the final metrics.

    All configs must agree on seed and generator settings; they are meant to
    differ only in how the label scale is chosen. A row holds only final
    test metrics, so each run skips the per-epoch train-set scoring
    (``score_epochs=False``); its test MAE, ECE and ``diverged`` equal
    those of ``train(cfg, train_set, test_set)``.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    settings = configs[0].generator_settings()
    for cfg in configs[1:]:
        if cfg.generator_settings() != settings:
            raise ValueError(
                "compare configs must share seed and generator settings; "
                f"{cfg.generator_settings()} != {settings}"
            )
    train_set, test_set = generate(configs[0])
    rows = []
    for cfg in configs:
        _, report = train(cfg, train_set, test_set, score_epochs=False)
        rows.append(
            CompareRow(
                mode=cfg.label_scale.label(),
                test_mae=report.test_mae,
                test_ece=report.test_ece,
                diverged=report.diverged,
            )
        )
    return rows


# Each union of config choices: the key that holds a document's tag, and the class of each tag.
_TAGS = {
    union: (tag_key, {cls.TAG: cls for cls in get_args(union)})
    for union, tag_key in ((NoiseProfile, "kind"), (LabelScaleMode, "mode"))
}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object, object], ...]:
    """A config dataclass's fields as (name, declared type, default or ``MISSING``)."""
    hints = get_type_hints(cls)
    return tuple((field.name, hints[field.name], field.default) for field in fields(cls))


def _read(tp: object, value: object, key: str) -> object:
    """A field's value of declared type ``tp`` from its JSON value; ``key`` names it in errors."""
    if tp is int:
        return json_int(value, f"config key {key!r}")
    if tp is float:
        return json_number(value, f"config key {key!r}")
    if tp in _TAGS:
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be a JSON object, got {value!r}")
        tag_key, classes = _TAGS[tp]
        tag = value.get(tag_key)
        if not (isinstance(tag, str) and tag in classes):
            raise ValueError(f"unknown {key} {tag_key} {tag!r}")
        return _read_fields(classes[tag], value, f"{key}.", (tag_key,))
    if not isinstance(value, list):
        raise ValueError(f"config key {key!r} must be a list, got {value!r}")
    return tuple(json_number(item, f"config key '{key}[{i}]'") for i, item in enumerate(value))


def _read_fields(cls: type, doc: dict, prefix: str = "", tag_keys: tuple = ()) -> object:
    """``cls`` from a JSON object, field by field: unknown keys are errors, missing
    keys take the field's default, and a field without one must be present."""
    walk = _fields(cls)
    known = [*tag_keys, *(name for name, _, _ in walk)]
    for key in doc:
        if key not in known:
            raise ValueError(
                f"unknown config key {f'{prefix}{key}'!r}; known keys: {', '.join(known)}"
            )
    values = {}
    for name, tp, default in walk:
        if name in doc:
            values[name] = _read(tp, doc[name], prefix + name)
        elif default is MISSING:
            raise ValueError(f"config key {prefix + name!r} is missing")
    return cls(**values)


def _write(tp: object, value: object) -> object:
    """A field's value of declared type ``tp`` as JSON: tag first, then the fields."""
    if tp in _TAGS:
        return {_TAGS[tp][0]: value.TAG, **_write_fields(value)}
    return list(value) if get_origin(tp) is tuple else value


def _write_fields(value: object) -> dict:
    return {name: _write(tp, getattr(value, name)) for name, tp, _ in _fields(type(value))}


def _text(tp: object, value: object) -> str:
    """A field's value of declared type ``tp`` as report-header text."""
    if tp is int:
        return str(value)
    if tp is float:
        return fmt_sig(value, 6)
    if tp in _TAGS:
        return value.label()
    return ";".join(fmt_sig(item, 6) for item in value)


def _describe(config: SynthConfig, omit: str | None = None) -> str:
    """``name=value`` for each field but ``omit``, in field order: the report header."""
    return " ".join(
        f"{name}={_text(tp, getattr(config, name))}"
        for name, tp, _ in _fields(SynthConfig)
        if name != omit
    )


def config_from_dict(doc: dict) -> SynthConfig:
    """Build a config from its JSON representation (missing keys use defaults).

    A key that is not a field is rejected with its name, at any depth, so
    a misspelt key does not silently leave its default in place. Counts and
    the seed must be JSON integers: ``2.9``, ``"3"`` and ``true`` are
    rejected with the key's name, not truncated or converted. The rate,
    the clip, noise and label scales and heuristic anchors must be JSON
    numbers: ``"0.5"`` and ``true`` are rejected the same way.
    """
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    return _read_fields(SynthConfig, doc)


def compare_configs_from_dict(doc: object) -> list[SynthConfig]:
    """The configs of a compare document: its base ``config`` once per ``modes`` entry."""
    if not isinstance(doc, dict) or "modes" not in doc:
        raise ValueError("compare config must be an object with 'config' and 'modes'")
    for key in doc:
        if key not in ("config", "modes"):
            raise ValueError(f"unknown compare config key {key!r}; known keys: config, modes")
    base = config_from_dict(doc.get("config", {}))
    modes = doc["modes"]
    if not isinstance(modes, list) or not modes:
        raise ValueError("'modes' must be a non-empty list")
    return [
        replace(base, label_scale=_read(LabelScaleMode, mode, f"modes[{i}]"))
        for i, mode in enumerate(modes)
    ]


def config_to_dict(config: SynthConfig) -> dict:
    return _write_fields(config)


def train_report_to_csv(config: SynthConfig, report: TrainReport) -> str:
    """Per-epoch rows plus a final test row; the config rides in a comment header.

    An unscored epoch (``ece`` None) leaves its ``ece`` cell empty.
    """
    rows = [
        (str(i), fmt_sig(stats.mean_loss), fmt_sig(stats.mean_abs_error),
         "" if stats.ece is None else fmt_sig(stats.ece))
        for i, stats in enumerate(report.epoch_stats, start=1)
    ]
    rows.append(("final", fmt_sig(report.test_mae), fmt_sig(report.test_ece), str(report.diverged).lower()))
    return csv_text(("epoch", "mean_loss", "mean_abs_error", "ece"), rows, comment=config.describe())


def comparison_to_csv(base: SynthConfig, rows: Sequence[CompareRow]) -> str:
    """One row per mode; ``base``'s settings but its label scale ride in a comment header."""
    return csv_text(
        ("mode", "test_mae", "test_ece", "diverged"),
        ((row.mode, fmt_sig(row.test_mae), fmt_sig(row.test_ece), str(row.diverged).lower()) for row in rows),
        comment=_describe(base, omit="label_scale"),
    )
