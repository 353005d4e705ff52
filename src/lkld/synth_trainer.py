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

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._util import fmt_sig
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
    "config_to_dict",
    "train_report_to_csv",
    "comparison_to_csv",
]

# Log-scale head outputs beyond this range under/overflow exp(); treated as
# a non-finite loss (divergence), not an exception.
_LOGSCALE_LIMIT = 700.0


@dataclass(frozen=True)
class ConstantNoise:
    """Every label gets the same noise scale (0 means noise-free labels)."""

    b: float

    def __post_init__(self) -> None:
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise ValueError(f"constant noise scale must be >= 0, got {self.b}")

    def label(self) -> str:
        return f"constant({fmt_sig(self.b, 6)})"


@dataclass(frozen=True)
class FeatureDependentNoise:
    """Noise scale tied to sample quality, log-linearly between two bounds.

    A sample of quality q in [0, 1] gets scale ``b_high * (b_low/b_high)**q``:
    worst quality maps to b_high, best to b_low. The log-linear form means a
    linear log-scale head (and the exponential IoU mapping) can represent
    the true noise exactly.
    """

    b_low: float
    b_high: float

    def __post_init__(self) -> None:
        if not (0.0 < self.b_low <= self.b_high and math.isfinite(self.b_high)):
            raise ValueError(
                f"need 0 < b_low <= b_high, got b_low={self.b_low}, b_high={self.b_high}"
            )

    def label(self) -> str:
        return f"feature_dependent({fmt_sig(self.b_low, 6)};{fmt_sig(self.b_high, 6)})"


NoiseProfile = ConstantNoise | FeatureDependentNoise


@dataclass(frozen=True)
class ZeroLabelScale:
    """Treat labels as exact: the zero-label-scale (NLL) limit."""

    def label(self) -> str:
        return "zero"


@dataclass(frozen=True)
class ConstantLabelScale:
    """One fixed label scale for every sample."""

    b: float

    def __post_init__(self) -> None:
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"constant label scale must be > 0, got {self.b}")

    def label(self) -> str:
        return f"constant({fmt_sig(self.b, 6)})"


@dataclass(frozen=True)
class OracleLabelScale:
    """Use each sample's true noise scale as its label scale."""

    def label(self) -> str:
        return "oracle"


@dataclass(frozen=True)
class HeuristicLabelScale:
    """Map each sample's quality through the exponential anchor fit.

    Quality plays the role of a proxy IoU, so the anchors have the same
    meaning as in the geometric pipeline: scale at IoU 0, 0.5, and 1.
    """

    anchors: tuple[float, float, float]

    def __post_init__(self) -> None:
        anchors = tuple(float(a) for a in self.anchors)
        if len(anchors) != 3:
            raise ValueError(f"heuristic mode needs exactly 3 anchors, got {self.anchors}")
        object.__setattr__(self, "anchors", anchors)
        fit_mapping(*anchors)  # validates ordering/positivity

    def label(self) -> str:
        return "heuristic(" + ";".join(fmt_sig(a, 6) for a in self.anchors) + ")"


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

    def generator_settings(self) -> tuple:
        return (self.seed, self.n_train, self.n_test, self.feature_dim, self.noise)

    def describe(self) -> str:
        return (
            f"n_train={self.n_train} n_test={self.n_test} feature_dim={self.feature_dim} "
            f"noise={self.noise.label()} label_scale={self.label_scale.label()} "
            f"seed={self.seed} epochs={self.epochs} "
            f"learning_rate={fmt_sig(self.learning_rate, 6)} grad_clip={fmt_sig(self.grad_clip, 6)} "
            f"average_tail_epochs={self.average_tail_epochs}"
        )


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
        """(locations, scales) over a feature matrix."""
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
    step = _sample_step(*predictor.theta.dot(x_row).tolist(), label, label_scale)
    if step is None:
        raise ValueError("predictor output is out of range; training would have diverged")
    value, g_loc, g_log = step
    return value, np.multiply.outer((g_loc, g_log), x_row).ravel().tolist()


@dataclass(frozen=True)
class EpochStats:
    mean_loss: float
    mean_abs_error: float
    ece: float


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


def _evaluate(predictor: Predictor, data: Dataset) -> tuple[float, float]:
    """(MAE vs true targets, calibration gap vs observed labels).

    Gives ``(inf, nan)`` when the predictor's outputs, or a residual over
    its predicted scale, are not finite.
    """
    with np.errstate(over="ignore"):
        locs, scales = predictor.predict_batch(data.features)
    finite = (
        np.all(np.isfinite(locs)) and np.all(np.isfinite(scales)) and np.all(scales > 0.0)
    )
    if not finite:
        return math.inf, math.nan
    with np.errstate(over="ignore"):
        residuals = data.labels - locs
        scores_finite = np.all(np.isfinite(residuals / scales))
    if not scores_finite:
        return math.inf, math.nan
    mae = float(np.mean(np.abs(data.true_targets - locs)))
    return mae, calibration_report(residuals, scales).ece


def train(
    config: SynthConfig,
    train_set: Dataset | None = None,
    test_set: Dataset | None = None,
    init: Predictor | None = None,
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
    applies every step. This is the same per-sample SGD, up to
    floating-point summation order. The Gram matrix takes 8 * n_train**2
    bytes (0.5 MB at n_train 256, 32 MB at 2000), and the dot product
    grows with n_train: at feature_dim 128 it beats a per-step parameter
    update only below n_train of about 1500 (measured on a 2-vCPU Xeon).

    With ``average_tail_epochs > 0`` the returned predictor (and the one
    scored on the test set) is the average of the iterates visited during
    the last that-many epochs, summed once per epoch with each step
    weighted by the number of iterates it reaches. Constant-step
    per-sample SGD never settles, it hovers around its fixed point; tail
    averaging reports the hover center instead of wherever the final step
    happened to land. Per-epoch stats always describe the running iterate.
    """
    if train_set is None or test_set is None:
        generated_train, generated_test = generate(config)
        train_set = train_set if train_set is not None else generated_train
        test_set = test_set if test_set is not None else generated_test
    n, d = train_set.features.shape
    if d != config.feature_dim:
        raise ValueError(f"dataset feature_dim {d} != config feature_dim {config.feature_dim}")

    scales_arr = resolve_label_scales(config, train_set)
    _check_labels(train_set.labels, scales_arr)
    label_scales = [None] * n if scales_arr is None else scales_arr.tolist()
    rows = np.hstack((train_set.features, np.ones((n, 1))))
    gram = rows @ rows.T
    gram_rows = list(gram)
    # Squared norm of [*x, 1]: the per-parameter gradient's norm is the head
    # gradient's norm times sqrt of this.
    sq_norms = gram.diagonal().tolist()
    ys = train_set.labels.tolist()

    predictor = (init or Predictor.initial(d)).copy()
    theta = predictor.theta
    # This epoch's lr-scaled, clipped head steps by sample; zero until visited.
    steps = np.zeros((n, 2))
    step_rows = list(steps)
    weights = np.empty(n)
    lr = config.learning_rate
    clip = config.grad_clip

    order_rng = np.random.default_rng([config.seed, 1])
    stats: list[EpochStats] = []
    diverged = False
    avg_start = max(0, config.epochs - config.average_tail_epochs)
    acc = np.zeros_like(theta)
    acc_count = 0

    for epoch_idx in range(config.epochs):
        averaging = config.average_tail_epochs > 0 and epoch_idx >= avg_start
        start = (rows @ theta.T).tolist()
        steps.fill(0.0)
        order = order_rng.permutation(n)
        total_loss = 0.0
        total_abs = 0.0
        seen = 0
        for idx in order.tolist():
            loc, log_scale = start[idx]
            moved_loc, moved_log = gram_rows[idx].dot(steps).tolist()
            loc -= moved_loc
            step = _sample_step(loc, log_scale - moved_log, ys[idx], label_scales[idx])
            if step is None:
                diverged = True
                total_loss = math.inf
                break
            value, g_loc, g_log = step
            seen += 1
            total_abs += abs(ys[idx] - loc)
            if not (math.isfinite(value) and math.isfinite(g_loc) and math.isfinite(g_log)):
                diverged = True
                total_loss = math.inf
                break
            total_loss += value

            norm = math.sqrt((g_loc * g_loc + g_log * g_log) * sq_norms[idx])
            if norm > clip:
                factor = clip / norm
                g_loc *= factor
                g_log *= factor
            step_row = step_rows[idx]
            step_row[0] = lr * g_loc
            step_row[1] = lr * g_log

        if averaging:
            # The iterate after step j is theta - sum_{i<=j} step_i x_i, so
            # summed over the epoch's iterates step i counts seen - i times.
            weights[order] = np.arange(seen, seen - n, -1)
            acc += seen * theta - (weights[:, None] * steps).T @ rows
            acc_count += seen
        theta -= steps.T @ rows

        if seen:
            mean_loss = total_loss / seen
            mean_abs = total_abs / seen
            epoch_ece = _evaluate(predictor, train_set)[1]
        else:
            mean_loss = math.inf
            mean_abs = math.nan
            epoch_ece = math.nan
        stats.append(EpochStats(mean_loss, mean_abs, epoch_ece))
        if diverged:
            break

    if not diverged and acc_count > 0:
        predictor.theta = acc / acc_count
    if diverged:
        test_mae, test_ece = math.inf, math.nan
    else:
        test_mae, test_ece = _evaluate(predictor, test_set)
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
    differ only in how the label scale is chosen.
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
        _, report = train(cfg, train_set, test_set)
        rows.append(
            CompareRow(
                mode=cfg.label_scale.label(),
                test_mae=report.test_mae,
                test_ece=report.test_ece,
                diverged=report.diverged,
            )
        )
    return rows


def _number(value: object, key: str) -> float:
    """A JSON number as a float; booleans and strings are rejected with the key's name."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _noise_from_dict(d: dict) -> NoiseProfile:
    kind = d.get("kind")
    if kind == "constant":
        return ConstantNoise(_number(d["b"], "noise.b"))
    if kind == "feature_dependent":
        return FeatureDependentNoise(
            _number(d["b_low"], "noise.b_low"), _number(d["b_high"], "noise.b_high")
        )
    raise ValueError(f"unknown noise kind {kind!r}")


def _mode_from_dict(d: dict) -> LabelScaleMode:
    mode = d.get("mode")
    if mode == "zero":
        return ZeroLabelScale()
    if mode == "constant":
        return ConstantLabelScale(_number(d["b"], "label_scale.b"))
    if mode == "oracle":
        return OracleLabelScale()
    if mode == "heuristic":
        anchors = d["anchors"]
        return HeuristicLabelScale(
            tuple(_number(a, f"label_scale.anchors[{i}]") for i, a in enumerate(anchors))
        )
    raise ValueError(f"unknown label_scale mode {mode!r}")


_INT_KEYS = ("n_train", "n_test", "feature_dim", "seed", "epochs", "average_tail_epochs")


def config_from_dict(doc: dict) -> SynthConfig:
    """Build a config from its JSON representation (missing keys use defaults).

    Counts and the seed must be JSON integers: ``2.9``, ``"3"`` and ``true``
    are rejected with the key's name, not truncated or converted. The rate,
    the clip, noise and label scales and heuristic anchors must be JSON
    numbers: ``"0.5"`` and ``true`` are rejected the same way.
    """
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    defaults = SynthConfig()
    ints = {key: doc.get(key, getattr(defaults, key)) for key in _INT_KEYS}
    for key, value in ints.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    try:
        return SynthConfig(
            **ints,
            noise=_noise_from_dict(doc["noise"]) if "noise" in doc else defaults.noise,
            label_scale=_mode_from_dict(doc["label_scale"])
            if "label_scale" in doc
            else defaults.label_scale,
            learning_rate=_number(doc.get("learning_rate", defaults.learning_rate), "learning_rate"),
            grad_clip=_number(doc.get("grad_clip", defaults.grad_clip), "grad_clip"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed config: {exc}") from exc


def config_to_dict(config: SynthConfig) -> dict:
    noise: dict
    if isinstance(config.noise, ConstantNoise):
        noise = {"kind": "constant", "b": config.noise.b}
    else:
        noise = {
            "kind": "feature_dependent",
            "b_low": config.noise.b_low,
            "b_high": config.noise.b_high,
        }
    mode: dict
    if isinstance(config.label_scale, ZeroLabelScale):
        mode = {"mode": "zero"}
    elif isinstance(config.label_scale, ConstantLabelScale):
        mode = {"mode": "constant", "b": config.label_scale.b}
    elif isinstance(config.label_scale, OracleLabelScale):
        mode = {"mode": "oracle"}
    else:
        mode = {"mode": "heuristic", "anchors": list(config.label_scale.anchors)}
    return {
        "n_train": config.n_train,
        "n_test": config.n_test,
        "feature_dim": config.feature_dim,
        "noise": noise,
        "label_scale": mode,
        "seed": config.seed,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "grad_clip": config.grad_clip,
        "average_tail_epochs": config.average_tail_epochs,
    }


def train_report_to_csv(config: SynthConfig, report: TrainReport) -> str:
    """Per-epoch rows plus a final test row; the config rides in a comment header."""
    lines = [f"# {config.describe()}", "epoch,mean_loss,mean_abs_error,ece"]
    for i, stats in enumerate(report.epoch_stats, start=1):
        lines.append(
            f"{i},{fmt_sig(stats.mean_loss)},{fmt_sig(stats.mean_abs_error)},{fmt_sig(stats.ece)}"
        )
    lines.append(
        f"final,{fmt_sig(report.test_mae)},{fmt_sig(report.test_ece)},"
        f"{str(report.diverged).lower()}"
    )
    return "\n".join(lines) + "\n"


def comparison_to_csv(base: SynthConfig, rows: Sequence[CompareRow]) -> str:
    shared = replace(base, label_scale=OracleLabelScale())
    header = shared.describe().replace(" label_scale=oracle", "")
    lines = [f"# {header}", "mode,test_mae,test_ece,diverged"]
    for row in rows:
        lines.append(
            f"{row.mode},{fmt_sig(row.test_mae)},{fmt_sig(row.test_ece)},"
            f"{str(row.diverged).lower()}"
        )
    return "\n".join(lines) + "\n"
