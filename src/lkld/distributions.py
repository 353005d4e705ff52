"""Closed-form Laplace regression losses with analytic gradients.

Two losses over a scalar regression target, both returned together with
their partial derivatives with respect to the predicted location and scale
so a caller can chain them through a model head by hand:

* ``nll_loss`` -- negative log likelihood of a Laplace prediction against a
  point label: ``log(2*b_hat) + |y - y_hat| / b_hat``.
* ``kld_loss`` -- KL divergence from a Laplace label distribution
  ``(y, b)`` to a Laplace prediction ``(y_hat, b_hat)``:
  ``log(b_hat/b) + (b*exp(-|y - y_hat|/b) + |y - y_hat|) / b_hat - 1``.

The NLL rewards shrinking the predicted scale without bound when the error
is small; the divergence is zero exactly when the prediction matches the
label distribution, and its gradients vanish there.

Each formula lives once, in a float kernel (``nll_terms``, ``kld_terms``)
that takes plain floats and returns a ``(value, d_location, d_scale)``
tuple without validating them. The ``*_loss`` functions are the validated
single-evaluation API: they check their arguments through ``LaplaceParams``
and wrap the kernel's tuple in a ``LossGrad``. Every loop over a loss (the
SGD trainer, ``surface_grid`` and ``gradient_check``) calls the kernels
directly, having checked its inputs once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ._util import csv_text, fmt_sig

__all__ = [
    "LaplaceParams",
    "LossGrad",
    "SurfaceGrid",
    "GradCheckResult",
    "nll_terms",
    "kld_terms",
    "nll_loss",
    "kld_loss",
    "kld_loss_zero_label_scale",
    "surface_grid",
    "gradient_check",
]

LossKind = Literal["nll", "kld"]

# Most cells a loss surface may have; it is checked before any is computed.
MAX_SURFACE_CELLS = 1_000_000
# gradient_check draws only errors |y - y_hat| above this, away from the kink.
GRAD_CHECK_MIN_ABS_ERROR = 1e-4


@dataclass(frozen=True)
class LaplaceParams:
    """Location and scale of a univariate Laplace distribution.

    The scale must be strictly positive; it is validated rather than
    clamped so that caller bugs surface immediately.
    """

    location: float
    scale: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.location):
            raise ValueError(f"location must be finite, got {self.location}")
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class LossGrad:
    """A loss value (nats) with its partials w.r.t. predicted location and scale."""

    value: float
    d_location: float
    d_scale: float


def nll_terms(y: float, loc: float, b_hat: float) -> tuple[float, float, float]:
    """NLL of a Laplace prediction ``(loc, b_hat)`` at a point label ``y``, on floats.

    value      = log(2*b_hat) + |y - y_hat| / b_hat
    d_location = -sgn(y - y_hat) / b_hat
    d_scale    = (1/b_hat) * (1 - |y - y_hat| / b_hat)

    Returns ``(value, d_location, d_scale)``. Inputs are not validated:
    ``b_hat`` must be positive and finite, ``y`` and ``loc`` finite. Both
    kernels take sgn(0) = 0 (for either zero), so the location gradient
    vanishes exactly at zero error.
    """
    err = y - loc
    ratio = abs(err) / b_hat
    value = math.log(2.0 * b_hat) + ratio
    d_location = -(math.copysign(1.0, err) if err else 0.0) / b_hat
    d_scale = (1.0 - ratio) / b_hat
    return value, d_location, d_scale


def kld_terms(y: float, b: float, loc: float, b_hat: float) -> tuple[float, float, float]:
    """KL divergence from a Laplace label ``(y, b)`` to a prediction ``(loc, b_hat)``.

    value      = log(b_hat/b) + (b*exp(-|y - y_hat|/b) + |y - y_hat|) / b_hat - 1
    d_location = -sgn(y - y_hat)/b_hat * (1 - exp(-|y - y_hat|/b))
    d_scale    = (1/b_hat) * (1 - (b*exp(-|y - y_hat|/b) + |y - y_hat|) / b_hat)

    The value is grouped as two individually non-negative brackets,
    ``(s + r*expm1(-s/r)) + ((r-1) - log1p(r-1))`` with ``r = b/b_hat`` and
    ``s = |y - y_hat|/b_hat``, so near-identical distributions cannot round
    to a negative divergence. Returns ``(value, d_location, d_scale)``.
    Inputs are not validated: both scales must be positive and finite, both
    locations finite.
    """
    err = y - loc
    abs_err = abs(err)
    r = b / b_hat
    s = abs_err / b_hat
    decay = math.expm1(-abs_err / b)  # exp(-|e|/b) - 1, exact near zero error
    if 0.5 < r < 2.0:
        value = (s + r * decay) + ((r - 1.0) - math.log1p(r - 1.0))
    elif r > 0.0:
        value = (s + r * decay) + (r - 1.0) - math.log(r)
    else:
        # b/b_hat underflowed; fall back to separated logs.
        value = math.log(b_hat) - math.log(b) + (b * (decay + 1.0) + abs_err) / b_hat - 1.0
    d_location = (math.copysign(1.0, err) if err else 0.0) * decay / b_hat
    d_scale = (1.0 - (b * (decay + 1.0) + abs_err) / b_hat) / b_hat
    return value, d_location, d_scale


def nll_loss(label_location: float, pred: LaplaceParams) -> LossGrad:
    """Negative log likelihood of a Laplace prediction at a point label (see ``nll_terms``)."""
    if not math.isfinite(label_location):
        raise ValueError(f"label_location must be finite, got {label_location}")
    return LossGrad(*nll_terms(label_location, pred.location, pred.scale))


def kld_loss(label: LaplaceParams, pred: LaplaceParams) -> LossGrad:
    """KL divergence from a Laplace label to a Laplace prediction (see ``kld_terms``)."""
    return LossGrad(*kld_terms(label.location, label.scale, pred.location, pred.scale))


def kld_loss_zero_label_scale(label_location: float, pred: LaplaceParams) -> LossGrad:
    """The zero-label-scale limit of the divergence loss.

    As the label scale shrinks to zero the exponential terms of the
    divergence gradients vanish and both partials become identical to the
    NLL partials. The divergence value itself grows without bound in that
    limit, so the finite NLL value is reported instead; gradients are the
    quantities that matter for training.
    Acceptance criterion 4 compares this alias with ``nll_loss``; the real
    limit is a property in ``tests/test_distributions.py``: ``kld_terms``'
    partials equal ``nll_terms``' bitwise once ``b <= |e|/50``.
    """
    return nll_loss(label_location, pred)


@dataclass(frozen=True)
class SurfaceGrid:
    """Loss values tabulated over an (absolute error) x (predicted scale) grid."""

    error_axis: tuple[float, ...]
    scale_axis: tuple[float, ...]
    values: np.ndarray  # shape (len(error_axis), len(scale_axis))
    label_scale: float = 0.0

    def __post_init__(self) -> None:
        expected = (len(self.error_axis), len(self.scale_axis))
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != axes shape {expected}")

    def to_csv(self) -> str:
        return csv_text(("error", "scale", "value"), (
            (fmt_sig(e), fmt_sig(s), fmt_sig(v))
            for e, row in zip(self.error_axis, self.values)
            for s, v in zip(self.scale_axis, row.tolist())
        ))


def _check_axis(name: str, axis: Sequence[float], positive: bool) -> tuple[float, ...]:
    values = tuple(float(v) for v in axis)
    if not values:
        raise ValueError(f"{name} must be non-empty")
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} entries must be finite, got {v}")
        if positive and v <= 0.0:
            raise ValueError(f"{name} entries must be > 0, got {v}")
        if not positive and v < 0.0:
            raise ValueError(f"{name} entries must be >= 0, got {v}")
    for prev, cur in zip(values, values[1:]):
        if cur <= prev:
            raise ValueError(f"{name} must be strictly increasing")
    return values


def surface_grid(
    loss_kind: LossKind,
    label_scale: float,
    error_axis: Sequence[float],
    scale_axis: Sequence[float],
) -> SurfaceGrid:
    """Tabulate a loss over |y - y_hat| and b_hat axes for external plotting.

    A grid of more than ``MAX_SURFACE_CELLS`` cells is rejected before any
    cell is computed.
    """
    if loss_kind not in ("nll", "kld"):
        raise ValueError(f"loss_kind must be 'nll' or 'kld', got {loss_kind!r}")
    errors = _check_axis("error_axis", error_axis, positive=False)
    scales = _check_axis("scale_axis", scale_axis, positive=True)
    if len(errors) * len(scales) > MAX_SURFACE_CELLS:
        raise ValueError(
            f"surface grid of {len(errors)} errors x {len(scales)} scales "
            f"has more than {MAX_SURFACE_CELLS} cells"
        )
    if loss_kind == "kld":
        if not (label_scale > 0.0) or not math.isfinite(label_scale):
            raise ValueError(f"label_scale must be > 0 for the kld surface, got {label_scale}")
        kernel, label_tail = kld_terms, (label_scale,)
    else:
        kernel, label_tail, label_scale = nll_terms, (), 0.0

    values = np.array([[kernel(e, *label_tail, 0.0, b_hat)[0] for b_hat in scales] for e in errors])
    return SurfaceGrid(errors, scales, values, label_scale)


@dataclass(frozen=True)
class GradCheckResult:
    """Outcome of comparing analytic partials against central finite differences.

    A sample fails when ``|analytic - fd| > atol + rtol * max(|analytic|, |fd|)``
    for either partial. ``max_scaled_*`` report the largest observed
    left-hand side divided by the right-hand side (passing samples score <= 1).
    """

    loss_kind: str
    samples: int
    step: float
    rtol: float
    atol: float
    failures: int
    max_scaled_location: float
    max_scaled_scale: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_csv(self) -> str:
        header = ("loss", "samples", "step", "rtol", "atol", "failures",
                  "max_scaled_location", "max_scaled_scale")
        row = (self.loss_kind, str(self.samples), fmt_sig(self.step), fmt_sig(self.rtol), fmt_sig(self.atol),
               str(self.failures), fmt_sig(self.max_scaled_location), fmt_sig(self.max_scaled_scale))
        return csv_text(header, [row])


def gradient_check(
    loss_kind: LossKind,
    samples: int = 10_000,
    seed: int = 0,
    step: float = 1e-6,
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> GradCheckResult:
    """Check analytic partials against central finite differences on random tuples.

    Draws are kept away from the |y - y_hat| kink by ``GRAD_CHECK_MIN_ABS_ERROR``.
    The small absolute floor ``atol`` absorbs finite-difference noise where a
    partial crosses zero; away from zeros the comparison is the plain
    relative test at ``rtol``. The seed must be >= 0, the step positive
    and finite, both tolerances finite and >= 0, and not both 0; a step
    that takes a drawn predicted scale to 0 or below raises.
    """
    if loss_kind not in ("nll", "kld"):
        raise ValueError(f"loss_kind must be 'nll' or 'kld', got {loss_kind!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (tol >= 0.0 and math.isfinite(tol)):
            raise ValueError(f"{name} must be finite and >= 0, got {tol}")
    if rtol == 0.0 and atol == 0.0:
        raise ValueError("rtol and atol must not both be 0")
    kernel = nll_terms if loss_kind == "nll" else kld_terms
    rng = np.random.default_rng(seed)

    failures = 0
    max_scaled_loc = 0.0
    max_scaled_scale = 0.0
    for _ in range(samples):
        while True:
            y = rng.uniform(-3.0, 3.0)
            y_hat = rng.uniform(-3.0, 3.0)
            if abs(y - y_hat) > GRAD_CHECK_MIN_ABS_ERROR:
                break
        b_hat = 10.0 ** rng.uniform(-2.0, 1.0)
        b = 10.0 ** rng.uniform(-2.0, 1.0)

        if b_hat - step <= 0.0:  # the scale difference would step off the domain
            raise ValueError(f"scale must be positive and finite, got {b_hat - step}")
        label = (y,) if loss_kind == "nll" else (y, b)
        _, d_loc, d_scale = kernel(*label, y_hat, b_hat)
        fd_loc = (kernel(*label, y_hat + step, b_hat)[0]
                  - kernel(*label, y_hat - step, b_hat)[0]) / (2.0 * step)
        fd_scale = (kernel(*label, y_hat, b_hat + step)[0]
                    - kernel(*label, y_hat, b_hat - step)[0]) / (2.0 * step)

        scaled_loc = abs(d_loc - fd_loc) / (atol + rtol * max(abs(d_loc), abs(fd_loc)))
        scaled_scale = abs(d_scale - fd_scale) / (atol + rtol * max(abs(d_scale), abs(fd_scale)))
        max_scaled_loc = max(max_scaled_loc, scaled_loc)
        max_scaled_scale = max(max_scaled_scale, scaled_scale)
        if scaled_loc > 1.0 or scaled_scale > 1.0:
            failures += 1

    return GradCheckResult(
        loss_kind=loss_kind,
        samples=samples,
        step=step,
        rtol=rtol,
        atol=atol,
        failures=failures,
        max_scaled_location=max_scaled_loc,
        max_scaled_scale=max_scaled_scale,
    )
