"""Input densities and importance weights.

Covariate shift means training inputs follow a density q0 while test
inputs follow a different density q1.  The importance weight function
beta(x) = q1(x) / q0(x) reweights training-point contributions toward
the test distribution; downstream kernels and likelihoods consume the
weights evaluated at the training inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Weights outside this range usually mean the two densities have nearly
# disjoint support; Gram conditioning degrades badly before anything
# actually overflows.
WEIGHT_WARN_LOW = 1e-12
WEIGHT_WARN_HIGH = 1e12

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DegenerateWeightError(ValueError):
    """An importance weight is negative or non-finite, or all weights are zero."""


@dataclass(frozen=True)
class DensitySpec:
    """One-dimensional input density: Gaussian or uniform.

    ``loc``/``scale`` parameterize the normal family (scale is the
    standard deviation); ``low``/``high`` bound the uniform family.
    """

    family: str
    loc: float = 0.0
    scale: float = 1.0
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if self.family == "normal":
            if not self.scale > 0:
                raise ValueError(f"normal scale must be positive, got {self.scale}")
        elif self.family == "uniform":
            if not self.low < self.high:
                raise ValueError(f"uniform bounds must be ordered, got [{self.low}, {self.high}]")
        else:
            raise ValueError(f"unknown density family {self.family!r}")

    @classmethod
    def normal(cls, mean: float, std: float) -> "DensitySpec":
        return cls(family="normal", loc=float(mean), scale=float(std))

    @classmethod
    def uniform(cls, low: float, high: float) -> "DensitySpec":
        return cls(family="uniform", low=float(low), high=float(high))

    def pdf(self, x):
        """Density value at ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        if self.family == "normal":
            z = (x - self.loc) / self.scale
            return np.exp(-0.5 * z * z) / (self.scale * _SQRT_2PI)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.family == "normal":
            return self.loc + self.scale * rng.standard_normal(n)
        return rng.uniform(self.low, self.high, size=n)

    def to_dict(self) -> dict:
        if self.family == "normal":
            return {"family": "normal", "mean": self.loc, "std": self.scale}
        return {"family": "uniform", "low": self.low, "high": self.high}

    @classmethod
    def from_dict(cls, spec: dict) -> "DensitySpec":
        """Build from a config mapping.

        Normal densities accept exactly one of ``std`` or ``var`` so the
        file format is never ambiguous about the second parameter.  Every
        parameter must be finite, and a ``std`` or ``var`` positive; an
        error names the field.
        """
        family = spec.get("family")

        def number(key, positive=False):
            value = float(spec[key])
            if not (math.isfinite(value) and (value > 0 or not positive)):
                bound = " and > 0" if positive else ""
                raise ValueError(f"{family} density {key} must be finite{bound}, got {value}")
            return value

        if family == "normal":
            if ("std" in spec) == ("var" in spec):
                raise ValueError("normal density spec needs exactly one of 'std' or 'var'")
            std = number("std", True) if "std" in spec else math.sqrt(number("var", True))
            return cls.normal(number("mean"), std)
        if family == "uniform":
            return cls.uniform(number("low"), number("high"))
        raise ValueError(f"unknown density family {family!r}")


@dataclass(frozen=True)
class ImportanceWeights:
    """Per-training-point weights beta_i, validated at construction.

    A zero weight is valid: q1 has no mass at that input, so the point
    drops out of the weighted kernel and likelihood.  At least one weight
    must be positive.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise DegenerateWeightError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise DegenerateWeightError(f"weight at index {bad} is not finite")
        if np.any(values < 0):
            bad = int(np.flatnonzero(values < 0)[0])
            raise DegenerateWeightError(f"weight at index {bad} is {values[bad]} (negative)")
        positive = values[values > 0]
        if positive.size == 0:
            raise DegenerateWeightError("all weights are zero: q1 has no mass at any training input")
        if positive.min() < WEIGHT_WARN_LOW or positive.max() > WEIGHT_WARN_HIGH:
            warnings.warn(
                "importance weights span "
                f"[{values.min():.3e}, {values.max():.3e}]; the training and "
                "test densities may have nearly disjoint support",
                stacklevel=2,
            )

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


def importance_weights(xs, q0: DensitySpec, q1: DensitySpec) -> ImportanceWeights:
    """Evaluate beta_i = q1(x_i) / q0(x_i) at the training inputs.

    Raises :class:`DegenerateWeightError` if any q0(x_i) vanishes, or if
    q1 vanishes at every training input.
    """
    xs = np.asarray(xs, dtype=float)
    p0 = q0.pdf(xs)
    if np.any(p0 <= 0):
        bad = int(np.flatnonzero(p0 <= 0)[0])
        raise DegenerateWeightError(
            f"training density is zero at input index {bad} (x={xs[bad]}); "
            "importance weights are undefined there"
        )
    return ImportanceWeights(q1.pdf(xs) / p0)


def ordinary_weights(n: int) -> ImportanceWeights:
    """Constant weights beta_i = 1, i.e. no covariate-shift adaptation."""
    if n < 1:
        raise ValueError(f"need at least one weight, got n={n}")
    return ImportanceWeights(np.ones(n))
