"""Densities and importance weights.

Covariate shift means training inputs follow a density q0 while test
inputs follow a different density q1.  The importance weight function
beta(x) = q1(x) / q0(x) reweights training-point contributions toward
the test distribution; downstream kernels and likelihoods consume the
weights evaluated at the training inputs.  :class:`DensitySpec` describes
q0, q1 (one-dimensional) and the prior over simulator parameters
(d-dimensional) alike: a diagonal normal or a uniform box.

The config and the library read arguments here, one rule per kind:
``finite_entries`` reals and ``real_array`` arrays (a bool or a string is
no number), ``count_entry`` counts and seeds (50.0 is 50), ``point_rows``
point sets (a bad row is named), ``weight_vector`` weights (a bad index is).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Weights outside this range usually mean the two densities have nearly
# disjoint support; Gram conditioning degrades badly before anything
# actually overflows.
WEIGHT_WARN_LOW = 1e-12
WEIGHT_WARN_HIGH = 1e12

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DegenerateWeightError(ValueError):
    """An importance weight is negative or non-finite, or all weights are zero."""


_BOUNDS = {"": lambda v: True, ">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0}


def finite_entries(name: str, values, bound: str = "", scalar: bool = False):
    """``values`` (a number or a list of numbers) as a tuple of floats.

    With ``scalar``, ``values`` must be one number, returned as a float.
    Every entry must be a real number (a boolean or a numeric string is
    not), finite, and ``>= 0`` or ``> 0`` as ``bound`` says; an error
    names ``name`` and shows the values.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    listed = not scalar and isinstance(values, (list, tuple))
    entries = values if listed else [values]
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries):
        kind = "a list of numbers" if listed else "a number"
        raise ValueError(f"{name} must be {kind}, got {values!r}")
    try:
        out = tuple(float(v) for v in entries)
    except OverflowError:  # an integer beyond the float range
        out = None
    if out is None or not all(math.isfinite(v) and _BOUNDS[bound](v) for v in out):
        shown = values if out is None else (out[0] if scalar else list(out))
        raise ValueError(f"{name} must be finite{bound and ' and ' + bound}, got {shown}")
    return out[0] if scalar else out


def count_entry(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int, ``>= low`` and ``< high`` where given; a
    non-integral value is an error, never truncated.

    Integral floats such as 50.0 are accepted; a bool (numpy's too) is no number.
    """
    try:
        count = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (low is not None and count < low) or (high is not None and count >= high):
        rule = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be {rule}, got {count}")
    return count


def real_array(values, name: str) -> np.ndarray:
    """``values`` as a C-ordered float array; bools, strings or None are no
    numbers (numpy reads a list mixing bools and numbers as numbers)."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numbers, got {array.dtype} entries")
    return np.asarray(array, dtype=float, order="C")


def point_rows(points, name: str = "points") -> np.ndarray:
    """``points`` as a C-ordered float (m, d) array of finite rows, whatever
    its layout; a 1-d vector is m points.  An error names the first bad row."""
    rows = real_array(points, name)
    rows = rows[:, None] if rows.ndim == 1 else rows
    if rows.ndim != 2:
        raise ValueError(f"{name} must be a list of vectors, got shape {rows.shape}")
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"{name} contain non-finite entries (row {np.argmax(bad)})")
    return rows


def weight_vector(values) -> np.ndarray:
    """``values`` as a 1-d vector of finite weights >= 0 (zeros too), the bad
    index named; an ``ImportanceWeights`` was read so, and passes as its values."""
    if isinstance(values, ImportanceWeights):
        return values.values
    weights = real_array(values, "importance weights")
    if weights.ndim != 1:
        raise DegenerateWeightError(f"importance weights must be a 1-d vector, got {weights.shape}")
    bad = np.flatnonzero(~((weights >= 0) & (weights < np.inf)))  # NaN fails both
    if bad.size:
        raise DegenerateWeightError(
            f"importance weights must be finite and >= 0, got {weights[bad[0]]} at index {bad[0]}")
    return weights


def check_keys(section: str, spec, allowed, required=()) -> None:
    """Reject a ``section`` that is not an object, or whose keys are not
    within ``allowed`` or do not include all of ``required``; the error
    names the section and the keys.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"{section} must be an object, got {spec!r}")
    unknown = sorted(map(str, set(spec) - set(allowed)))
    missing = sorted(set(required) - set(spec))
    problems = [f"{kind} keys in {section}: {', '.join(keys)}"
                for kind, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if problems:
        raise ValueError("; ".join(problems))


# The keys each family takes, and those it requires (a normal also needs
# exactly one of ``std`` or ``var``); an unknown family is named by the
# constructor instead.
_DENSITY_KEYS = {"normal": (("family", "mean", "std", "var"), ("family", "mean")),
                 "uniform": (("family", "low", "high"), ("family", "low", "high"))}


@dataclass(frozen=True)
class DensitySpec:
    """Density on R^d: a diagonal Gaussian or a uniform box.

    ``mean``/``std`` parameterize the normal family and ``low``/``high``
    bound the uniform one, one entry per dimension.  The input densities
    q0 and q1 are the d = 1 case; the prior over simulator parameters is
    the general one.  Every entry is finite, a std is >= 0 (std 0 is a
    point mass, which can be sampled but has no density) and a box has
    low < high in every dimension.
    """

    family: str
    mean: tuple = ()
    std: tuple = ()
    low: tuple = ()
    high: tuple = ()

    def __post_init__(self):
        keys = {"normal": ("mean", "std"), "uniform": ("low", "high")}.get(
            self.family if isinstance(self.family, str) else None)
        if keys is None:
            raise ValueError(f"family must be 'normal' or 'uniform', got {self.family!r}")
        first, second = (finite_entries(key, getattr(self, key), ">= 0" if key == "std" else "")
                         for key in keys)
        object.__setattr__(self, keys[0], first)
        object.__setattr__(self, keys[1], second)
        if len(first) != len(second) or not first:
            raise ValueError(f"{keys[0]} and {keys[1]} need the same non-zero length, "
                             f"got {len(first)} and {len(second)}")
        if self.family == "uniform" and not all(lo < hi for lo, hi in zip(first, second)):
            raise ValueError(f"low must be < high, got {list(first)} / {list(second)}")

    @classmethod
    def normal(cls, mean, std) -> "DensitySpec":
        return cls(family="normal", mean=mean, std=std)

    @classmethod
    def uniform(cls, low, high) -> "DensitySpec":
        return cls(family="uniform", low=low, high=high)

    @property
    def dim(self) -> int:
        return len(self.mean) if self.family == "normal" else len(self.low)

    def _no_point_mass(self) -> None:
        if 0.0 in self.std:
            raise ValueError(f"a normal with std {list(self.std)} is a point mass, with no density")

    def one_dimensional(self) -> "DensitySpec":
        """This spec, which must be one-dimensional, as an input density is."""
        if self.dim != 1:
            raise ValueError(f"an input density must be one-dimensional, this one has {self.dim}")
        return self

    def pdf(self, x):
        """Density value at ``x`` (scalar or array) of a one-dimensional spec."""
        self.one_dimensional()
        x = real_array(x, "pdf inputs")
        if self.family == "normal":
            self._no_point_mass()
            z = (x - self.mean[0]) / self.std[0]
            return np.exp(-0.5 * z * z) / (self.std[0] * _SQRT_2PI)
        inside = (x >= self.low[0]) & (x <= self.high[0])
        return np.where(inside, 1.0 / (self.high[0] - self.low[0]), 0.0)

    @cached_property
    def _log_pdf_terms(self) -> tuple:
        """What ``log_pdf`` reads, built on its first call: the mean, the std,
        sum(log std) and (d/2) log(2 pi) of a normal; the low and high
        corners and the log density inside a box.  Kept in the instance's
        ``__dict__``, outside the fields, so repr, ``==`` and ``replace``
        never see it."""
        if self.family == "normal":
            self._no_point_mass()
            std = np.asarray(self.std)
            log_2pi = 0.5 * self.dim * np.log(2 * np.pi)
            return np.asarray(self.mean), std, np.sum(np.log(std)), log_2pi
        low, high = np.asarray(self.low), np.asarray(self.high)
        return low, high, float(-np.sum(np.log(high - low)))

    def log_pdf(self, theta) -> float:
        """Log density at one point of R^d, -inf outside a uniform box."""
        theta = real_array(theta, "log_pdf point")
        if theta.shape != (self.dim,):
            raise ValueError(f"parameter dimension mismatch: {theta.shape} vs ({self.dim},)")
        if self.family == "normal":
            mean, std, log_std, log_2pi = self._log_pdf_terms
            z = (theta - mean) / std
            return float(-0.5 * z.dot(z) - log_std - log_2pi)
        low, high, inside = self._log_pdf_terms
        return inside if (theta >= low).all() and (theta <= high).all() else -np.inf

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` i.i.d. draws as an ``(n, d)`` array."""
        if self.family == "normal":
            return np.asarray(self.mean) + np.asarray(self.std) * rng.standard_normal((n, self.dim))
        return rng.uniform(self.low, self.high, size=(n, self.dim))

    def center(self) -> np.ndarray:
        """Mean (normal) or box midpoint (uniform)."""
        if self.family == "normal":
            return np.asarray(self.mean, dtype=float)
        return 0.5 * (np.asarray(self.low) + np.asarray(self.high))

    def search_box(self, n_std: float = 4.0) -> tuple[np.ndarray, np.ndarray]:
        """Bounds covering (effectively) all the mass: the box, or mean +- n_std std."""
        if self.family == "uniform":
            return np.asarray(self.low, dtype=float), np.asarray(self.high, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        return mean - n_std * std, mean + n_std * std

    @classmethod
    def from_dict(cls, spec: dict, section: str = "density") -> "DensitySpec":
        """Build from a config mapping, each field a number or a list.

        A normal takes ``mean`` and exactly one of ``std`` or ``var``, so
        the file format is never ambiguous about its second parameter; a
        uniform takes ``low`` and ``high``.  Any error names ``section``
        and the field, and an unknown or missing key is an error.
        """
        family = spec.get("family") if isinstance(spec, dict) else None
        known = _DENSITY_KEYS.get(family) if isinstance(family, str) else None
        check_keys(section, spec, *(known or (spec, ())))
        try:
            if family == "normal":
                if ("std" in spec) == ("var" in spec):
                    raise ValueError("needs exactly one of 'std' or 'var'")
                if "std" in spec:
                    return cls.normal(spec["mean"], spec["std"])
                var = finite_entries("var", spec["var"], ">= 0")
                return cls.normal(spec["mean"], [math.sqrt(v) for v in var])
            return cls.uniform(spec["low"], spec["high"]) if family == "uniform" else cls(family)
        except ValueError as exc:
            raise ValueError(f"{section} {exc}") from None


@dataclass(frozen=True)
class ImportanceWeights:
    """Per-training-point weights beta_i, read by ``weight_vector``.

    A zero weight is valid: q1 has no mass at that input, so the point
    drops out of the weighted kernel and likelihood.  At least one weight
    must be positive.
    """

    values: np.ndarray

    def __post_init__(self):
        values = weight_vector(self.values)
        object.__setattr__(self, "values", values)
        positive = values[values > 0]
        if positive.size == 0:
            raise DegenerateWeightError(
                "importance weights are all zero: q1 has no mass at any training input")
        if positive.min() < WEIGHT_WARN_LOW or positive.max() > WEIGHT_WARN_HIGH:
            warnings.warn(
                "importance weights span "
                f"[{values.min():.3e}, {values.max():.3e}]; the training and "
                "test densities may have nearly disjoint support",
                stacklevel=3,
            )

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    @classmethod
    def read(cls, beta) -> "ImportanceWeights":
        """``beta`` itself if it is an instance, so it is neither read nor warned about again."""
        return beta if isinstance(beta, cls) else cls(beta)


def importance_weights(xs, q0: DensitySpec, q1: DensitySpec) -> ImportanceWeights:
    """Evaluate beta_i = q1(x_i) / q0(x_i) at the training inputs.

    Raises :class:`DegenerateWeightError` if any q0(x_i) vanishes, or if
    q1 vanishes at every training input.
    """
    xs = real_array(xs, "training inputs")
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
    return ImportanceWeights(np.ones(count_entry("n", n, 1)))
