"""Densities and importance weights.

Covariate shift means training inputs follow a density q0 while test
inputs follow a different density q1.  The importance weight function
beta(x) = q1(x) / q0(x) reweights training-point contributions toward
the test distribution; downstream kernels and likelihoods consume the
weights evaluated at the training inputs.  :class:`DensitySpec` describes
q0, q1 (one-dimensional) and the prior over simulator parameters
(d-dimensional) alike: a diagonal normal or a uniform box.

The config and the library read arguments here, one rule per kind:
``finite_entries`` numbers, ``count_entry`` counts and seeds (50.0 is 50;
a bool or a string is no count), ``point_rows`` point sets (a 1-d vector
is m one-dimensional points).
"""

from __future__ import annotations

import math
import numbers
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

    Integral floats such as 50.0 are accepted; booleans are not numbers.
    """
    try:
        count = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (low is not None and count < low) or (high is not None and count >= high):
        rule = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be {rule}, got {count}")
    return count


def point_rows(points, name: str = "points") -> np.ndarray:
    """``points`` as a C-ordered float (m, d) array; a 1-d vector is m
    one-dimensional points.  Any memory layout reads as the same rows."""
    rows = np.asarray(points, dtype=float, order="C")
    rows = rows[:, None] if rows.ndim == 1 else rows
    if rows.ndim != 2:
        raise ValueError(f"{name} must be a list of vectors, got shape {rows.shape}")
    return rows


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

    def pdf(self, x):
        """Density value at ``x`` (scalar or array) of a one-dimensional spec."""
        if self.dim != 1:
            raise ValueError(f"pdf takes a one-dimensional density, this one has {self.dim}")
        x = np.asarray(x, dtype=float)
        if self.family == "normal":
            self._no_point_mass()
            z = (x - self.mean[0]) / self.std[0]
            return np.exp(-0.5 * z * z) / (self.std[0] * _SQRT_2PI)
        inside = (x >= self.low[0]) & (x <= self.high[0])
        return np.where(inside, 1.0 / (self.high[0] - self.low[0]), 0.0)

    def log_pdf(self, theta) -> float:
        """Log density at one point of R^d, -inf outside a uniform box."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"parameter dimension mismatch: {theta.shape} vs ({self.dim},)")
        if self.family == "normal":
            self._no_point_mass()
            std = np.asarray(self.std)
            z = (theta - np.asarray(self.mean)) / std
            return float(-0.5 * z.dot(z) - np.sum(np.log(std)) - 0.5 * self.dim * np.log(2 * np.pi))
        if np.all(theta >= self.low) and np.all(theta <= self.high):
            return float(-np.sum(np.log(np.asarray(self.high) - np.asarray(self.low))))
        return -np.inf

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
                stacklevel=3,
            )

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


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
    return ImportanceWeights(np.ones(count_entry("n", n, 1)))
