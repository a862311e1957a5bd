"""Black-box simulators and data-generating processes.

A simulator maps an input ``x`` and a parameter vector ``theta`` to a
real output.  Evaluations are pure: a stochastic simulator draws each row's
noise from the counter-based stream ``stream_keys(key, x)``, so repeated
calls with identical arguments return identical outputs regardless of
call order or batching, and fixed keys yield a deterministic function of
``theta`` (common random numbers).  A truth is called like a sweep at
fixed theta: ``truth(xs, keys)``, with one key per input.

Two benchmarks ship here: a trivially-misspecified linear model paired
with a cubic truth, and a two-stage assembly line (sequential assembly
feeding batched inspection) whose makespan is the simulator output.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from inspect import signature
from pathlib import Path
from typing import Callable

import numpy as np

from ._seeding import SEED_RANGE, derive_rng, derive_seed, key_normals, stream_keys
from .weights import DensitySpec, count_entry, finite_entries, real_array

# truth(xs, keys) with one stream key per input; a noise-free truth ignores the keys.
TruthFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class SimulatorError(ValueError):
    """A simulator rejected one row of a sweep; ``row`` is that row's index."""

    def __init__(self, message: str, row: int):
        super().__init__(f"{message} (row {row})")
        self.row = row


class Simulator(ABC):
    """Evaluation-only interface: no gradients, no internal structure.

    ``_inputs`` and ``_theta_rows`` check the sweep contract for every
    simulator (keys, parameter rows); a subclass adds only its own rules.
    """

    name: str = "simulator"
    dim_theta: int = 0

    @abstractmethod
    def sweep(self, xs, keys=0) -> Callable[[np.ndarray], np.ndarray]:
        """Outputs at the inputs ``xs`` on the streams ``keys`` name, as a function of theta.

        The function takes parameter rows, a ``(rows, dim_theta)`` array or
        one ``(dim_theta,)`` vector.  ``keys`` is one int or an integer array
        of per-row keys.  ``xs``, keys and parameter rows each have length 1
        or R, and the result has length R.  A stochastic simulator draws its
        noise here, once, on the streams ``stream_keys(key, x)`` of ``_inputs``,
        and each call only transforms it by theta (common random numbers).
        """

    def check_inputs(self, xs) -> np.ndarray:
        """``xs`` as a 1-d float array of inputs this simulator accepts (here:
        finite ones); a ``SimulatorError`` names the first row it rejects."""
        xs = real_array(xs, f"{self.name} inputs").reshape(-1)
        finite = np.isfinite(xs)
        if not finite.all():
            row = int(np.argmin(finite))
            raise SimulatorError(f"{self.name} inputs must be finite, got x={xs[row]}", row)
        return xs

    def _inputs(self, xs, keys) -> np.ndarray:
        """``check_inputs``' array of ``xs``; ``keys`` must be one key or one per input."""
        xs = self.check_inputs(xs)
        if np.size(keys) not in (1, len(xs)) and len(xs) != 1:
            raise ValueError(f"got {np.size(keys)} keys for {len(xs)} inputs")
        return xs

    def _theta_rows(self, thetas, keyed: int, non_negative: bool = False) -> np.ndarray:
        """Parameter rows as a finite ``(rows, dim_theta)`` array (a vector is
        one row): 1 or ``keyed`` of them, any number if the sweep has one row;
        with ``non_negative``, every entry is also ``>= 0``."""
        thetas = real_array(thetas, f"{self.name} parameters")
        rows = thetas[None] if thetas.ndim == 1 else thetas
        if rows.ndim != 2 or rows.shape[1] != self.dim_theta:
            raise ValueError(
                f"{self.name} expects {self.dim_theta} parameters, got shape {thetas.shape}"
            )
        if len(rows) not in (1, keyed) and keyed != 1:
            raise ValueError(f"got {len(rows)} parameter rows for {keyed} keyed rows")
        # non-negative and finite rows pass on two reductions (NaN fails the
        # first); the checks that name a row run only on failure
        if not (non_negative and rows.size and rows.min() >= 0 and rows.max() < np.inf):
            self._reject_rows(np.isfinite(rows), rows, "finite")
            if non_negative:
                self._reject_rows(rows >= 0, rows, "non-negative")
        return rows

    def _reject_rows(self, ok, rows, rule: str) -> None:
        """``SimulatorError`` naming the first row where ``ok`` is not all True."""
        if not ok.all():  # whole-array check first: the row only on failure
            row = int(np.argmax(~ok.all(axis=1)))
            raise SimulatorError(f"{self.name} parameters must be {rule}, got {rows[row]}", row)


class LinearSimulator(Simulator):
    """r(x, theta) = theta[0] + theta[1] * x, treated as a black box."""

    name = "linear"
    dim_theta = 2

    def sweep(self, xs, keys=0) -> Callable[[np.ndarray], np.ndarray]:
        xs = self._inputs(xs, keys)
        keyed = np.size(keys) if len(xs) == 1 else len(xs)
        xs = np.broadcast_to(xs, keyed)  # one input on K keys is K rows

        def outputs(thetas):
            thetas = self._theta_rows(thetas, keyed)
            return thetas[:, 0] + thetas[:, 1] * xs

        return outputs


def cubic_truth(xs, keys=0) -> np.ndarray:
    """Ground-truth regression function -x + x**3 for the linear benchmark."""
    # Python's x**3 per value: numpy's vectorized cube can differ in the last bit
    return np.array([-x + x**3 for x in real_array(xs, "truth inputs").reshape(-1).tolist()])


class AssemblyLineSimulator(Simulator):
    """Makespan of producing and inspecting ``x`` products.

    Stage 1 assembles products one at a time; durations are
    Normal(theta[0], theta[1]^2) clamped at zero.  Stage 2 inspects in
    batches of ``batch_size`` (a trailing partial batch is inspected
    as-is) with durations Normal(theta[2], theta[3]^2) clamped at zero.
    A batch starts inspection at the later of its last product's
    assembly completion and the previous batch's inspection completion.

    theta components may be zero here (degenerate, useful for exact
    checks); the strict-positivity box lives in the prior, not the
    event loop.
    """

    name = "assembly"
    dim_theta = 4

    def __init__(self, batch_size: int = 4):
        self.batch_size = count_entry("batch_size", batch_size, 1)

    def check_inputs(self, xs) -> np.ndarray:
        """Finite product counts x >= 1."""
        xs = super().check_inputs(xs)
        bad = xs < 1
        if bad.any():
            row = int(np.argmax(bad))
            raise SimulatorError(f"product count must be >= 1, got x={xs[row]}", row)
        return xs

    def sweep(self, xs, keys=0) -> Callable[[np.ndarray], np.ndarray]:
        """Makespans of ``xs[r]`` products on row r's stream, as a function of theta.

        Normals 0..x-1 of row r's stream drive its assembly durations and
        the next ones its inspection durations; they are drawn here, once,
        and so is every index a call reads by: the inspection normals, each
        batch's ready time and each row's last real batch.  Every array is
        laid out (normal, row), one column per row, so a prefix sum advances
        all rows at once (``_prefix_sums``).  Rows with fewer products or
        batches are padded: the makespan is read from prefix sums and a max
        over the real batches only, so padding never reaches it.  With one
        input nothing is padded, so the indices are row numbers of the
        schedule rather than one per column.  A call reads theta's columns
        as views and forms the assembly schedule and the inspections each in
        one buffer, in place.
        """
        xs = self._inputs(xs, keys)
        size = self.batch_size
        counts = np.rint(xs).astype(np.intp)
        n_batches = -(-counts // size)
        width, depth = int(counts.max(initial=0)), int(n_batches.max(initial=0))
        z = key_normals(stream_keys(keys, xs), width + depth)
        z_asm, rows = z[:width], z.shape[1]
        # Batch b is ready when its last product leaves assembly; a trailing
        # partial batch when the last product does.
        batch = np.arange(depth)[:, None]
        last = np.minimum((batch + 1) * size, counts) - 1
        # ``ready_at`` and ``last_at`` are ``take`` arguments, (indices, axis).
        if len(xs) == 1:  # nothing is padded: read rows, do not gather them
            z_insp = z[width:]
            ready_at, last_at, real = (last[:, 0], 0), (depth - 1, 0), True
        else:  # gather column by column, at flat indices: normal c, row r is c * rows + r
            column = np.arange(rows)
            z_insp = z.take((counts + batch) * rows + column)
            ready_at = (last * rows + column, None)
            last_at = ((n_batches - 1) * rows + column, None)
            real = batch < n_batches  # (depth, rows): False on padded batches

        def makespans(thetas):
            thetas = self._theta_rows(thetas, rows, non_negative=True)
            if len(thetas) == 0 or rows == 0:
                return np.empty(0)
            mean_asm, sd_asm, mean_insp, sd_insp = thetas.T
            # sd * z, then + mean in place: addition commutes exactly, so
            # these are the bits of mean + sd * z
            completion = np.multiply(sd_asm, z_asm)
            completion += mean_asm
            np.maximum(completion, 0.0, out=completion)
            _prefix_sums(completion, out=completion)
            inspect = np.multiply(sd_insp, z_insp)
            inspect += mean_insp
            np.maximum(inspect, 0.0, out=inspect)
            # finish_b = max(ready_b, finish_{b-1}) + inspect_b unrolls to
            # cum_inspect_b + max(slack_0..b), so the last real batch finishes
            # at its cum_inspect plus the largest slack over the real batches.
            cum_inspect = _prefix_sums(inspect, out=np.empty_like(inspect))
            slack = np.subtract(cum_inspect, inspect, out=inspect)
            np.subtract(completion.take(*ready_at), slack, out=slack)
            return cum_inspect.take(*last_at) + slack.max(axis=0, initial=-np.inf, where=real)

        return makespans


# Columns from which ``_prefix_sums`` adds row by row.  Each row's add costs
# about 0.6 us of call overhead, so with few columns one ``np.cumsum(axis=0)``
# is faster.  Measured on 2 cores (numpy 2.4), median of 11: 120 rows of
# C = 50 / 128 / 224 / 256 / 400 / 4096 columns took 72 / 72 / 85 / 89 / 76 /
# 520 us row by row and 20 / 52 / 79 / 103 / 141 / 3080 us in cumsum; 30 rows
# of C = 50 / 192 / 224 / 400 took 18 / 19 / 22 / 26 us and 7 / 20 / 23 / 39 us.
# The MH chain's sweep has 50 columns; pseudo-output and prediction sweeps
# have m or T (400 in the presets), and the oracle search 4096.
_ROW_ADDS_FROM = 224


def _prefix_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=0, out=out)``, bit for bit: every entry is the
    same chain of adds down its column.  From ``_ROW_ADDS_FROM`` columns on
    it adds row by row, each row one vector add onto the previous sums."""
    if a.shape[1] < _ROW_ADDS_FROM:
        return np.cumsum(a, axis=0, out=out)
    out[:1] = a[:1]
    for prev, row, total in zip(out, a[1:], out[1:]):
        np.add(prev, row, total)  # a positional out parses faster
    return out


# Default regime parameters and breakpoint for the shipped assembly-line
# benchmark: training-region regime below, shifted regime at and above.
ASSEMBLY_THETA_LO = (2.0, 0.5, 5.0, 1.0)
ASSEMBLY_THETA_HI = (3.5, 0.5, 7.0, 1.0)
ASSEMBLY_BREAKPOINT = 110.0


@dataclass(frozen=True)
class DataGeneratingProcess:
    """Observed process: y(x) = truth(x) + zero-mean Gaussian noise."""

    truth: TruthFn
    noise_std: float
    q0: DensitySpec
    spec: dict = field(default_factory=dict)

    def __post_init__(self):
        finite_entries("noise_std", self.noise_std, ">= 0", scalar=True)


def write_csv_rows(path, config_hash: str | None, header, rows) -> None:
    """Write a CSV artifact: a ``# config_hash=...`` line if a hash is given,
    the header, then the rows, each line ending in CRLF.

    Header names are written as they are, so they must need no quoting (no
    comma, quote or line break).  Row fields are Python numbers (callers pass
    an array's ``tolist()``), each written as its ``repr``: the bytes the csv
    module writes for an int, a bool or a float, and a float reads back bit
    for bit.
    """
    with Path(path).open("w", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def write_json_artifact(path, payload) -> str:
    """JSON text of an artifact: indented, keys sorted, a final newline.

    Written to ``path`` unless it is None; returned either way.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


@dataclass(frozen=True)
class Dataset:
    """Training pairs (x_i, y_i) with the seed that generated them."""

    x: np.ndarray
    y: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = real_array(self.x, "dataset inputs")
        y = real_array(self.y, "dataset outputs")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(f"inputs and outputs must be aligned 1-d vectors, got {x.shape} / {y.shape}")

    @property
    def n(self) -> int:
        return self.x.size

    def write_csv(self, path, config_hash: str | None = None) -> None:
        """Write ``x,y`` rows; seed, generator spec and hash go to a JSON sidecar."""
        write_csv_rows(path, config_hash, ["x", "y"], zip(self.x.tolist(), self.y.tolist()))
        side = {"seed": self.seed, "meta": self.meta}
        if config_hash:
            side["config_hash"] = config_hash
        write_json_artifact(Path(path).with_suffix(".json"), side)


def generate_dataset(dgp: DataGeneratingProcess, n: int, seed: int) -> Dataset:
    """Draw n inputs from q0 and push them through the observed process."""
    n, seed = count_entry("n", n, 1), count_entry("seed", seed, *SEED_RANGE)
    xs = dgp.q0.one_dimensional().sample(n, derive_rng(seed, "inputs"))[:, 0]
    keys = np.array([derive_seed(seed, "truth", i) for i in range(n)], dtype=np.uint64)
    truth_vals = dgp.truth(xs, keys)
    noise = dgp.noise_std * derive_rng(seed, "noise").standard_normal(n)
    return Dataset(xs, truth_vals + noise, seed=seed, meta=dict(dgp.spec))


_REGISTRY: dict[str, Callable[..., Simulator]] = {
    "linear": LinearSimulator,
    "assembly": AssemblyLineSimulator,
}


def get_simulator(name: str, **options) -> Simulator:
    """Look up a registered simulator by its CLI name; ``options`` go to its constructor."""
    try:
        factory = _REGISTRY[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown simulator {name!r}; registered: {known}") from None
    unknown = sorted(set(options) - set(signature(factory).parameters))
    if unknown:
        raise ValueError(f"unknown simulator_options for {name!r}: {', '.join(unknown)}")
    return factory(**options)

