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

import csv
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from inspect import signature
from pathlib import Path
from typing import Callable

import numpy as np

from ._seeding import SEED_RANGE, derive_rng, derive_seed, key_normals, stream_keys
from .weights import DensitySpec, count_entry, finite_entries

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
        noise here, once, on the streams ``_streams`` names, and each call
        only transforms it by theta (common random numbers across calls).
        """

    def _inputs(self, xs, keys) -> np.ndarray:
        """``xs`` as a finite 1-d float array; ``keys`` must be one key or one per input."""
        xs = np.asarray(xs, dtype=float).reshape(-1)
        if np.size(keys) not in (1, len(xs)) and len(xs) != 1:
            raise ValueError(f"got {np.size(keys)} keys for {len(xs)} inputs")
        finite = np.isfinite(xs)
        if not finite.all():
            row = int(np.argmin(finite))
            raise SimulatorError(f"{self.name} inputs must be finite, got x={xs[row]}", row)
        return xs

    def _streams(self, xs, keys) -> np.ndarray:
        """Stream key of each row, ``stream_keys(key, x)``: theta transforms
        the realization a key indexes but never selects it."""
        return stream_keys(keys, self._inputs(xs, keys))

    def _theta_rows(self, thetas, keyed: int) -> np.ndarray:
        """Parameter rows as a finite ``(rows, dim_theta)`` array (a vector is
        one row): 1 or ``keyed`` of them, any number if the sweep has one row."""
        thetas = np.asarray(thetas, dtype=float)
        rows = thetas[None] if thetas.ndim == 1 else thetas
        if rows.ndim != 2 or rows.shape[1] != self.dim_theta:
            raise ValueError(
                f"{self.name} expects {self.dim_theta} parameters, got shape {thetas.shape}"
            )
        if len(rows) not in (1, keyed) and keyed != 1:
            raise ValueError(f"got {len(rows)} parameter rows for {keyed} keyed rows")
        self._reject_rows(np.isfinite(rows), rows, "finite")
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
    return np.array([-x + x**3 for x in np.asarray(xs, dtype=float).reshape(-1).tolist()])


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

    def sweep(self, xs, keys=0) -> Callable[[np.ndarray], np.ndarray]:
        """Makespans of ``xs[r]`` products on row r's stream, as a function of theta.

        Normals 0..x-1 of row r's stream drive its assembly durations and
        the next ones its inspection durations; they are drawn here, once.  Rows
        with fewer products or batches are padded: the makespan is read from
        prefix sums and a max over the real batches only, so padding never
        reaches it.  With one input nothing is padded, so columns are read
        by slice or column index rather than gathered row by row.
        """
        streams = self._streams(xs, keys)  # checks the inputs and keys
        xs = np.asarray(xs, dtype=float).reshape(-1)
        bad = xs < 1
        if bad.any():
            row = int(np.argmax(bad))
            raise SimulatorError(f"product count must be >= 1, got x={xs[row]}", row)
        size = self.batch_size
        counts = np.rint(xs).astype(np.intp)[:, None]
        n_batches = -(-counts // size)
        width, depth = int(counts.max(initial=0)), int(n_batches.max(initial=0))
        z = key_normals(streams, width + depth)
        z_asm = z[:, :width]
        # Batch b is ready when its last product leaves assembly; a trailing
        # partial batch when the last product does.
        batch = np.arange(depth)
        last = np.minimum((batch + 1) * size, counts) - 1
        real = batch < n_batches  # (rows, depth): False on padded batches
        one_input = len(xs) == 1
        if one_input:  # nothing is padded: read columns, do not gather them
            z_insp = z[:, width:]
        else:
            z_insp = np.take_along_axis(z, counts + batch, axis=1)

        def makespans(thetas):
            thetas = self._theta_rows(thetas, len(z))
            self._reject_rows(thetas >= 0, thetas, "non-negative")
            if len(thetas) == 0 or len(z) == 0:
                return np.empty(0)
            mean_asm, sd_asm, mean_insp, sd_insp = np.hsplit(thetas, 4)
            durations = np.maximum(mean_asm + sd_asm * z_asm, 0.0)
            completion = np.cumsum(durations, axis=1)
            if one_input:
                ready = completion[:, last[0]]
            else:
                ready = np.take_along_axis(completion, last, axis=1)
            inspect = np.maximum(mean_insp + sd_insp * z_insp, 0.0)
            # finish_b = max(ready_b, finish_{b-1}) + inspect_b unrolls to
            # cum_inspect_b + max(slack_0..b), so the last real batch finishes
            # at its cum_inspect plus the largest slack over the real batches.
            cum_inspect = np.cumsum(inspect, axis=1)
            slack = ready - (cum_inspect - inspect)
            last_cum = np.take_along_axis(cum_inspect, n_batches - 1, axis=1)[:, 0]
            return last_cum + slack.max(axis=1, initial=-np.inf, where=real)

        return makespans


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
    the header, then the rows.  Rows hold Python values (callers pass an
    array's ``tolist()``): the csv module writes a float as its ``repr``, so
    it reads back bit for bit, and other values as ``str``.  Rows end in
    CRLF.
    """
    with Path(path).open("w", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
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
    xs = dgp.q0.sample(n, derive_rng(seed, "inputs"))[:, 0]
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

