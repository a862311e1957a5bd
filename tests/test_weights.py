import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from shiftcal.weights import (
    DegenerateWeightError,
    DensitySpec,
    ImportanceWeights,
    importance_weights,
    ordinary_weights,
)


class TestDensityEval:
    def test_standard_normal_at_zero(self):
        spec = DensitySpec.normal(0.0, 1.0)
        assert float(spec.pdf(0.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_uniform_inside(self):
        spec = DensitySpec.uniform(0.0, 2.0)
        assert float(spec.pdf(1.0)) == 0.5

    def test_uniform_outside(self):
        spec = DensitySpec.uniform(0.0, 2.0)
        assert float(spec.pdf(3.0)) == 0.0

    def test_normal_matches_scipy_oracle(self):
        # independent implementation check on a grid of specs and points
        rng = np.random.default_rng(0)
        for _ in range(25):
            mean, std = rng.normal(), rng.uniform(0.1, 3.0)
            x = rng.normal(scale=4.0)
            ours = float(DensitySpec.normal(mean, std).pdf(x))
            ref = scipy.stats.norm(mean, std).pdf(x)
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            DensitySpec.uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            DensitySpec(family="cauchy")

    @pytest.mark.parametrize(
        "build,message",
        [(lambda: DensitySpec.normal(math.nan, 1.0), r"mean must be finite, got \[nan\]"),
         (lambda: DensitySpec.normal([math.inf], [math.nan]), r"mean must be finite, got \[inf\]"),
         (lambda: DensitySpec.normal([0.0], [math.nan]), r"std must be finite and >= 0, got \[nan\]"),
         (lambda: DensitySpec.uniform(0.0, math.inf), r"high must be finite, got \[inf\]")],
    )
    def test_non_finite_rejected_at_construction(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_point_mass_samples_but_has_no_density(self):
        # std 0 is a valid prior (a point mass), but neither pdf nor log_pdf exists;
        # a 1-D spec samples an (n, 1) array
        spec = DensitySpec.normal(2.0, 0.0)
        assert np.array_equal(spec.sample(3, np.random.default_rng(0)), np.full((3, 1), 2.0))
        with pytest.raises(ValueError, match="point mass"):
            spec.pdf(2.0)
        with pytest.raises(ValueError, match="point mass"):
            spec.log_pdf([2.0])

    def test_pdf_needs_one_dimension(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            DensitySpec.uniform([0.0, 0.0], [1.0, 1.0]).pdf(0.5)



class TestLogPdf:
    """``log_pdf`` in closed form, with its terms computed once per spec."""

    NORMAL = DensitySpec.normal([1.0, -2.0], [0.5, 3.0])
    BOX = DensitySpec.uniform([0.0, 2.0], [1.0, 6.0])

    def test_normal_closed_form(self):
        mean, std = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        for theta in ([1.0, -2.0], [0.0, 4.0], [-1e3, 1e3]):
            z = (np.asarray(theta) - mean) / std
            expected = -0.5 * z @ z - np.log(std).sum() - math.log(2 * math.pi)
            assert self.NORMAL.log_pdf(theta) == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_normal_at_nan_is_nan(self):
        assert math.isnan(self.NORMAL.log_pdf([math.nan, 0.0]))

    @pytest.mark.parametrize("theta", [[0.0, 2.0], [1.0, 6.0], [0.0, 6.0], [1.0, 2.0], [0.5, 4.0]])
    def test_box_faces_are_inside(self, theta):
        assert self.BOX.log_pdf(theta) == -math.log(1.0 * 4.0)

    @pytest.mark.parametrize("theta", [[-1e-300, 4.0], [np.nextafter(1.0, 2.0), 4.0],
                                       [0.5, np.nextafter(2.0, 0.0)], [0.5, 6.000001],
                                       [math.nan, 4.0], [0.5, math.inf]])
    def test_just_outside_the_box_or_nan_is_minus_inf(self, theta):
        assert self.BOX.log_pdf(theta) == -math.inf

    @pytest.mark.parametrize("spec", [NORMAL, BOX], ids=["normal", "uniform"])
    def test_the_spec_is_unchanged_by_a_call(self, spec):
        twin = DensitySpec(spec.family, spec.mean, spec.std, spec.low, spec.high)
        shown, fields = repr(spec), dataclasses.astuple(spec)
        spec.log_pdf(spec.center())
        assert repr(spec) == shown and dataclasses.astuple(spec) == fields
        assert spec == twin and twin == spec and hash(spec) == hash(twin)
        replaced = dataclasses.replace(spec)
        assert replaced == spec and repr(replaced) == shown
        assert replaced.log_pdf(spec.center()) == spec.log_pdf(spec.center())

    def test_a_point_mass_raises_on_every_call(self):
        spec = DensitySpec.normal([0.0, 1.0], [1.0, 0.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="point mass"):
                spec.log_pdf([0.0, 1.0])


class TestDensitySpecFields:
    @pytest.mark.parametrize(
        "spec,message",
        [(lambda: DensitySpec.normal([0.0, 1.0], [1.0]),
          "^mean and std need the same non-zero length, got 2 and 1$"),
         (lambda: DensitySpec.uniform([], []),
          "^low and high need the same non-zero length, got 0 and 0$")],
        ids=["unequal", "empty"],
    )
    def test_fields_share_a_non_zero_length(self, spec, message):
        with pytest.raises(ValueError, match=message):
            spec()

    @pytest.mark.parametrize("spec", [TestLogPdf.NORMAL, TestLogPdf.BOX], ids=["normal", "box"])
    def test_log_pdf_takes_one_point_of_the_spec_dimension(self, spec):
        message = r"^parameter dimension mismatch: \(3,\) vs \(2,\)$"
        with pytest.raises(ValueError, match=message):
            spec.log_pdf([0.0, 1.0, 2.0])


class TestDensitySpecDict:
    def test_std_and_var_forms(self):
        by_std = DensitySpec.from_dict({"family": "normal", "mean": 1.0, "std": 2.0})
        by_var = DensitySpec.from_dict({"family": "normal", "mean": 1.0, "var": 4.0})
        assert by_std == by_var

    def test_ambiguous_second_arg_rejected(self):
        with pytest.raises(ValueError):
            DensitySpec.from_dict({"family": "normal", "mean": 0.0, "std": 1.0, "var": 1.0})
        with pytest.raises(ValueError):
            DensitySpec.from_dict({"family": "normal", "mean": 0.0})

    @pytest.mark.parametrize(
        "raw,std,resolved",
        [({"family": "uniform", "low": -1.0, "high": 3.0}, (),
          {"family": "uniform", "low": [-1.0], "high": [3.0]}),
         ({"family": "normal", "mean": [0.0] * 4, "var": [5.0] * 4}, (math.sqrt(5.0),) * 4,
          {"family": "normal", "mean": [0.0] * 4, "std": [math.sqrt(5.0)] * 4})],
        ids=["1d", "4d"],
    )
    def test_dict_round_trip(self, raw, std, resolved):
        spec = DensitySpec.from_dict(raw)
        assert spec.std == std
        assert DensitySpec.from_dict(resolved) == spec


class TestImportanceWeights:
    @pytest.mark.parametrize("values,message", [
        ([], "are all zero: q1 has no mass at any training input"),
        ([[1.0, 2.0]], r"must be a 1-d vector, got \(1, 2\)")], ids=["empty", "2-d"])
    def test_a_non_empty_vector(self, values, message):
        with pytest.raises(DegenerateWeightError, match=f"^importance weights {message}$"):
            ImportanceWeights(values)

    def test_identical_densities_give_ones(self):
        q = DensitySpec.normal(0.5, 0.5)
        xs = np.linspace(-2, 2, 17)
        beta = importance_weights(xs, q, q)
        assert np.array_equal(np.asarray(beta), np.ones(17))

    def test_common_point_of_equal_densities(self):
        q0 = DensitySpec.normal(0.0, 1.0)
        beta = importance_weights([0.0], q0, DensitySpec.normal(0.0, 1.0))
        assert np.asarray(beta)[0] == 1.0

    def test_benchmark_ratio_at_zero(self):
        # oracle: direct density-ratio evaluation with an independent
        # implementation (scipy), frozen to 12 digits
        q0 = DensitySpec.normal(0.5, 0.5)
        q1 = DensitySpec.normal(0.0, 0.3)
        oracle = scipy.stats.norm(0.0, 0.3).pdf(0.0) / scipy.stats.norm(0.5, 0.5).pdf(0.0)
        beta = importance_weights([0.0], q0, q1)
        assert oracle == pytest.approx(2.7478687845002137, rel=1e-12)
        assert np.asarray(beta)[0] == pytest.approx(oracle, rel=1e-12)

    def test_elementwise_ratio_property(self):
        rng = np.random.default_rng(3)
        q0 = DensitySpec.normal(0.5, 0.5)
        q1 = DensitySpec.normal(0.0, 0.3)
        xs = rng.normal(0.5, 0.5, size=200)
        beta = np.asarray(importance_weights(xs, q0, q1))
        ref = scipy.stats.norm(0.0, 0.3).pdf(xs) / scipy.stats.norm(0.5, 0.5).pdf(xs)
        assert np.allclose(beta, ref, rtol=1e-12, atol=0)

    def test_zero_training_density_names_index(self):
        q0 = DensitySpec.uniform(0.0, 1.0)
        q1 = DensitySpec.normal(0.0, 1.0)
        with pytest.raises(DegenerateWeightError, match="index 2"):
            importance_weights([0.1, 0.9, 1.5], q0, q1)

    def test_zero_weight_accepted_negative_rejected(self):
        # q1 without mass at an input gives that point weight zero
        q0 = DensitySpec.normal(0.0, 1.0)
        q1 = DensitySpec.uniform(0.0, 1.0)
        beta = importance_weights([-0.5, 0.5], q0, q1)
        assert np.asarray(beta)[0] == 0.0
        assert np.asarray(beta)[1] > 0.0
        message = "^importance weights must be finite and >= 0, got -1e-300 at index 1$"
        with pytest.raises(DegenerateWeightError, match=message):
            ImportanceWeights(np.array([1.0, -1e-300, 0.0]))

    @pytest.mark.parametrize("values", [[0.0], [0.0, 0.0, 0.0]])
    def test_all_zero_rejected(self, values):
        with pytest.raises(DegenerateWeightError, match="q1 has no mass at any training input"):
            ImportanceWeights(np.array(values))

    def test_disjoint_q1_rejected(self):
        q0 = DensitySpec.normal(0.0, 1.0)
        q1 = DensitySpec.uniform(5.0, 6.0)
        with pytest.raises(DegenerateWeightError, match="q1 has no mass"):
            importance_weights([-0.5, 0.5, 1.0], q0, q1)

    def test_extreme_weights_warn(self):
        # ratio ~ exp(-32) ~ 1e-14: finite but far below the sane range
        q0 = DensitySpec.normal(0.0, 1.0)
        q1 = DensitySpec.normal(8.0, 1.0)
        with pytest.warns(UserWarning, match="disjoint support"):
            importance_weights([0.0], q0, q1)

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateWeightError):
            ImportanceWeights(np.array([1.0, np.inf]))

    def test_extreme_weights_warning_points_at_the_caller(self):
        # the warning names the line that built the weights, not the dataclass __init__
        with pytest.warns(UserWarning, match="disjoint support") as record:
            ImportanceWeights(np.array([1e-14, 1.0]))
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="disjoint support") as record:
            importance_weights([0.0], DensitySpec.normal(0.0, 1.0), DensitySpec.normal(8.0, 1.0))
        assert Path(record[0].filename).is_file()

    def test_array_copy_is_honoured(self):
        w = ImportanceWeights(np.array([1.0, 2.0, 3.0]))
        for copied in (np.array(w), np.array(w, copy=True)):
            copied[0] = 9.0
            assert np.array_equal(w.values, [1.0, 2.0, 3.0])
        assert np.asarray(w) is w.values


class TestOrdinaryWeights:
    def test_single(self):
        assert np.array_equal(np.asarray(ordinary_weights(1)), [1.0])

    def test_three(self):
        assert np.array_equal(np.asarray(ordinary_weights(3)), [1.0, 1.0, 1.0])

    def test_equals_importance_weights_of_identical_densities(self):
        q = DensitySpec.normal(1.0, 2.0)
        xs = np.linspace(-3, 5, 9)
        assert np.array_equal(
            np.asarray(ordinary_weights(9)), np.asarray(importance_weights(xs, q, q))
        )

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            ordinary_weights(0)
