"""Model container, regularity diagnostics, and equilibrium constructors."""

import math
import pickle

import numpy as np
import pytest

from gkernel import (
    CustomUtility,
    DomainError,
    EquilibriumSpec,
    EvaluationError,
    LogUtility,
    ModelSpec,
    PowerUtility,
    ShapeError,
    UncertaintySet,
    as_coefficient,
    check_assumptions,
    equilibrium_model,
    truncation_level,
)


def _finite_2d():
    return UncertaintySet.finite([np.eye(2)])


class TestDerivedDij:
    def test_scalar_example(self, const_model):
        # sigma = 0.2, v = 0.3 -> (0.2*0.3 + 0.2*0.3)/2
        x = np.array([[0.0], [1.7]])
        dij = const_model.eval_dij(x)
        assert dij.shape == (2, 1, 1, 1)
        assert np.allclose(dij, 0.06, atol=1e-15)

    def test_zero_noise_loading(self, ou_model):
        x = np.linspace(-1, 1, 7)[:, None]
        assert np.all(ou_model.eval_dij(x) == 0.0)

    def test_two_noise_symmetry(self):
        model = ModelSpec.build(
            m=1, d=2,
            b=["-x1"],
            sigma=[[0.2, 0.3]],
            r=0.0,
            uncertainty=_finite_2d(),
            v=[0.1, 0.4],
        )
        dij = model.eval_dij(np.array([[0.5]]))
        assert dij.shape == (1, 2, 2, 1)
        assert dij[0, 0, 1, 0] == pytest.approx(0.5 * (0.2 * 0.4 + 0.3 * 0.1), abs=1e-15)
        assert dij[0, 1, 0, 0] == dij[0, 0, 1, 0]
        assert dij[0, 0, 0, 0] == pytest.approx(0.2 * 0.1, abs=1e-15)
        assert dij[0, 1, 1, 0] == pytest.approx(0.3 * 0.4, abs=1e-15)

    def test_h_effective_subtracts_coupling(self, const_model):
        x = np.array([[0.3]])
        h_eff = const_model.eval_h_effective(x)
        assert h_eff[0, 0, 0, 0] == pytest.approx(-0.06, abs=1e-15)


class TestEvaluate:
    """``ModelSpec.evaluate``: one lazy bundle of every coefficient tensor."""

    @staticmethod
    def _mixed_model():
        return ModelSpec.build(
            m=2, d=2, b=["-x1", -0.5], sigma=[["0.2 + 0.1 * tanh(x1)", 0.05], [0.0, 0.15]],
            r="x1 + x2", k=[[0.01, 0.005], [0.005, 0.02]], v=[0.3, 0.1],
            uncertainty=_finite_2d(),
        )

    @pytest.mark.parametrize("which", ["const", "mixed"])
    def test_bundle_equals_eval_methods(self, const_model, which):
        model = const_model if which == "const" else self._mixed_model()
        x = np.linspace(-1.0, 1.0, 7 * model.m).reshape(7, model.m)
        coeffs = model.evaluate(x)
        for name in ("b", "sigma", "r", "k", "v", "h"):
            expected = getattr(model, f"eval_{name}")(x)
            assert coeffs[name].shape == expected.shape
            assert np.array_equal(coeffs[name].view(np.int64), expected.view(np.int64))

    def test_constant_tensors_broadcast_and_checked_once(self, monkeypatch):
        model = self._mixed_model()
        calls = []
        evals = {name: getattr(ModelSpec, f"eval_{name}") for name in ("b", "k", "v", "h")}
        for name, orig in evals.items():
            monkeypatch.setattr(ModelSpec, f"eval_{name}",
                                lambda self, x, _n=name, _f=orig: calls.append(_n) or _f(self, x))
        for n in (3, 5):
            coeffs = model.evaluate(np.zeros((n, 2)))
            for name in ("k", "v", "h"):   # all entries Constant (h absent: zero)
                assert coeffs[name].shape[0] == n
                assert coeffs[name].strides[0] == 0
                assert not coeffs[name].flags.writeable
            coeffs["b"]                    # one entry is an expression
        assert sorted(calls) == ["b", "b", "h", "k", "v"]

    def test_each_tensor_read_is_kept(self):
        coeffs = self._mixed_model().evaluate(np.zeros((4, 2)))
        assert coeffs["sigma"] is coeffs["sigma"]
        assert "r" not in coeffs  # nothing is evaluated before it is read
        with pytest.raises(KeyError):
            coeffs["dij"]  # neither a tensor nor a product of _DERIVED

    @staticmethod
    def _product_model(sigma=(0.2, 0.05), v=(0.3, 0.1)):
        return ModelSpec.build(
            m=2, d=2, b=["-x1", -0.5], sigma=[list(sigma), [0.0, 0.15]], r="x1 + x2",
            k=[[0.01, 0.005], [0.005, 0.02]], v=list(v),
            h=[[[0.03, -0.01], [0.01, 0.02]], [[0.01, 0.02], [0.02, -0.03]]],
            uncertainty=_finite_2d(),
        )

    @staticmethod
    def _products(model, x):
        """The pricing products formed on every row by the eval_* methods."""
        v = model.eval_v(x)
        return {"h_eff": model.eval_h_effective(x), "two_k": 2.0 * model.eval_k(x),
                "vv": np.einsum("ni,nj->nij", v, v)}

    @pytest.mark.parametrize("varying,kw", [
        ((), {}),
        (("h_eff",), dict(sigma=("0.2 + 0.1 * tanh(x1)", 0.05))),
        (("h_eff", "vv"), dict(v=(0.3, "0.1 * x2"))),
    ], ids=["all_constant", "state_sigma", "state_v"])
    def test_products_cached_only_when_their_tensors_are_constant(self, varying, kw):
        model = self._product_model(**kw)
        for n in (5, 3, 5):  # a new row count re-broadcasts the cached row
            x = np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2)
            coeffs = model.evaluate(x)
            for name, expected in self._products(model, x).items():
                got = coeffs[name]
                assert got.shape == expected.shape
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), name
                if name in varying:
                    assert model._constants[name] is None
                    assert got.flags.writeable and got.strides[0] != 0
                else:
                    assert got.strides[0] == 0 and not got.flags.writeable

    @pytest.mark.parametrize("varying,kw", [
        ((), {}),
        (("h_eff",), dict(sigma=("0.2 + 0.1 * tanh(x1)", 0.05))),
        (("h_eff", "vv"), dict(v=(0.3, "0.1 * x2"))),
    ], ids=["all_constant", "state_sigma", "state_v"])
    def test_row_view_equals_the_bundle_at_its_rows(self, varying, kw):
        model = self._product_model(**kw)
        x = np.linspace(-1.0, 1.0, 18).reshape(9, 2)
        whole = model.evaluate(x)
        assert whole.rows(slice(0, 9)) is whole
        for rows in (slice(0, 3), slice(3, 6), slice(6, 9)):
            view = whole.rows(rows)
            alone = model.evaluate(x[rows])
            assert view.model is model and np.array_equal(view.x, x[rows])
            for name in ("h_eff", "two_k", "vv", "b", "sigma", "r", "k", "v", "h"):
                assert view[name].tobytes() == alone[name].tobytes(), name
                assert view[name].shape == alone[name].shape, name
            # a varying product is formed on the view's rows, never on the whole's
            assert not set(varying) & set(whole)
            for name in ("b", "sigma", "r", "k", "v", "h"):
                assert np.shares_memory(view[name], whole[name]), name

    def test_models_never_share_products(self):
        x = np.zeros((4, 2))
        twins = self._product_model(), self._product_model()
        other = self._product_model(v=(-0.2, 0.4))
        for model in twins + (other,):
            coeffs = model.evaluate(x)
            for name, expected in self._products(model, x).items():
                assert np.array_equal(coeffs[name], expected), name
        for name in ("h_eff", "two_k", "vv"):
            a, b, c = (model._constants[name] for model in twins + (other,))
            assert not (np.shares_memory(a, b) or np.shares_memory(a, c)
                        or np.shares_memory(b, c)), name
        assert not np.array_equal(twins[0].evaluate(x)["vv"], other.evaluate(x)["vv"])

    @pytest.mark.parametrize("entry,label", [
        (dict(sigma=[[math.nan]]), r"sigma\[0\]\[0\]"),
        (dict(v=[math.inf]), r"v\[0\]"),
        (dict(r=math.nan), r"\br\b"),
    ])
    def test_non_finite_constant_named_on_every_read(self, entry, label):
        kw = dict(m=1, d=1, b=["-x1"], sigma=[[0.2]], r=0.02,
                  uncertainty=UncertaintySet.interval(0.5, 1.0))
        kw.update(entry)
        model = ModelSpec.build(**kw)
        name = next(iter(entry))
        for _ in range(2):  # a failed check is not cached as a value
            with pytest.raises(EvaluationError, match=label):
                model.evaluate(np.zeros((3, 1)))[name]

    def test_empty_batch(self, const_model):
        coeffs = const_model.evaluate(np.zeros((0, 1)))
        assert coeffs["sigma"].shape == (0, 1, 1)
        assert coeffs["b"].shape == (0, 1)


class TestCheckAssumptions:
    def test_mean_reverting_constants_match_analytic(self, ou_model):
        rep = check_assumptions(ou_model, [(-1.0, 1.0)], [41])
        # constant sigma: no diffusion variation, so the price term vanishes
        assert rep.c_sigma <= 1e-12
        assert rep.m_sigma == pytest.approx(0.2, abs=1e-12)
        assert rep.eta_hat == pytest.approx(1.0, abs=1e-6)
        assert rep.gap == pytest.approx(1.0, abs=1e-6)
        # |delta b| + |delta r| both equal |delta x| for this model
        assert rep.c1 == pytest.approx(2.0, abs=1e-6)
        assert rep.clauses == {"i": True, "ii": True, "iii": True, "iv": True}
        assert rep.passed

    def test_report_serializes(self, ou_model):
        rep = check_assumptions(ou_model, [(-1.0, 1.0)], [11])
        d = rep.to_dict()
        assert d["passed"] is True
        assert set(d["clauses"]) == {"i", "ii", "iii", "iv"}
        assert d["n_points"] == 11

    def test_anti_dissipative_drift_fails_rate_clause(self):
        model = ModelSpec.build(
            m=1, d=1,
            b=["1.0 * x1"],
            sigma=[["0.2"]],
            r=0.0,
            uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
        rep = check_assumptions(model, [(-1.0, 1.0)], [21])
        assert rep.eta_hat == pytest.approx(-1.0, abs=1e-6)
        assert not rep.clauses["iii"]
        assert not rep.passed

    def test_asymmetric_covariation_loading_fails(self):
        model = ModelSpec.build(
            m=1, d=2,
            b=["-x1"],
            sigma=[[0.2, 0.1]],
            r=0.0,
            uncertainty=_finite_2d(),
            k=[[0.0, 0.1], [0.2, 0.0]],
        )
        rep = check_assumptions(model, [(-1.0, 1.0)], [11])
        assert rep.symmetry_dev == pytest.approx(0.1, abs=1e-12)
        assert not rep.clauses["i"]
        assert not rep.passed

    def test_non_finite_coefficient_reports_location(self):
        model = ModelSpec.build(
            m=1, d=1,
            b=["-x1"],
            sigma=[["0.2"]],
            r="ln(x1)",
            uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
        with pytest.raises(EvaluationError):
            with np.errstate(invalid="ignore"):
                check_assumptions(model, [(-1.0, 1.0)], [11])

    def test_too_few_nodes_rejected(self, ou_model):
        with pytest.raises(ShapeError):
            check_assumptions(ou_model, [(-1.0, 1.0)], [9])

    def test_non_integer_node_count_rejected(self, ou_model):
        with pytest.raises(ShapeError, match="nodes must be an integer, got 12.7"):
            check_assumptions(ou_model, [(-1.0, 1.0)], [12.7])

    def test_box_dimension_mismatch(self, ou_model):
        with pytest.raises(ShapeError):
            check_assumptions(ou_model, [(-1.0, 1.0), (0.0, 1.0)], [11, 11])

    def test_estimates_monotone_under_refinement(self):
        model = ModelSpec.build(
            m=1, d=1,
            b=["0.05 - x1 - 0.1 * tanh(x1)"],
            sigma=[["0.2 + 0.05 * tanh(x1)"]],
            r="x1 * x1",
            uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
        coarse = check_assumptions(model, [(-1.0, 1.0)], [11])
        fine = check_assumptions(model, [(-1.0, 1.0)], [21])  # nodes nest
        assert fine.c1 >= coarse.c1
        assert fine.c_sigma >= coarse.c_sigma
        assert fine.m_sigma >= coarse.m_sigma
        assert fine.eta_hat <= coarse.eta_hat + 1e-8


class TestTruncationLevel:
    def test_printed_formula_example(self):
        val = truncation_level(
            mu=0.0, eta=2.0, c_sigma=0.1, c3=1.0, c_phi=0.0,
            sig_hi=1.0, sig_lo=1.0, m_sigma=1.0,
        )
        assert val == pytest.approx(2.25, abs=1e-15)

    def test_numerator_cancellation_boundary(self):
        val = truncation_level(
            mu=0.0, eta=0.2, c_sigma=0.1, c3=1.0, c_phi=0.0,
            sig_hi=1.0, sig_lo=1.0, m_sigma=1.0,
        )
        assert val == 0.0

    def test_no_quadratic_term_means_no_cap(self):
        val = truncation_level(
            mu=0.0, eta=1.0, c_sigma=0.0, c3=1.0, c_phi=0.5,
            sig_hi=1.0, sig_lo=0.5, m_sigma=1.0,
        )
        assert val == math.inf

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            truncation_level(0.0, 0.1, 0.1, 1.0, 0.0, 1.0, 1.0, 1.0)  # negative numerator
        with pytest.raises(DomainError):
            truncation_level(0.0, 1.0, 0.1, 1.0, 0.0, 1.0, 0.0, 1.0)  # sig_lo = 0
        with pytest.raises(DomainError):
            truncation_level(0.0, 1.0, -0.1, 1.0, 0.0, 1.0, 1.0, 1.0)  # negative product


class TestEquilibrium:
    def _spec(self, utility, drift=0.04, vol=0.3, beta=0.03):
        return EquilibriumSpec.build(utility, drift, vol, beta)

    def test_log_utility_point(self):
        # u' = 1, u'' = -1, u''' = 2 at w = 1
        pt = equilibrium_model(self._spec(LogUtility()), 1.0)
        assert pt.rate == pytest.approx(0.10, abs=1e-15)
        assert pt.risk_load == pytest.approx([0.3], abs=1e-15)
        assert pt.portfolio(np.array([[2.0]])) == pytest.approx([0.6], abs=1e-15)

    def test_power_utility_doubles_loading(self):
        pt = equilibrium_model(self._spec(PowerUtility(2.0)), 1.0)
        assert pt.risk_load == pytest.approx([0.6], abs=1e-15)

    def test_power_gamma_one_matches_log(self):
        a = equilibrium_model(self._spec(PowerUtility(1.0)), 1.3)
        b = equilibrium_model(self._spec(LogUtility()), 1.3)
        assert a.rate == pytest.approx(b.rate, abs=1e-12)
        assert a.risk_load == pytest.approx(b.risk_load, abs=1e-12)

    def test_zero_volatility_zeroes_loading(self):
        for utility in (LogUtility(), PowerUtility(3.0)):
            pt = equilibrium_model(self._spec(utility, vol=0.0), 1.0)
            assert np.all(pt.risk_load == 0.0)

    def test_state_dependent_coefficients(self):
        pt = equilibrium_model(self._spec(LogUtility(), drift="0.04 * x1", vol="0.3"), 2.0)
        # ra = 1/2 at w=2, so rate = 0.5*u'''*sig^2 + ra*b - beta
        assert pt.rate == pytest.approx(0.5 * 0.25 * 0.09 + 0.5 * 0.08 - 0.03, abs=1e-15)
        assert pt.risk_load == pytest.approx([0.3], abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            equilibrium_model(self._spec(LogUtility()), -1.0)
        bad_up = CustomUtility("-1", "-1", "0")
        with pytest.raises(DomainError):
            equilibrium_model(self._spec(bad_up), 1.0)
        convex = CustomUtility("1", "0.5", "0")
        with pytest.raises(DomainError):
            equilibrium_model(self._spec(convex), 1.0)
        with pytest.raises(DomainError):
            EquilibriumSpec.build(LogUtility(), 0.04, 0.3, beta=0.0)
        with pytest.raises(DomainError):
            PowerUtility(0.0)

    def test_portfolio_shape_check(self):
        pt = equilibrium_model(self._spec(LogUtility()), 1.0)
        with pytest.raises(ShapeError):
            pt.portfolio(np.eye(2))


class TestModelValidation:
    def test_non_integer_dimensions_rejected(self):
        band = UncertaintySet.interval(0.5, 1.0)
        for m in (1.7, 1.0, "1", True):
            with pytest.raises(ShapeError, match="m must be an integer"):
                ModelSpec.build(m=m, d=1, b=["-x1"], sigma=[[0.2]], r=0.0, uncertainty=band)
        with pytest.raises(ShapeError, match="d must be an integer"):
            ModelSpec.build(m=1, d=1.2, b=["-x1"], sigma=[[0.2]], r=0.0, uncertainty=band)
        model = ModelSpec.build(m=np.int64(1), d=np.int32(1), b=["-x1"], sigma=[[0.2]],
                                r=0.0, uncertainty=band)
        assert (model.m, model.d) == (1, 1) and type(model.m) is int

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ModelSpec.build(
                m=1, d=2, b=["-x1"], sigma=[[0.2, 0.1]], r=0.0,
                uncertainty=UncertaintySet.interval(0.5, 1.0),
            )

    def test_bad_coefficient_grid_shapes(self):
        iv = UncertaintySet.interval(0.5, 1.0)
        with pytest.raises(ShapeError):
            ModelSpec.build(m=1, d=1, b=["-x1", "0"], sigma=[[0.2]], r=0.0, uncertainty=iv)
        with pytest.raises(ShapeError):
            ModelSpec.build(m=1, d=1, b=["-x1"], sigma=[[0.2, 0.1]], r=0.0, uncertainty=iv)
        with pytest.raises(ShapeError):
            ModelSpec.build(m=1, d=1, b=["-x1"], sigma=[[0.2]], r=0.0, uncertainty=iv, v=[0.1, 0.2])
        with pytest.raises(ShapeError):
            ModelSpec.build(m=0, d=1, b=[], sigma=[], r=0.0, uncertainty=iv)

    def test_default_loadings_are_zero(self, ou_model):
        x = np.array([[0.4]])
        assert np.all(ou_model.eval_k(x) == 0.0)
        assert np.all(ou_model.eval_v(x) == 0.0)
        assert np.all(ou_model.eval_h(x) == 0.0)


def _stacked(tree, x):
    """Reference tensor: ``fn(x)`` per entry, stacked level by level after the row axis."""
    if not isinstance(tree, list):
        return as_coefficient(tree)(x)
    return np.stack([_stacked(t, x) for t in tree], axis=1)


class TestTensorTable:
    """Every tensor is read through one shape table, entry by entry."""

    SOURCES = {
        "b": ["-x1 + 0.1 * x2", 0.05],
        "sigma": [[0.2, "0.1 + 0.05 * x2"], ["0.1 + 0.05 * tanh(x1)", 0.3]],
        "r": "0.01 + x1 + 0.5 * x2",
        "k": [[0.1, "0.02 * x1"], ["0.02 * x1", "0.2 + 0.01 * x2"]],
        "v": ["0.3 + 0.1 * tanh(x2)", 0.1],
        "h": [[[0.01, "0.02 * x1"], ["0.01 * x1", 0.0]],
              [["0.01 * x1", 0.0], ["0.01 * x2", 0.03]]],
    }

    def _model(self, **override):
        return ModelSpec.build(m=2, d=2, uncertainty=_finite_2d(),
                               **{**self.SOURCES, **override})

    @pytest.mark.parametrize("name", ["b", "sigma", "r", "k", "v", "h"])
    def test_eval_equals_stacked_entries_bitwise(self, name):
        x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(101, 2))
        got = getattr(self._model(), f"eval_{name}")(x)
        expected = _stacked(self.SOURCES[name], x)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_non_finite_entry_named(self):
        h = [[[0.01, 0.0], [0.0, 0.0]], [[0.0, "ln(x1 - 5)"], [0.0, 0.0]]]
        with pytest.raises(EvaluationError, match=r"^h\[1\]\[0\]\[1\] evaluated to a non-finite"):
            self._model(h=h).eval_h(np.array([[0.5, 0.0]]))

    def test_non_finite_entry_message_at_its_row(self):
        x = np.array([[6.0, 0.0], [7.0, 1.0], [4.5, -0.25], [3.0, 2.0]])
        h = [[[0.01, 0.0], [0.0, 0.0]], [[0.0, "ln(x1 - 5)"], [0.0, 0.0]]]
        with pytest.raises(EvaluationError) as err:
            self._model(h=h).eval_h(x)
        assert str(err.value) == (
            "h[1][0][1] evaluated to a non-finite value at x = [4.5, -0.25]")

    def test_boolean_rate_rejected(self):
        with pytest.raises(ShapeError, match="^r must be a number"):
            self._model(r=True)

    ONE_ENTRY = {"b": ["x1"], "sigma": [["0.2 + 0.05 * tanh(x1)"]], "r": "x1",
                 "k": [["0.02 + 0.05 * x1"]], "v": ["x1"], "h": [[["0.03 * x1"]]]}

    @pytest.mark.parametrize("name", ["b", "sigma", "r", "k", "v", "h"])
    def test_one_entry_tensor_is_its_values_uncopied(self, name):
        model = ModelSpec.build(m=1, d=1, uncertainty=UncertaintySet.interval(0.5, 1.0),
                                **self.ONE_ENTRY)
        x = np.random.default_rng(4).uniform(-2.0, 2.0, size=(37, 1))
        got = getattr(model, f"eval_{name}")(x)
        expected = _stacked(self.ONE_ENTRY[name], x)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        # the entry "x1" reads the states themselves, as a view
        assert np.shares_memory(got, x) == (self.ONE_ENTRY[name] in (["x1"], "x1"))

    def test_model_survives_a_pickle_round_trip(self):
        model = self._model()
        again = pickle.loads(pickle.dumps(model))
        x = np.random.default_rng(6).uniform(-2.0, 2.0, size=(29, 2))
        for name in ("b", "sigma", "r", "k", "v", "h", "h_eff", "two_k", "vv"):
            assert again.evaluate(x)[name].tobytes() == model.evaluate(x)[name].tobytes()
