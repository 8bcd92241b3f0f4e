"""Sublinear-expectation generator and ambiguity-set behavior."""

import numpy as np
import pytest

from gkernel import (
    InvalidSetError,
    ShapeError,
    UncertaintySet,
    g_value,
)
from gkernel.gcore import (
    _best_candidate,
    _candidate_scores,
    _first_max,
    _first_of_two,
    _g_values,
    g_value_batch,
)

HALF_OPEN = UncertaintySet.interval(0.5, 1.0)


def _brute_force_1d(a: float, lo: float, hi: float, points: int = 1001) -> float:
    qs = np.linspace(lo, hi, points)
    return float(np.max(0.5 * a * qs))


class TestIntervalClosedForm:
    def test_positive_slope_picks_upper_endpoint(self):
        ev = g_value(np.array([[2.0]]), HALF_OPEN)
        assert ev.value == 1.0
        assert ev.maximizer[0, 0] == 1.0

    def test_zero_matrix_maps_to_zero(self):
        ev = g_value(np.array([[0.0]]), HALF_OPEN)
        assert ev.value == 0.0

    def test_negative_slope_picks_lower_endpoint(self):
        ev = g_value(np.array([[-2.0]]), HALF_OPEN)
        assert ev.value == -0.5
        assert ev.maximizer[0, 0] == 0.5

    def test_zero_ties_break_to_largest_trace(self):
        ev = g_value(np.array([[0.0]]), HALF_OPEN)
        assert ev.maximizer[0, 0] == 1.0

    def test_closed_form_matches_dense_scan(self):
        rng = np.random.default_rng(42)
        for a in rng.normal(scale=3.0, size=200):
            ev = g_value(np.array([[a]]), HALF_OPEN)
            assert abs(ev.value - _brute_force_1d(a, 0.5, 1.0)) <= 1e-12

    def test_value_consistent_with_maximizer(self):
        rng = np.random.default_rng(7)
        for a in rng.normal(size=50):
            ev = g_value(np.array([[a]]), HALF_OPEN)
            assert ev.value == pytest.approx(0.5 * a * ev.maximizer[0, 0], abs=1e-15)


class TestFiniteSets:
    def setup_method(self):
        self.members = [
            np.diag([0.8, 1.2]),
            np.eye(2),
            np.array([[1.0, 0.3], [0.3, 1.0]]),
        ]
        self.sigma = UncertaintySet.finite(self.members)

    def test_exhaustive_maximization(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            raw = rng.normal(size=(2, 2))
            a = raw + raw.T
            ev = g_value(a, self.sigma)
            brute = max(0.5 * np.trace(a @ q) for q in self.members)
            assert ev.value == pytest.approx(brute, abs=1e-14)
            assert any(np.allclose(ev.maximizer, q) for q in self.members)

    def test_batch_agrees_with_scalar_calls(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(40, 2, 2))
        mats = raw + np.swapaxes(raw, 1, 2)
        values, argmax = g_value_batch(mats, self.sigma)
        for i in range(40):
            ev = g_value(mats[i], self.sigma)
            assert values[i] == pytest.approx(ev.value, abs=1e-15)
            assert np.allclose(argmax[i], ev.maximizer)

    def test_membership(self):
        assert self.sigma.contains(np.eye(2))
        assert not self.sigma.contains(np.diag([0.9, 0.9]))
        assert HALF_OPEN.contains(np.array([[0.75]]))
        assert not HALF_OPEN.contains(np.array([[1.25]]))


class TestEllipticityConstants:
    def test_interval_returns_stored_bounds(self):
        assert (HALF_OPEN.lo, HALF_OPEN.hi) == (0.5, 1.0)

    def test_identity_member(self):
        sigma = UncertaintySet.finite([np.eye(2)])
        assert (sigma.lo, sigma.hi) == (1.0, 1.0)

    def test_eigenvalue_extremes_across_members(self):
        sigma = UncertaintySet.finite([np.diag([0.8, 1.2]), np.diag([1.0, 1.0])])
        lo, hi = sigma.lo, sigma.hi
        assert lo == pytest.approx(0.8, abs=1e-14)
        assert hi == pytest.approx(1.2, abs=1e-14)


def _random_psd(rng, d):
    raw = rng.normal(size=(d, d))
    return raw @ raw.T


@pytest.mark.parametrize("sigma,d", [
    (HALF_OPEN, 1),
    (UncertaintySet.finite([np.diag([0.8, 1.2]), np.eye(2),
                            np.array([[1.0, 0.3], [0.3, 1.0]])]), 2),
])
class TestGeneratorProperties:
    def test_sublinearity_and_homogeneity(self, sigma, d):
        rng = np.random.default_rng(17)
        for _ in range(300):
            ra, rb = rng.normal(size=(d, d)), rng.normal(size=(d, d))
            a, b = ra + ra.T, rb + rb.T
            ga = g_value(a, sigma).value
            gb = g_value(b, sigma).value
            gab = g_value(a + b, sigma).value
            assert gab <= ga + gb + 1e-12
            c = float(rng.uniform(0.0, 5.0))
            assert g_value(c * a, sigma).value == pytest.approx(c * ga, abs=1e-11)

    def test_monotonicity_and_sandwich(self, sigma, d):
        rng = np.random.default_rng(23)
        lo, hi = sigma.lo, sigma.hi
        for _ in range(300):
            rb = rng.normal(size=(d, d))
            b = rb + rb.T
            a = b + _random_psd(rng, d)
            ga = g_value(a, sigma).value
            gb = g_value(b, sigma).value
            spread = ga - gb
            tr = float(np.trace(a - b))
            assert spread >= -1e-12
            assert 0.5 * lo * tr - 1e-12 <= spread <= 0.5 * hi * tr + 1e-12


class TestValidation:
    def test_non_symmetric_matrix_rejected(self):
        with pytest.raises(ShapeError):
            g_value(np.array([[1.0, 0.5], [0.0, 1.0]]),
                    UncertaintySet.finite([np.eye(2)]))

    def test_interval_needs_positive_lower_bound(self):
        with pytest.raises(InvalidSetError):
            UncertaintySet.interval(0.0, 1.0)
        with pytest.raises(InvalidSetError):
            UncertaintySet.interval(-0.5, 1.0)

    def test_interval_ordering(self):
        with pytest.raises(InvalidSetError):
            UncertaintySet.interval(1.0, 0.5)

    def test_finite_set_needs_positive_definite_members(self):
        with pytest.raises(InvalidSetError):
            UncertaintySet.finite([np.diag([1.0, 0.0])])
        with pytest.raises(InvalidSetError):
            UncertaintySet.finite([np.array([[1.0, 2.0], [2.0, 1.0]])])

    @pytest.mark.parametrize("bad", [
        [[np.nan]], [[np.inf]], [[1.0, np.nan], [np.nan, 1.0]], [[1.0, np.inf], [0.0, 1.0]],
    ], ids=["nan", "inf", "nan-off-diagonal", "inf-off-diagonal"])
    def test_finite_set_needs_finite_members(self, bad):
        good = np.eye(len(bad))
        with pytest.raises(InvalidSetError, match="member 1 has a non-finite entry"):
            UncertaintySet.finite([good, bad])

    def test_finite_set_must_be_nonempty(self):
        with pytest.raises(InvalidSetError):
            UncertaintySet.finite([])

    def test_degenerate_flag(self):
        assert UncertaintySet.interval(1.0, 1.0).degenerate
        assert not HALF_OPEN.degenerate
        assert UncertaintySet.finite([np.eye(2)]).degenerate

    def test_wrong_dimension_matrix(self):
        with pytest.raises(ShapeError):
            g_value(np.eye(2), HALF_OPEN)


class TestCandidatePick:
    """The maximizing candidate follows np.argmax: first max, NaN as the max."""

    @staticmethod
    def _scores(rng, n, k):
        # few distinct values, so that ties are common; then signed zeros and NaNs
        scores = rng.integers(-2, 3, size=(n, k)).astype(float)
        scores[rng.random((n, k)) < 0.15] = 0.0
        scores[rng.random((n, k)) < 0.15] = -0.0
        scores[rng.random((n, k)) < 0.1] = np.nan
        return scores

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_argmax(self, k):
        scores = self._scores(np.random.default_rng(k), 4000, k)
        expect = np.argmax(scores, axis=-1)
        pick = _first_max(scores)
        assert pick.dtype == expect.dtype
        assert np.array_equal(pick, expect)
        for special in ([-0.0, 0.0], [0.0, -0.0], [np.nan, 1.0], [1.0, np.nan],
                        [np.nan, np.nan], [-np.inf, -np.inf], [1.0, np.inf]):
            row = np.array([special])
            assert _first_max(row)[0] == np.argmax(row, axis=-1)[0], special

    def test_interval_set_scores(self):
        a = np.array([2.0, -2.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
        stacked, pick = _candidate_scores(a.reshape(-1, 1, 1), HALF_OPEN)
        assert np.array_equal(pick, np.argmax(stacked, axis=-1))
        assert pick.tolist() == [0, 1, 0, 0, 0, 0, 0]  # -inf ties: the upper endpoint
        value, maximizer = g_value_batch(np.array([[-3.0]]), HALF_OPEN)  # one matrix
        assert (value.shape, float(value), maximizer.tolist()) == ((), -0.75, [[0.5]])


class TestBestCandidate:
    """The policy's pick equals the index ``_candidate_scores`` gives."""

    @pytest.mark.parametrize("sigma_set", [
        HALF_OPEN, UncertaintySet.interval(0.7, 0.7), UncertaintySet.interval(0.5, 3.0),
    ], ids=["band", "degenerate", "wide"])
    def test_interval_pick_equals_candidate_scores(self, sigma_set):
        edges = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0]
        a = np.concatenate([edges, np.random.default_rng(4).normal(size=500)])
        mats = a.reshape(-1, 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _best_candidate(mats, sigma_set)
            ref = _candidate_scores(mats, sigma_set)[1]
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    def test_finite_pick_equals_candidate_scores(self):
        sigma_set = UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]],
                                           [[0.6, -0.2], [-0.2, 0.9]]])
        mats = np.random.default_rng(6).normal(size=(300, 2, 2))
        mats = mats + np.swapaxes(mats, 1, 2)
        mats[:3] = [[[np.nan, 0.0], [0.0, 1.0]], np.zeros((2, 2)), -np.zeros((2, 2))]
        assert np.array_equal(_best_candidate(mats, sigma_set),
                              _candidate_scores(mats, sigma_set)[1])


class TestPickProperties:
    """Seeded property test: every pick equals np.argmax of the scores it compares,
    ties, signed zeros, infinities and NaNs included.  The policy's certified
    table relies on the same first-max rule."""

    POOL = np.array([-1.0, 0.0, -0.0, 0.5, 2.0, np.inf, -np.inf, np.nan])

    def _scores(self, rng, n, k):
        scores = rng.choice(self.POOL, size=(n, k))
        scores[: n // 4, :] = scores[: n // 4, :1]  # every column tied
        if k > 1:
            rows = slice(n // 4, n // 2)
            scores[rows, -1] = scores[rows, -2]  # the last two tied
        return scores

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_first_max_and_first_of_two(self, k):
        for seed in range(5):
            scores = self._scores(np.random.default_rng([k, seed]), 3000, k)
            expect = np.argmax(scores, axis=-1)
            assert np.array_equal(_first_max(scores), expect)
            if k == 2:
                assert np.array_equal(_first_of_two(scores[:, 0], scores[:, 1]), expect)

    @pytest.mark.parametrize("sigma_set", [
        UncertaintySet.finite([[[1.0, 0.3], [0.3, 0.8]]]),
        UncertaintySet.interval(0.7, 0.7),
        UncertaintySet.interval(0.5, 2.0),
        UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]),
        UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]], [[0.6, -0.2], [-0.2, 0.9]]]),
    ], ids=["one", "degenerate", "band", "two", "three"])
    def test_best_candidate(self, sigma_set):
        d = sigma_set.dim
        cands = sigma_set.candidates()
        for seed in range(5):
            rng = np.random.default_rng([d, len(cands), seed])
            mats = rng.choice(self.POOL, size=(3000, d, d))
            mats = np.where(rng.random(mats.shape) < 0.5, mats, rng.normal(size=mats.shape))
            mats = np.triu(mats) + np.swapaxes(np.triu(mats, 1), 1, 2)  # symmetric
            mats[:300] = 0.0
            mats[300:600] = -0.0
            with np.errstate(invalid="ignore", over="ignore"):
                scores = np.stack([np.einsum("nij,ij->n", mats, q) for q in cands], axis=-1)
                got = _best_candidate(mats, sigma_set)
            assert np.array_equal(got, np.argmax(scores, axis=-1))

    @pytest.mark.parametrize("sigma_set", [
        UncertaintySet.finite([[[1.0, 0.3], [0.3, 0.8]]]),
        UncertaintySet.interval(0.7, 0.7),
        UncertaintySet.interval(0.5, 2.0),
        UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]),
        UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]], [[0.6, -0.2], [-0.2, 0.9]]]),
    ], ids=["one", "degenerate", "band", "two", "three"])
    def test_values_match_stacked_gather(self, sigma_set):
        """Two candidates are selected from their two scores, any other count from
        the stack; both equal the stacked scores gathered at np.argmax, byte for
        byte, exact ties (the first candidate wins), NaNs and signed zeros
        included, and so do g_value_batch's maximizers."""
        d = sigma_set.dim
        cands = sigma_set.candidates()
        rng = np.random.default_rng([7, d, len(cands)])
        mats = rng.choice(self.POOL, size=(3000, d, d))
        mats = np.where(rng.random(mats.shape) < 0.5, mats, rng.integers(-2, 3, mats.shape))
        mats = np.triu(mats) + np.swapaxes(np.triu(mats, 1), 1, 2)  # symmetric
        mats[:300] = 0.0
        mats[300:600] = -0.0
        with np.errstate(invalid="ignore", over="ignore"):
            stacked = np.stack([np.einsum("nij,ij->n", mats, q) for q in cands], axis=-1)
            values, pick = _g_values(mats, sigma_set)
            batch_values, maximizers = g_value_batch(mats, sigma_set)
        expect = np.argmax(stacked, axis=-1)
        want = 0.5 * np.take_along_axis(stacked, expect[:, None], axis=-1)[:, 0]
        assert np.array_equal(pick, expect) and pick.dtype == expect.dtype
        assert values.tobytes() == want.tobytes() == batch_values.tobytes()
        assert maximizers.tobytes() == np.stack(cands)[expect].tobytes()
        assert np.isnan(want).any() and (want[:600] == 0.0).all()
