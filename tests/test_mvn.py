import math

import numpy as np
import pytest
from conftest import bracket, closed_form, normal_density
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from trendcomp import mvn
from trendcomp.chains import _gauss_legendre
from trendcomp.contrasts import contrast_moments, dunnett_matrix
from trendcomp.mvn import (
    BACKEND,
    MAX_DIMENSION,
    CorrelationError,
    MvnSpec,
    TailProbability,
    adjust_maxt,
    adjusted_p_below,
    mvn_upper_orthant_complement,
)


def equicorr(m, rho):
    R = np.full((m, m), rho)
    np.fill_diagonal(R, 1.0)
    return MvnSpec(R)


def random_correlation(rng, m):
    A = rng.standard_normal((m, m + 2))
    S = A @ A.T
    d = np.sqrt(np.diag(S))
    return S / np.outer(d, d)


class TestMvnSpec:
    def test_dimension(self):
        assert equicorr(3, 0.5).dimension == 3

    def test_rejects_asymmetric(self):
        with pytest.raises(CorrelationError, match="symmetric"):
            MvnSpec([[1.0, 0.9], [0.1, 1.0]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(CorrelationError, match="diagonal"):
            MvnSpec([[2.0, 0.0], [0.0, 1.0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(CorrelationError):
            MvnSpec([[1.0, 1.5], [1.5, 1.0]])

    def test_rejects_indefinite(self):
        R = np.array(
            [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        )
        with pytest.raises(CorrelationError, match="positive semidefinite"):
            MvnSpec(R)

    def test_rejects_nonfinite(self):
        with pytest.raises(CorrelationError, match="finite"):
            MvnSpec([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(CorrelationError):
            MvnSpec(np.ones((2, 3)))

    def test_rejects_too_large(self):
        with pytest.raises(CorrelationError, match="exceeds"):
            equicorr(MAX_DIMENSION + 1, 0.0)

    def test_accepts_singular_psd(self):
        spec = MvnSpec(np.ones((3, 3)))
        assert spec.dimension == 3


class TestOrthantComplement:
    def test_dimension_one_is_exact(self):
        spec = MvnSpec([[1.0]])
        for b in (-2.0, 0.0, 1.3, 3.7):
            tail = mvn_upper_orthant_complement(spec, b)
            assert tail.value == pytest.approx(float(ndtr(-b)), abs=1e-12)
            assert tail.error == 0.0

    def test_independence_factorizes(self):
        spec = equicorr(4, 0.0)
        for b in (0.5, 1.5, 2.5):
            tail = mvn_upper_orthant_complement(spec, b, seed=11, abs_tol=2e-5)
            exact = 1.0 - float(ndtr(b)) ** 4
            assert tail.value == pytest.approx(exact, abs=6e-5)

    def test_bivariate_half_correlation_at_zero(self):
        # P(T1 < 0, T2 < 0) = 1/4 + asin(1/2)/(2 pi) = 1/3
        spec = equicorr(2, 0.5)
        tail = mvn_upper_orthant_complement(spec, 0.0, seed=5, abs_tol=2e-5)
        assert tail.value == pytest.approx(2.0 / 3.0, abs=6e-5)

    def test_trivariate_half_correlation_at_zero(self):
        # equicorrelated rho=1/2 orthant at 0 has mass 1/4, complement 3/4
        spec = equicorr(3, 0.5)
        tail = mvn_upper_orthant_complement(spec, 0.0, seed=5, abs_tol=2e-5)
        assert tail.value == pytest.approx(0.75, abs=6e-5)

    def test_perfect_correlation_collapses(self):
        spec = MvnSpec(np.ones((5, 5)))
        tail = mvn_upper_orthant_complement(spec, 1.7, seed=2, abs_tol=2e-5)
        assert tail.value == pytest.approx(float(ndtr(-1.7)), abs=1e-4)

    @pytest.mark.parametrize("seed", range(6))
    def test_far_tail_at_high_correlation(self, seed):
        # no first-stage lattice point reaches this tail of the whole orthant,
        # so only a rule that samples the tail itself gets it right
        R = np.array([[1.0, 0.9934], [0.9934, 1.0]])
        exact = 1.0 - multivariate_normal(mean=[0.0, 0.0], cov=R).cdf([3.71, 3.71])
        tail = mvn_upper_orthant_complement(MvnSpec(R), 3.71, seed=seed)
        assert exact == pytest.approx(1.22260e-4, abs=1e-9)
        assert abs(tail.value - exact) <= tail.error + 1e-7

    def test_deterministic_given_seed(self):
        spec = equicorr(3, 0.4)
        a = mvn_upper_orthant_complement(spec, 1.2, seed=99)
        b = mvn_upper_orthant_complement(spec, 1.2, seed=99)
        assert a.value == b.value
        assert a.points == b.points

    def test_cross_seed_agreement(self):
        spec = equicorr(4, 0.3)
        tails = [
            mvn_upper_orthant_complement(spec, 1.5, seed=s, abs_tol=2e-5)
            for s in range(4)
        ]
        vals = [t.value for t in tails]
        assert max(vals) - min(vals) < 2e-4

    def test_error_estimate_reported(self):
        tail = mvn_upper_orthant_complement(equicorr(3, 0.4), 1.0, seed=1)
        assert isinstance(tail, TailProbability)
        assert tail.error >= 0.0
        assert tail.points > 0
        assert float(tail) == tail.value

    def test_rejects_nonfinite_bound(self):
        with pytest.raises(ValueError, match="finite"):
            mvn_upper_orthant_complement(equicorr(2, 0.2), np.inf)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), bound=st.floats(0.0, 3.0))
def test_bonferroni_sandwich(seed, bound):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    spec = MvnSpec(random_correlation(rng, m))
    tail = mvn_upper_orthant_complement(spec, bound, seed=seed, abs_tol=5e-4)
    p1 = float(ndtr(-bound))
    assert p1 - 1e-12 <= tail.value <= min(1.0, m * p1) + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_antitone_in_bound(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    spec = MvnSpec(random_correlation(rng, m))
    bounds = np.sort(rng.uniform(-1.0, 3.0, size=3))
    tails = [
        mvn_upper_orthant_complement(spec, b, seed=0, abs_tol=2e-4).value
        for b in bounds
    ]
    # wider rectangle leaves less complement; allow integration slack
    assert tails[0] >= tails[1] - 1e-3
    assert tails[1] >= tails[2] - 1e-3


class TestSingularAgainstScipy:
    def test_duplicate_variable(self):
        # T2 == T3 exactly, so the 3-dim rectangle equals a 2-dim one
        from scipy.stats import multivariate_normal

        R = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 1.0], [0.3, 1.0, 1.0]])
        tail = mvn_upper_orthant_complement(MvnSpec(R), 1.0, seed=3, abs_tol=2e-5)
        exact = 1.0 - multivariate_normal(
            cov=[[1.0, 0.3], [0.3, 1.0]], allow_singular=True
        ).cdf([1.0, 1.0])
        assert tail.value == pytest.approx(float(exact), abs=3e-4)


class TestAdjustMaxt:
    def test_dimension_one_is_raw(self):
        p = adjust_maxt([1.5], MvnSpec([[1.0]]))
        np.testing.assert_allclose(p, ndtr(-1.5))

    def test_clamped_into_sandwich(self):
        rng = np.random.default_rng(0)
        spec = MvnSpec(random_correlation(rng, 4))
        t = np.array([0.3, 1.1, 2.2, 3.0])
        p = adjust_maxt(t, spec, seed=8)
        p_raw = ndtr(-t)
        assert np.all(p >= p_raw)
        assert np.all(p <= np.minimum(1.0, 4 * p_raw) + 1e-15)

    def test_equicorrelated_matches_orthant(self):
        spec = equicorr(3, 0.5)
        p = adjust_maxt([0.0, 0.0, 0.0], spec, seed=4, abs_tol=2e-5)
        np.testing.assert_allclose(p, 0.75, atol=2e-4)

    def test_a_seed_sequence_gives_the_same_p_every_call(self):
        # statistic q takes child q of the seed, derived without spawning,
        # so the caller's SeedSequence is left as it was
        spec = MvnSpec(random_correlation(np.random.default_rng(1), 4))
        t = np.array([0.3, 1.1, 2.2, 3.0])
        seed = np.random.SeedSequence(7)
        first = adjust_maxt(t, spec, seed=seed)
        assert adjust_maxt(t, spec, seed=seed).tobytes() == first.tobytes()
        assert adjust_maxt(t, spec, seed=7).tobytes() == first.tobytes()
        assert seed.n_children_spawned == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            adjust_maxt([1.0, 2.0], equicorr(3, 0.2))

    def test_nonfinite_statistic(self):
        with pytest.raises(ValueError, match="finite"):
            adjust_maxt([np.nan, 0.0], equicorr(2, 0.2))


class TestMaxtBounds:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bounds_bracket_qmc_on_any_correlation(self, seed):
        # no chain structure: random signs make about half the correlations negative
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        sign = rng.choice([-1.0, 1.0], size=m)
        R = random_correlation(rng, m) * np.outer(sign, sign)
        bound = rng.uniform(0.5, 3.5)
        (lower,), (upper,) = bracket([[bound]], R[None])
        tail = mvn_upper_orthant_complement(MvnSpec(R), bound, seed=seed, abs_tol=1e-6)
        slack = tail.error + 1e-6
        assert lower[0] - slack <= tail.value <= upper[0] + slack

    @pytest.mark.parametrize("m", [5, 8, 12])
    def test_a_set_brackets_each_bound_as_alone(self, m):
        # one bound's pair tails are laid out unlike those of a set, and their
        # sums add in one order, so a bracket does not depend on the set
        rng = np.random.default_rng(m)
        R = np.array([random_correlation(rng, m) for _ in range(16)])
        t = rng.uniform(0.5, 3.5, size=(16, 1))
        lower, upper = bracket(t, R)
        for r in range(16):
            alone = bracket(t[r : r + 1], R[r : r + 1])
            assert alone[0].tobytes() == lower[r : r + 1].tobytes()
            assert alone[1].tobytes() == upper[r : r + 1].tobytes()

    def test_opposite_rows_have_the_exact_tail(self):
        # rho = -1: T_2 = -T_1, so P(max >= t) is 2 Phi(-t) for t > 0 and 1 for t <= 0
        t = np.array([[-1.3, -0.2, 0.0, 0.4, 2.5]])
        R = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        p = closed_form(t, R)
        want = np.where(t > 0.0, 2.0 * ndtr(-t), 1.0)
        np.testing.assert_allclose(p, want, rtol=0, atol=1e-15)
        lower, upper = bracket(t, R)
        assert np.all(lower - 1e-15 <= p) and np.all(p <= upper + 1e-15)


def near_copy(rng, row, sign):
    """A unit row whose correlation with ``row`` is within 1e-4 of ``sign``."""
    w = np.cross(row, rng.standard_normal(3))
    w /= np.linalg.norm(w)
    rho = 1.0 - 1e-4 * rng.uniform(0.01, 1.0)
    return sign * rho * row + math.sqrt(1.0 - rho * rho) * w


class TestThreeRowClosedForm:
    """The exact tail of three rows, held to ``quad`` oracles and inside its bracket."""

    def test_random_correlations(self, three_row_quad):
        rng = np.random.default_rng(11)
        t = np.array([-1.1, 0.0, 1.3, 3.2])
        near = set()
        for case in range(16):
            V = rng.standard_normal((3, 3))
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            if case >= 8:  # rows 0 and 2 within 1e-4 of +-1
                V[2] = near_copy(rng, V[0], (-1.0) ** case)
            R = V @ V.T
            np.fill_diagonal(R, 1.0)
            order = rng.permutation(3)
            R = R[np.ix_(order, order)]
            near.update(np.sign(R[np.abs(R) > 1.0 - 1e-4]).tolist())
            p = closed_form(t[None], R[None])
            want = [three_row_quad(b, R) for b in t]
            np.testing.assert_allclose(p[0], want, rtol=0, atol=1e-12)
            # at t = 0: P(all T < 0) = 1/8 + (sum of asin rho) / (4 pi)
            orthant = 0.125 + np.arcsin(R[np.triu_indices(3, 1)]).sum() / (4.0 * math.pi)
            assert p[0, 1] == pytest.approx(1.0 - orthant, rel=0, abs=1e-15)
            lower, upper = bracket(t[None], R[None])
            assert np.all(lower - 1e-12 <= p) and np.all(p <= upper + 1e-12)
        assert near == {-1.0, 1.0}

    def test_three_rows_near_one_another(self, monkeypatch):
        # every correlation near +-1, so phi2 nearly blows up where the path
        # meets R: exact at t = 0 by the arcsine formula, and elsewhere
        # unmoved by eight times the nodes
        rng = np.random.default_rng(3)
        t = np.array([-1.1, 0.0, 1.3, 3.2])
        for case in range(8):
            V = rng.standard_normal((3, 3))
            V[0] /= np.linalg.norm(V[0])
            V[1] = near_copy(rng, V[0], (-1.0) ** case)
            V[2] = near_copy(rng, V[0], (-1.0) ** (case // 2))
            R = V @ V.T
            np.fill_diagonal(R, 1.0)
            rho = R[np.triu_indices(3, 1)]
            assert np.all(np.abs(rho) > 1.0 - 5e-4)
            p = closed_form(t[None], R[None])
            orthant = 0.125 + np.arcsin(rho).sum() / (4.0 * math.pi)
            assert p[0, 1] == pytest.approx(1.0 - orthant, rel=0, abs=1e-15)
            with monkeypatch.context() as patch:
                patch.setattr(mvn, "_gauss_legendre", lambda n: _gauss_legendre(8 * n))
                fine = closed_form(t[None], R[None])
            np.testing.assert_allclose(p, fine, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["duplicated", "negated"])
    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.0, 0.45, 0.9])
    def test_a_row_at_plus_or_minus_one(self, rho, sign):
        # T_3 = sign T_1: the tail of max(T_1, T_2), or one minus P(-t < T_1 < t, T_2 < t)
        R = np.array([[1.0, rho, sign], [rho, 1.0, sign * rho], [sign, sign * rho, 1.0]])
        t = np.array([-1.2, 0.0, 0.7, 2.5])
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            p = closed_form(t[None], R[np.ix_(order, order)][None])
            for b, got in zip(t, p[0]):
                start = -9.0 if sign > 0 else -b
                if b <= start:
                    want = 1.0
                else:
                    sd = math.sqrt(1.0 - rho * rho)
                    second = lambda z: normal_density(z) * ndtr((b - rho * z) / sd)
                    want = 1.0 - quad(second, start, b, epsabs=1e-13, epsrel=0.0, limit=200)[0]
                assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_a_table_gets_the_same_floats_in_any_batch(self):
        # the simulator decides a chunk of tables at once, and its counts may
        # not depend on the chunking
        rng = np.random.default_rng(8)
        R = np.array([random_correlation(rng, 3) for _ in range(40)])
        t = rng.uniform(-1.0, 4.0, size=(40, 3))
        whole = closed_form(t, R)
        single = [
            closed_form(t[i : i + 1, j : j + 1], R[i : i + 1])
            for i in range(40)
            for j in range(3)
        ]
        assert whole.tobytes() == np.reshape(single, whole.shape).tobytes()

    def test_64_nodes_hold_near_singular_families_to_512(self):
        # near det R = 0 the Plackett path meets R where its slope is
        # steepest; 64 nodes, the rule of every exact p, against 512 on the
        # family of det R = 6.4e-10 below, 1.4e-13 off, and on Dunnett
        # families whose control variance is 1e3 to 1e9 times a dose's
        rng = np.random.default_rng(13)
        rho = (0.99958813, 0.99926813, 0.99995402)
        R = [np.array([[1.0, rho[0], rho[1]], [rho[0], 1.0, rho[2]], [rho[1], rho[2], 1.0]])]
        C = dunnett_matrix((1,) * 4).coefficients
        for _ in range(300):
            var = np.exp(rng.uniform(-2.0, 2.0, size=4))
            var[0] *= 10.0 ** rng.uniform(3.0, 9.0)
            R.append(contrast_moments(C, np.zeros(4), var)[3])
        R = np.array(R)
        t = np.concatenate([[1.5321690764180145], rng.uniform(-1.0, 4.0, size=300)])[:, None]
        assert np.linalg.det(R).max() < 1e-2
        t, _, p_raw, rho, pair = mvn._pair_tails(t, R)
        np.testing.assert_allclose(
            mvn._triple_tail(t, rho, p_raw, pair),
            mvn._triple_tail(t, rho, p_raw, pair, 512),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("b", [-1.0, 0.0, 1.5])
    def test_three_copies_of_one_row(self, b):
        (p,) = closed_form([[b]], np.ones((1, 3, 3)))
        assert p[0] == pytest.approx(ndtr(-b), rel=0, abs=1e-15)


class TestAdjustedPBelow:
    @pytest.mark.parametrize("bound", [-0.5, 0.8, 1.7, 2.1, 3.5])
    def test_matches_threshold_of_adjust(self, bound):
        spec = equicorr(3, 0.5)
        want = bool(
            adjust_maxt([bound] * 3, spec, seed=21, abs_tol=2e-5)[0] < 0.05
        )
        got = adjusted_p_below(spec, bound, 0.05, seed=21, abs_tol=2e-5)
        assert got == want

    def test_shortcut_band_no_integration(self):
        # p_raw >= alpha decides immediately regardless of max_points
        spec = equicorr(5, 0.4)
        assert adjusted_p_below(spec, 0.0, 0.05, max_points=1) is False
        # Bonferroni bound below alpha decides immediately too
        assert adjusted_p_below(spec, 4.5, 0.05, max_points=1) is True


class TestBackends:
    def test_backend_is_selected(self):
        assert BACKEND == "python"
