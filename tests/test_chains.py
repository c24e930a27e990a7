import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from conftest import bracket, closed_form, normal_density
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import multivariate_normal

import trendcomp
from trendcomp import chains, closed_analysis, contrasts
from trendcomp.chains import chain_structure
from trendcomp.contrasts import (
    ContrastMatrix,
    contrast_moments,
    contrast_test,
    dunnett_matrix,
    williams_matrix,
)
from trendcomp.data import DoseGroupData
from trendcomp.model import BOUNDARY_POLICIES, ModelFit, _saturated_logit, fit_saturated_logit
from trendcomp.mvn import (
    MAX_DIMENSION,
    CorrelationError,
    MvnSpec,
    adjust_maxt,
    mvn_upper_orthant_complement,
)


def null_fit(var):
    """A fit whose group log odds are all equal, so every statistic is 0."""
    var = np.asarray(var, dtype=np.float64)
    flags = np.zeros(var.size, dtype=bool)
    return ModelFit(eta=np.zeros(var.size), var_eta=var, correction_applied=flags)


def random_table(rng, k):
    """Unbalanced group sizes; sometimes a group at 0 or n takes the haldane path."""
    n = rng.integers(5, 61, size=k + 1)
    y = rng.binomial(n, rng.uniform(0.05, 0.95, size=k + 1))
    if rng.random() < 0.5:
        g = int(rng.integers(0, k + 1))
        y[g] = 0 if rng.random() < 0.5 else n[g]
    if np.all(y == 0) or np.all(y == n):
        y[0] = n[0] // 2
    return DoseGroupData(labels=tuple(str(i) for i in range(k + 1)), n=n, y=y)


def stock_family(rng, fit, n, prefix_fit):
    """Dunnett, Williams or a closed-test segment family, with the fit it tests."""
    k = n.size - 1
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return fit, dunnett_matrix(n)
    if pick == 1 or k < 3:
        return fit, williams_matrix(n)
    j = int(rng.integers(2, k))
    return prefix_fit(fit, j + 1), williams_matrix(n[: j + 1])


def padded(cm, n_groups):
    """``cm`` with zero columns appended: a custom chain family on a larger design."""
    C = np.zeros((cm.n_rows, n_groups))
    C[:, : cm.n_groups] = cm.coefficients
    return ContrastMatrix(names=cm.names, coefficients=C)


def random_coefficients(rng):
    """A stock family, a segment on more groups, its rows shuffled or bent, or random signs."""
    k = int(rng.integers(1, 9))
    n = rng.integers(1, 60, size=k + 1)
    pick = int(rng.integers(0, 5))
    if pick == 0:
        return dunnett_matrix(n).coefficients.copy()
    if pick == 1:
        j = int(rng.integers(1, k + 1))
        return padded(williams_matrix(n[: j + 1]), k + 1).coefficients.copy()
    if pick in (2, 3):
        C = williams_matrix(n).coefficients[rng.permutation(k)]
        if pick == 3:  # no longer proportional, unless a row is one dose alone
            C[0, 1:] *= rng.uniform(0.9, 1.1, size=k)
        return C
    return random_signs(rng, (int(rng.integers(1, 5)), k + 1))


def random_signs(rng, shape):
    """Random coefficients of either sign, each row with a positive dose weight."""
    C = rng.choice([-1.0, 0.0, 0.5, 1.0], size=shape)
    C[np.arange(shape[0]), rng.integers(1, shape[1], size=shape[0])] = 1.0
    return C


def random_chain_family(rng):
    """A custom chain family: several chains, levels shared by rows, scaled rows.

    Some dose columns are in no chain; rows come in random order.
    """
    k = int(rng.integers(2, 9))
    doses = rng.permutation(k)[: int(rng.integers(1, k + 1))]
    cuts = rng.choice(np.arange(1, doses.size), int(rng.integers(0, doses.size)), replace=False)
    rows = []
    for part in np.split(doses, np.sort(cuts)):
        base = rng.uniform(0.2, 2.0, size=part.size)
        for size in set(rng.integers(1, part.size + 1, size=part.size).tolist()):
            for _ in range(int(rng.integers(1, 3))):
                w = np.zeros(k + 1)
                w[1 + part[:size]] = base[:size] * rng.uniform(0.3, 3.0)
                w[0] = -w.sum()
                rows.append(w)
    return np.array(rows)[rng.permutation(len(rows))]


def chain_bits(found):
    """Every field of the record, arrays as bytes; None stays None."""
    if found is None:
        return None
    return [
        v.tobytes() if isinstance(v, np.ndarray) else v
        for v in (getattr(found, f.name) for f in dataclasses.fields(found))
    ]


def one_table(cm, bounds, se, var):
    """``chain_maxt`` over the bounds of one table, whose ``se`` and ``var`` are one row each."""
    return chains.chain_maxt(cm.chains, bounds, se, var, np.zeros(len(bounds), dtype=np.intp))


@pytest.fixture
def no_qmc(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("QMC route taken")

    monkeypatch.setattr(contrasts, "adjust_maxt", refuse)


@pytest.fixture
def no_exact(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact route taken")

    monkeypatch.setattr(contrasts, "chain_maxt", refuse)


class TestChainStructure:
    def test_dunnett_is_one_level_chains(self):
        found = chain_structure(dunnett_matrix([10] * 5).coefficients)
        assert found.first == (0, 1, 2, 3, 4)
        assert found.level_rows.tolist() == [0, 1, 2, 3]

    def test_williams_is_one_chain(self):
        # levels from the smallest support up: dose 3 alone, then 2-3, then 1-3
        found = chain_structure(williams_matrix([12, 30, 25, 18]).coefficients)
        assert found.first == (0, 3)
        assert found.level_rows.tolist() == [0, 1, 2]
        assert (found.increments > 0.0).tolist() == [
            [False, False, True],
            [False, True, False],
            [True, False, False],
        ]

    def test_equal_supports_share_a_level(self):
        C = [[-1.0, 1.0, 0.0], [-2.0, 2.0, 0.0], [-1.0, 0.0, 1.0]]
        found = chain_structure(C)
        assert found.first == (0, 1, 2)
        assert found.level_rows.tolist() == [0, 2]
        np.testing.assert_array_equal(found.control, [1.0, 1.0])

    def test_increments_hold_the_squared_weights_each_level_adds(self):
        found = chain_structure(williams_matrix([12, 30, 25, 18]).coefficients)
        w = np.array([30.0, 25.0, 18.0]) / 73.0
        np.testing.assert_array_equal(
            found.increments,
            [[0.0, 0.0, w[2] ** 2], [0.0, w[1] ** 2, 0.0], [w[0] ** 2, 0.0, 0.0]],
        )

    def test_the_record_rebuilds_its_matrix(self):
        # the first row of each level column from the record alone: -control
        # in column 0, and scale times the chain's widest weights on the
        # level's support, the square roots of the increments up to the level;
        # every other row is a multiple of the first row of its level
        rng = np.random.default_rng(8)
        shared = several = rejected = controls = 0
        for _ in range(200):
            C = random_chain_family(rng)
            found = chain_structure(C)
            n_levels = found.first[-1]
            assert found.increments.shape[0] == len(found.level_rows) == n_levels
            weights = np.zeros((n_levels, C.shape[1] - 1))
            for f, e in zip(found.first, found.first[1:]):
                weights[f:e] = np.sqrt(np.cumsum(found.increments[f:e], axis=0))
            rebuilt = np.column_stack([-found.control, found.scale[:, None] * weights])
            np.testing.assert_allclose(rebuilt, C[found.level_rows], rtol=1e-12, atol=0)
            # each row's level column, found from its support
            same_support = ((C[:, None, 1:] != 0.0) == (weights[None] != 0.0)).all(axis=-1)
            col = np.argmax(same_support, axis=1)
            assert same_support[np.arange(len(C)), col].all()
            heads = [int(np.flatnonzero(col == lvl)[0]) for lvl in range(n_levels)]
            assert found.level_rows.tolist() == heads
            for r, head in enumerate(found.level_rows[col]):
                np.testing.assert_allclose(C[r], C[r, 0] / C[head, 0] * C[head], rtol=1e-12)
            shared += len(C) > n_levels
            several += len(found.first) > 2
            # a row of two or more doses bent off proportional to its chain's
            # widest row, the first row of the chain's top level column
            widest = found.level_rows[np.array(found.first[1:]) - 1]
            bend = [r for r in range(len(C)) if r not in widest and np.count_nonzero(C[r, 1:]) > 1]
            if bend:
                bent = C.copy()
                bent[bend[0], 1 + np.flatnonzero(C[bend[0], 1:])[0]] *= 1.5
                bent[bend[0], 0] = -bent[bend[0], 1:].sum()
                assert chain_structure(bent) is None
                rejected += 1
            # a row sharing a level, its control bent off proportional to the level's first row
            follow = [r for r, head in enumerate(found.level_rows[col]) if head != r]
            if follow:
                bent = C.copy()
                bent[follow[0], 0] *= 1.5
                assert chain_structure(bent) is None
                controls += 1
        assert min(shared, several, rejected, controls) >= 40

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_stock_records(self, k):
        n = np.arange(10.0, 10.0 + 3 * (k + 1), 3)
        found = chain_structure(dunnett_matrix(n).coefficients)
        assert found.first == tuple(range(k + 1))
        assert found.level_rows.tolist() == list(range(k))  # one row per level
        found = chain_structure(williams_matrix(n).coefficients)
        assert found.first == (0, k)
        assert found.level_rows.tolist() == list(range(k))
        top = np.cumsum(n[::-1])[:-1]  # N of the q highest doses, q = 1..k
        np.testing.assert_allclose(found.scale, n[1:].sum() / top, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "cm",
        [
            dunnett_matrix([10] * 5),
            williams_matrix([12, 30, 25, 18]),
            padded(williams_matrix([12, 30, 25]), 5),
        ],
        ids=["dunnett", "williams", "padded-segment"],
    )
    def test_matrix_carries_its_chains(self, cm):
        assert cm.chains == chain_structure(cm.coefficients)
        assert cm.chains is cm.chains  # found once, then kept

    def test_matrices_and_chains_compare_by_value(self):
        cm = williams_matrix([10, 10, 10])
        assert cm == williams_matrix([10, 10, 10])
        assert cm != williams_matrix([10, 10, 11])
        assert cm != dunnett_matrix([10, 10, 10])
        assert cm.chains == williams_matrix([10, 10, 10]).chains
        assert cm.chains != williams_matrix([10, 10, 11]).chains
        renamed = ContrastMatrix(names=("a", "b"), coefficients=cm.coefficients)
        assert renamed != cm

    def test_custom_family_carries_no_chains(self):
        C = [[-1.0, 0.5, 0.5, 0.0], [-1.0, 0.0, 0.5, 0.5]]  # overlap, not nested
        assert ContrastMatrix(names=("a", "b"), coefficients=C).chains is None

    @pytest.mark.parametrize(
        "C",
        [
            [[-1.0, 1.0, 0.0], [-0.5, -0.5, 1.0]],  # negative dose weight
            [[-1.0, 0.5, 0.5, 0.0], [-1.0, 0.0, 0.5, 0.5]],  # overlap, not nested
            [[-1.0, 0.0, 0.5, 0.5], [-1.0, 0.2, 0.2, 0.6]],  # nested, not proportional
        ],
    )
    def test_rejected(self, C):
        assert chain_structure(C) is None

    def test_a_cached_layout_gives_the_chains_of_fresh_discovery(self):
        # the layout comes from the signs alone: found on a sibling of other
        # magnitudes, beside a decoy of other signs, it must give every float
        # a cold discovery gives
        rng = np.random.default_rng(3)
        kinds = {True: 0, False: 0}
        for _ in range(300):
            C = random_coefficients(rng)
            chains._layout.cache_clear()
            fresh = chain_structure(C)
            chains._layout.cache_clear()
            chain_structure(random_signs(rng, C.shape))
            chain_structure(C * rng.uniform(0.5, 2.0, size=C.shape))
            hits = chains._layout.cache_info().hits
            warm = chain_structure(C)
            assert chains._layout.cache_info().hits == hits + 1
            assert chain_bits(warm) == chain_bits(fresh)
            kinds[fresh is None] += 1
        assert min(kinds.values()) >= 50


class TestOracles:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_balanced_dunnett_at_zero(self, k, no_qmc):
        # equicorrelation 1/2: P(all T < 0) = 1 / (k + 1)
        report = contrast_test(null_fit(np.full(k + 1, 0.3)), dunnett_matrix([40] * (k + 1)))
        np.testing.assert_allclose(report.correlation[0, 1], 0.5, atol=1e-12)
        np.testing.assert_allclose(report.p_adjusted, 1.0 - 1.0 / (k + 1), atol=1e-12)

    def test_two_row_chain_at_zero(self, no_qmc):
        # P(T1 < 0, T2 < 0) = 1/4 + asin(rho) / (2 pi)
        n = [20, 35, 50]
        report = contrast_test(null_fit([0.2, 0.3, 0.15]), williams_matrix(n))
        rho = report.correlation[0, 1]
        expected = 1.0 - (0.25 + math.asin(rho) / (2.0 * math.pi))
        np.testing.assert_allclose(report.p_adjusted, expected, atol=1e-12)

    def test_two_row_chain_in_the_far_tail(self, no_qmc):
        # a group at y = n drives rho to 0.993 and the adjusted p to 1.2e-4;
        # P(max >= b) = 2 P(T > b) - P(T_1 < -b, T_2 < -b)
        n = np.array([28, 15, 56, 9, 34, 15, 51])
        data = DoseGroupData(labels=tuple("0123456"), n=n, y=[9, 7, 56, 5, 22, 7, 45])
        report = contrast_test(fit_saturated_logit(data), padded(williams_matrix(n[:3]), 7))
        rho = report.correlation[0, 1]
        assert rho > 0.99
        for p, b in zip(report.p_adjusted, report.statistic):
            both = multivariate_normal.cdf(
                [-b, -b], mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]], abseps=1e-14, releps=1e-12
            )
            assert p == pytest.approx(2.0 * ndtr(-b) - both, rel=0, abs=1e-10)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_dunnett_is_the_integral_over_the_control(self, k):
        # given the control z, P(all T_i < b) = E_z prod_i Phi((b se_i + sd_0 z) / sd_i)
        rng = np.random.default_rng(k)
        var = rng.uniform(0.02, 0.6, size=k + 1)
        cm = dunnett_matrix([10] * (k + 1))
        _, se, _, _ = contrast_moments(cm.coefficients, np.zeros(k + 1), var)
        bounds = np.array([-0.5, 0.0, 1.1, 2.3, 3.4])
        sd = np.sqrt(var)
        for b, p in zip(bounds, one_table(cm, bounds, se[None], var[None])):
            doses = lambda z: normal_density(z) * np.prod(ndtr((b * se + sd[0] * z) / sd[1:]))
            below = quad(doses, -9.0, 9.0, epsabs=1e-13, epsrel=0.0, limit=200)[0]
            assert p == pytest.approx(1.0 - below, rel=0, abs=1e-12)

    def test_liarozole_high_precision(self, liarozole, no_qmc):
        fit = fit_saturated_logit(liarozole)
        np.testing.assert_allclose(
            contrast_test(fit, dunnett_matrix(liarozole.n)).p_adjusted,
            [0.1535203, 0.3623204, 0.0056458],
            atol=1e-7,
        )
        np.testing.assert_allclose(
            contrast_test(fit, williams_matrix(liarozole.n)).p_adjusted,
            [0.0039287, 0.0486674, 0.0555869],
            atol=1e-7,
        )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=78)  # rho 0.993, p 1.2e-4: far in the tail of the lattice rule
@example(seed=9742969)
def test_exact_matches_tight_qmc(seed, prefix_fit):
    rng = np.random.default_rng(seed)
    data = random_table(rng, int(rng.integers(1, 9)))
    fit, cm = stock_family(rng, fit_saturated_logit(data), data.n, prefix_fit)
    report = contrast_test(fit, cm)
    q = int(np.argmax(report.statistic))
    tail = mvn_upper_orthant_complement(
        MvnSpec(report.correlation), report.statistic[q], seed=seed, abs_tol=1e-6
    )
    assert abs(report.p_adjusted[q] - tail.value) <= tail.error + 1e-6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_second_order_bounds_bracket_the_exact_p(seed, prefix_fit):
    rng = np.random.default_rng(seed)
    data = random_table(rng, int(rng.integers(1, 9)))
    fit, cm = stock_family(rng, fit_saturated_logit(data), data.n, prefix_fit)
    _, se, t, R = contrast_moments(cm.coefficients, fit.eta, fit.var_eta)
    bounds = np.concatenate([t, rng.uniform(0.0, 4.5, size=4)])
    lower, upper = bracket(bounds[None], R[None])
    p = one_table(cm, bounds, se[None], fit.var_eta[None])
    assert np.all(lower[0] <= upper[0])
    assert np.all(lower[0] - 1e-9 <= p)
    assert np.all(p <= upper[0] + 1e-9)


@pytest.mark.parametrize("family", [dunnett_matrix, williams_matrix])
def test_two_row_bounds_are_the_bivariate_tail(family):
    rng = np.random.default_rng(5)
    n = rng.integers(5, 61, size=3)
    var = rng.uniform(0.02, 0.6, size=(4, 3))
    cm = family(n)
    _, _, _, R = contrast_moments(cm.coefficients, np.zeros(3), var)
    t = np.array([[-0.5, 0.0, 1.0, 1.9, 2.4, 3.3, 4.2]] * 4)
    p = closed_form(t, R)
    lower, upper = bracket(t, R)
    assert np.all(lower - 1e-12 <= p) and np.all(p <= upper + 1e-12)
    for r in range(4):
        for q, b in enumerate(t[r]):
            below = multivariate_normal.cdf(
                [b, b], mean=[0.0, 0.0], cov=R[r], abseps=1e-14, releps=1e-12
            )
            assert p[r, q] == pytest.approx(1.0 - below, rel=0, abs=1e-9)


@pytest.mark.parametrize(
    "n, y",
    [
        ((12, 40, 9), (3, 0, 9)),  # haldane groups at 0 and at n
        ((55, 6, 31), (20, 6, 0)),
        ((8, 47, 23), (0, 30, 11)),
        ((60, 5, 58), (30, 1, 29)),
        ((20, 58, 47), (17, 0, 20)),
        ((15, 47, 10), (0, 47, 8)),  # sigma_0 / sigma_1 = 0.12: level 1's density sets its rule
    ],
)
def test_two_row_williams_is_the_owens_t_tail(n, y, no_qmc):
    # the two-row closed form, Owen's T, against one walk of two levels
    fit = fit_saturated_logit(DoseGroupData(labels=("0", "1", "2"), n=n, y=y))
    cm = williams_matrix(n)
    _, se, t, R = contrast_moments(cm.coefficients, fit.eta, fit.var_eta)
    bounds = np.concatenate([t, [-0.5, 0.0, 0.7, 1.5, 2.2, 3.1, 4.4]])
    exact = closed_form(bounds[None], R[None])
    lower, upper = bracket(bounds[None], R[None])
    assert np.all(lower - 1e-12 <= exact) and np.all(exact <= upper + 1e-12)
    p = one_table(cm, bounds, se[None], fit.var_eta[None])
    np.testing.assert_allclose(p, exact[0], rtol=0, atol=1e-10)


def test_rows_sharing_a_level_out_of_proportion_have_no_chains():
    # Rows 0 and 1 share a level but not their control coefficients, which
    # only rows without zero sums can do; so each would bind for some
    # control values, and the level's threshold would have a kink in the
    # control value that the outer rule crosses slowly.  Such a family goes
    # to QMC, whose p holds to the oracle within its tolerance.
    C = np.array(
        [[-1.0, 1.0, 0.0, 0.0], [-0.3, 2.0, 0.0, 0.0], [-1.0, 0.0, 0.4, 0.6], [-0.5, 0.0, 0.0, 1.5]]
    )
    assert chain_structure(C) is None
    var = np.array([0.2, 0.35, 0.1, 0.25])
    _, _, _, R = contrast_moments(C, np.zeros(4), var)
    for b in (0.0, 1.0, 1.8, 2.5):
        p = mvn_upper_orthant_complement(MvnSpec(R), b, abs_tol=1e-6).value
        expected = multivariate_normal.cdf(np.full(4, b), mean=np.zeros(4), cov=R, abseps=1e-8)
        assert abs(p - (1.0 - expected)) <= 5e-6


def test_one_row_is_its_raw_normal_tail():
    # chain_maxt returns the bare tail, so one contrast integrates to Phi(-t)
    cm = dunnett_matrix([20, 30])
    var = np.array([[0.1, 0.2], [0.05, 0.6], [0.4, 0.01]])
    _, se, _, _ = contrast_moments(cm.coefficients, np.zeros((3, 2)), var)
    bounds = np.tile([-3.0, -1.0, 0.0, 0.7, 1.9, 3.2, 4.5, 6.0], 3)
    p = chains.chain_maxt(cm.chains, bounds, se, var, np.repeat(np.arange(3), 8))
    np.testing.assert_allclose(p, ndtr(-bounds), rtol=0, atol=2e-12)


@pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_two_level_walk_is_the_bivariate_normal(ratio):
    # thresholds in sds of their level: +inf, and -7.5 below the range cut
    sigma = 0.3 * np.array([ratio, 1.0])
    sd = np.sqrt(np.cumsum(sigma * sigma))
    cov = [[sd[0] ** 2, sd[0] ** 2], [sd[0] ** 2, sd[1] ** 2]]
    grid = [-7.5, -1.0, 0.0, 0.5, 3.0, np.inf]
    c = np.array([[a, b] for a in grid for b in grid]).T * sd[:, None]
    p = chains._table_walk(sigma, c)
    expected = [
        multivariate_normal.cdf(pair, mean=[0.0, 0.0], cov=cov, abseps=1e-15, releps=1e-13)
        for pair in c.T
    ]
    np.testing.assert_allclose(p, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("levels, finite", [(4, (1, 2)), (4, (0, 2)), (5, (1, 3)), (6, (2, 4))])
def test_walk_with_two_finite_levels_is_the_bivariate_normal(levels, finite, ratio, monkeypatch):
    # every other level's threshold is +inf, so the walk is the pair (W_i, W_j)
    sigma = 0.3 * np.sqrt(np.resize([1.0, ratio], levels))
    var = np.cumsum(sigma * sigma)
    i, j = finite
    grid = [-4.0, -1.5, 0.0, 0.8, 2.5, 6.0, np.inf]
    c = np.full((levels, len(grid) ** 2), np.inf)
    c[[i, j]] = np.array([[a, b] for a in grid for b in grid]).T * np.sqrt(var[[i, j]])[:, None]
    runs, caps = [], []
    chunks = chains._chunks

    def recorded(*args):
        caps.append(args[-1])
        for run in chunks(*args):
            runs.append(run.size)
            yield run

    monkeypatch.setattr(chains, "_chunks", recorded)
    p = chains._table_walk(sigma, c)
    # more runs than the size cap alone makes: some ended on the exponent bound
    assert len(runs) > math.ceil(c.shape[1] / caps[0])
    cov = [[var[i], var[i]], [var[i], var[j]]]
    expected = [
        multivariate_normal.cdf(pair, mean=[0.0, 0.0], cov=cov, abseps=1e-15, releps=1e-13)
        for pair in c[[i, j]].T
    ]
    np.testing.assert_allclose(p, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "ratio",
    [
        0.01,
        # thresholds (0, +inf, 0) in sds of their levels are off by 2.0e-9,
        # chunked or not: 1.7 nodes per sd of the closing CDF's increment are
        # too few on level 1's whole range, and a higher rate moves k <= 3
        # p-values, so it waits for a retune that may move them
        pytest.param(1.0, marks=pytest.mark.xfail(raises=AssertionError, strict=True)),
        100.0,
    ],
)
def test_three_level_walk_in_several_chunks_is_the_bivariate_normal(ratio, monkeypatch):
    # each entry leaves one level at +inf, so the walk is the pair (W_i, W_j);
    # a walk of three levels has no kernel, so only the size cap cuts chunks,
    # and at its least one table's entries take several
    sigma = 0.3 * np.sqrt(np.array([1.0, ratio, 1.0]))
    var = np.cumsum(sigma * sigma)
    grid = [-4.0, -1.5, 0.0, 0.8, 2.5, np.inf]
    entries = [((i, j), (a, b)) for i, j in [(0, 1), (0, 2), (1, 2)] for a in grid for b in grid]
    c = np.full((3, len(entries)), np.inf)
    for q, (pair, z) in enumerate(entries):
        c[pair, q] = np.array(z) * np.sqrt(var[list(pair)])
    runs = []
    chunks = chains._chunks

    def recorded(*args):
        for run in chunks(*args):
            runs.append(run.size)
            yield run

    monkeypatch.setattr(chains, "_KERNEL_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(chains, "_chunks", recorded)
    p = chains._table_walk(sigma, c)
    assert runs == [32, 32, 32, 12]
    expected = [
        multivariate_normal.cdf(
            c[[i, j], q], mean=[0.0, 0.0], cov=[[var[i], var[i]], [var[i], var[j]]],
            abseps=1e-15, releps=1e-13,
        )
        for q, ((i, j), _) in enumerate(entries)
    ]
    np.testing.assert_allclose(p, expected, rtol=0, atol=1e-10)


def test_ndtr_is_one_from_the_skip_constant_on():
    # a walk's normal CDF factors skip the columns whose every argument is at
    # least _NDTR_ONE, which leaves its p-values bitwise only while SciPy's
    # ndtr rounds to exactly 1.0 there
    grid = np.linspace(chains._NDTR_ONE, 40.0, 400_001)
    assert np.all(ndtr(grid) == 1.0)
    assert ndtr(np.inf) == 1.0


@pytest.mark.parametrize("n", [16, 24, 64, 256])
def test_gauss_legendre_rule_is_numpys(n):
    x, w = chains._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, 0.5 * (ref_x + 1.0), rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, 0.5 * ref_w, rtol=1e-10, atol=0)


def test_doubling_nodes_moves_no_p(monkeypatch, prefix_fit):
    rng = np.random.default_rng(11)
    tables = [random_table(rng, k) for k in (2, 5, 8)]
    # unequal sizes and a haldane group make the widest spread of kernel widths
    tables.append(
        DoseGroupData(
            labels=tuple("0123456"), n=[5, 20, 17, 14, 42, 53, 50], y=[1, 4, 8, 12, 24, 52, 38]
        )
    )
    families = []
    for data in tables:
        fit = fit_saturated_logit(data)
        k = data.k
        fams = [(fit, dunnett_matrix(data.n)), (fit, williams_matrix(data.n))]
        fams += [(prefix_fit(fit, j + 1), williams_matrix(data.n[: j + 1])) for j in range(2, k)]
        families += [(f, cm, contrast_test(f, cm).p_adjusted) for f, cm in fams]
    for name in ("_NODES_PER_SD", "_OUTER_NODES_PER_SD", "_DENSITY_NODES_PER_SD"):
        monkeypatch.setattr(chains, name, 2 * getattr(chains, name))
    for fit, cm, p in families:
        np.testing.assert_allclose(contrast_test(fit, cm).p_adjusted, p, rtol=0, atol=1e-9)


class TestTableAxis:
    """One call over many tables gives every table its own p-values, bit for bit."""

    @pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
    @pytest.mark.parametrize("pass_entries", [None, 64], ids=["default-passes", "a-pass-per-table"])
    def test_many_tables_are_single_tables(self, policy, pass_entries, monkeypatch):
        if pass_entries is not None:  # whole tables per pass, however small the pass
            monkeypatch.setattr(chains, "_PASS_ENTRIES", pass_entries)
        rng = np.random.default_rng(BOUNDARY_POLICIES.index(policy))
        for k in range(1, 7):
            n = rng.integers(5, 61, size=k + 1)
            y = rng.binomial(n, rng.uniform(0.05, 0.95, size=(6, k + 1)))
            edge = rng.random(6) < 0.5  # a group at 0 or n takes the boundary path
            group = rng.integers(0, k + 1, size=6)
            y[edge, group[edge]] = np.where(rng.random(edge.sum()) < 0.5, 0, n[group[edge]])
            eta, var, _, no_info, refused = _saturated_logit(y, n, policy)
            eta, var = eta[~(no_info | refused)], var[~(no_info | refused)]
            # at k >= 4 the Williams walks have four or more levels and use kernels
            families = [dunnett_matrix(n), williams_matrix(n)]
            families += [williams_matrix(n[:k])] if k >= 3 else []
            for cm in families:
                var_cm = var[:, : cm.n_groups]
                _, se, t, _ = contrast_moments(cm.coefficients, eta[:, : cm.n_groups], var_cm)
                # each table's statistics, other bounds and a repeat; tables in any order
                table, bounds = [], []
                for r in rng.permutation(len(t)):
                    b = [*t[r], *rng.uniform(-0.5, 4.5, size=2)]
                    b.append(b[int(rng.integers(0, len(b)))])
                    table += [r] * len(b)
                    bounds += b
                table, bounds = np.array(table), np.array(bounds)
                p = chains.chain_maxt(cm.chains, bounds, se, var_cm, table)
                for r in range(len(t)):
                    alone = one_table(cm, bounds[table == r], se[r : r + 1], var_cm[r : r + 1])
                    np.testing.assert_array_equal(p[table == r], alone)

    def test_tables_near_the_cap_are_single_tables(self):
        # near the node cap each table's walk entries take a large rule,
        # the node count of their widest range
        n = np.array([100000, 20, 100000, 100000])
        y = np.array(
            [[50000, 10, 50000, 50000], [50000, 8, 50500, 50900], [49000, 12, 50000, 51000]]
        )
        eta, var, *_ = _saturated_logit(y, n, "haldane")
        cm = williams_matrix(n)
        _, se, t, _ = contrast_moments(cm.coefficients, eta, var)
        table = np.repeat([2, 0, 1], t.shape[1])
        p = chains.chain_maxt(cm.chains, t[table, np.tile(range(3), 3)], se, var, table)
        for r in range(3):
            alone = one_table(cm, t[r], se[r : r + 1], var[r : r + 1])
            np.testing.assert_array_equal(p[table == r], alone)

    def test_a_large_call_is_cut_into_passes(self, monkeypatch):
        # at the default cap, 64 tables of six bounds take several passes;
        # a k=3 Williams family is one walk, integrated once per table
        rng = np.random.default_rng(64)
        n = rng.integers(20, 61, size=4)
        y = rng.binomial(n, rng.uniform(0.05, 0.6, size=(64, 4)))
        eta, var, *_ = _saturated_logit(y, n, "haldane")
        cm = williams_matrix(n)
        _, se, t, _ = contrast_moments(cm.coefficients, eta, var)
        stats = np.concatenate([t, rng.uniform(-0.5, 4.5, size=(64, 3))], axis=1)
        table = np.repeat(rng.permutation(64), 6)
        bounds = stats[table, np.tile(range(6), 64)]
        walks = []
        walk = chains._table_walk

        def recorded(sigma, c):
            walks.append(c.shape[1])
            return walk(sigma, c)

        monkeypatch.setattr(chains, "_table_walk", recorded)
        p = chains.chain_maxt(cm.chains, bounds, se, var, table)
        assert len(walks) == 64  # each table walked once, in the pass that holds it
        for r in range(64):
            alone = one_table(cm, bounds[table == r], se[r : r + 1], var[r : r + 1])
            np.testing.assert_array_equal(p[table == r], alone)


class TestWorkingSet:
    """One call's working set stays near one table's, however many tables it takes."""

    @pytest.mark.parametrize("family", [dunnett_matrix, williams_matrix])
    def test_512_tables_of_16_doses_peak_below_16_mb(self, family, monkeypatch):
        # cut into no passes, the same call peaks at 42 MB (Dunnett) and
        # 264 MB (Williams, with the stand-in below)
        if family is williams_matrix:
            # a 16-level walk costs 0.15 s a table; its arrays are bounded per
            # kernel chunk, so a stand-in keeps the call's own arrays under test
            monkeypatch.setattr(chains, "_table_walk", lambda sigma, c: np.full(c.shape[1], 0.5))
        rng = np.random.default_rng(16)
        n = np.full(17, 50)
        y = rng.binomial(n, rng.uniform(0.1, 0.5, size=(512, 17)))
        eta, var, *_ = _saturated_logit(y, n, "haldane")
        cm = family(n)
        _, se, t, _ = contrast_moments(cm.coefficients, eta, var)
        table = np.repeat(np.arange(512), 16)
        tracemalloc.start()
        try:
            p = chains.chain_maxt(cm.chains, t.ravel(), se, var, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert np.all((p >= 0.0) & (p <= 1.0))


def test_a_repeated_bound_gets_one_p():
    # a bound given twice is integrated once, even where the copies would
    # fall into different kernel-walk chunks with different node counts
    rng = np.random.default_rng(36)
    for _ in range(40):
        data = random_table(rng, int(rng.integers(4, 8)))
        fit = fit_saturated_logit(data)
        cm = williams_matrix(data.n)
        _, se, t, _ = contrast_moments(cm.coefficients, fit.eta, fit.var_eta)
        se, var = se[None], fit.var_eta[None]
        p = one_table(cm, [t.max(), t[0], t.max()], se, var)
        assert p[0] == p[2]
        np.testing.assert_array_equal(p[:2], one_table(cm, [t.max(), t[0]], se, var))
        table = np.array([1, 0, 1, 0, 1])
        many = chains.chain_maxt(
            cm.chains, [t.max(), t.max(), t[0], t[0], t.max()], np.concatenate([se, se]),
            np.concatenate([var, var]), table,
        )
        np.testing.assert_array_equal(many, p[[0, 0, 1, 1, 0]])


def test_rules_are_requested_by_python_int(monkeypatch):
    # lru_cache keys np.int64(n) apart from n, so such a request would
    # build and hold a second copy of the rule
    requested = set()
    rule = chains._gauss_legendre

    def recorded(n):
        requested.add(type(n))
        return rule(n)

    monkeypatch.setattr(chains, "_gauss_legendre", recorded)
    rng = np.random.default_rng(4)
    data = random_table(rng, 5)
    closed_analysis(data)
    fit = fit_saturated_logit(data)
    cm = williams_matrix(data.n)
    eta, var = np.stack([fit.eta, fit.eta[::-1]]), np.stack([fit.var_eta, fit.var_eta[::-1]])
    _, se, t, _ = contrast_moments(cm.coefficients, eta, var)
    chains.chain_maxt(cm.chains, t.ravel(), se, var, np.repeat([0, 1], t.shape[1]))
    assert requested == {int}


class TestNodeCap:
    """Very unequal group variances would need a rule far above the cap."""

    def test_unequal_table_raises_at_once(self):
        # four doses: a family of three rows takes its closed form, which needs no rule
        data = DoseGroupData(
            labels=tuple("01234"),
            n=[100000, 3, 100000, 100000, 100000],
            y=[50000, 1, 50000, 50000, 50000],
        )
        start = time.perf_counter()
        with pytest.raises(contrasts.ContrastError, match="7096 nodes, above the cap of 4096"):
            closed_analysis(data)
        assert time.perf_counter() - start < 1.0

    def test_huge_variance_raises_at_once(self):
        fit = null_fit([0.08, 0.08, 0.08, 0.08, 1.25e9])
        start = time.perf_counter()
        with pytest.raises(contrasts.ContrastError, match="cap of 4096"):
            contrast_test(fit, williams_matrix([10] * 5))
        assert time.perf_counter() - start < 1.0

    def test_the_same_table_at_three_doses_is_the_closed_form(self, three_row_quad):
        data = DoseGroupData(
            labels=tuple("0123"), n=[100000, 3, 100000, 100000], y=[50000, 1, 50000, 50000]
        )
        start = time.perf_counter()
        result = closed_analysis(data)
        assert time.perf_counter() - start < 1.0
        assert result.williams_report.correlation[1, 2] > 1.0 - 1e-5
        for report in (result.dunnett_report, result.williams_report):
            want = [three_row_quad(b, report.correlation) for b in report.statistic]
            np.testing.assert_allclose(report.p_adjusted, want, rtol=0, atol=1e-12)

    def test_one_error_class(self):
        assert chains.ContrastError is contrasts.ContrastError is trendcomp.ContrastError


class TestNearCap:
    """Tables whose variances take rules just below the node cap.

    Three rows take the closed form of ``mvn._inclusion_exclusion``, so the k=3
    tables build no rule and check that closed form; their p-values were
    recorded from the quadrature.  The k=4 table integrates Dunnett and
    Williams on a rule of 4096 nodes.
    """

    @pytest.mark.parametrize(
        "n, y, expected",
        [
            (
                [100000, 20, 100000, 100000],
                [50000, 10, 50000, 50000],
                (0.8317419165138393, [0.5837950506056483] * 2 + [0.583795050588496]),
            ),
            (
                [100000, 10, 100000, 100000],
                [50000, 5, 50000, 50000],
                (0.8322079848259847, [0.5836593483252195] * 3),
            ),
        ],
        ids=["n1=20", "n1=10"],
    )
    def test_analyzed_in_under_a_second(self, n, y, expected):
        dunnett, williams = expected
        start = time.perf_counter()
        result = closed_analysis(DoseGroupData(labels=tuple("0123"), n=n, y=y))
        assert time.perf_counter() - start < 1.0
        np.testing.assert_allclose(result.p_dunnett, [dunnett] * 3, rtol=0, atol=1e-8)
        np.testing.assert_allclose(result.p_williams_rows, williams, rtol=0, atol=1e-8)
        np.testing.assert_allclose(result.p_williams_global, williams[-1], rtol=0, atol=1e-8)
        np.testing.assert_allclose(result.p_ctp_pairwise, [0.5] * 3, rtol=0, atol=1e-8)
        np.testing.assert_allclose(result.p_ctp_williams, [williams[-1]] * 3, rtol=0, atol=1e-8)

    def test_four_doses_integrate_on_a_rule_near_the_cap(self, monkeypatch):
        built = []
        node_count = chains._node_count

        def recorded(nodes):
            built.append(node_count(nodes))
            return built[-1]

        monkeypatch.setattr(chains, "_node_count", recorded)
        n = np.array([100000, 20, 100000, 100000, 100000])
        start = time.perf_counter()
        result = closed_analysis(DoseGroupData(labels=tuple("01234"), n=n, y=n // 2))
        assert time.perf_counter() - start < 1.0
        assert max(built) > chains._LADDER_FROM
        for report in (result.dunnett_report, result.williams_report):
            lower, upper = bracket(report.statistic[None], report.correlation[None])
            assert np.all(lower[0] - 1e-9 <= report.p_adjusted)
            assert np.all(report.p_adjusted <= upper[0] + 1e-9)


class TestLargeK:
    """Long walks share one kernel matrix per chunk between levels."""

    def test_sixteen_doses_analyzed_in_under_a_second(self):
        y = [4, 4, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 10, 10]
        data = DoseGroupData(labels=tuple(str(i) for i in range(17)), n=[20] * 17, y=y)
        start = time.perf_counter()
        result = closed_analysis(data)
        assert time.perf_counter() - start < 1.0
        assert np.all(np.diff(result.p_ctp_williams) <= 0.0)


class TestRouteSelection:
    @pytest.mark.parametrize(
        "C",
        [
            [[-1, 1, 0, 0], [-0.5, -0.5, 0, 1], [-1, 0, 1, 0], [-1, 0, 0, 1]],
            [[-1, 0.5, 0.5, 0], [-1, 0, 0.5, 0.5], [-1, 0, 0, 1], [-1, 1, 0, 0]],
            [[-1, 0, 0.5, 0.5], [-1, 0.2, 0.2, 0.6], [-1, 0, 0, 1], [-1, 1, 0, 0]],
        ],
        ids=["negative-dose-weight", "overlap-not-nested", "nested-not-proportional"],
    )
    def test_custom_families_keep_qmc(self, C, liarozole, no_exact, monkeypatch):
        # four rows each: a family of three takes the closed form whatever its structure
        fit = fit_saturated_logit(liarozole)
        cm = ContrastMatrix(names=("a", "b", "c", "d"), coefficients=C)
        assert cm.chains is None
        _, _, t, R = contrast_moments(cm.coefficients, fit.eta, fit.var_eta)
        composed, formed = [], []
        maxt_p, correlation = contrasts._maxt_p, contrasts._correlation
        monkeypatch.setattr(contrasts, "_maxt_p", lambda *a: composed.append(a) or maxt_p(*a))
        monkeypatch.setattr(
            contrasts, "_correlation", lambda *a: formed.append(a) or correlation(*a)
        )
        report = contrast_test(fit, cm)
        np.testing.assert_array_equal(report.p_adjusted, adjust_maxt(t, MvnSpec(R)))
        assert composed == []  # the exact composer is not reached
        # one correlation serves MvnSpec and the report
        assert len(formed) == 1
        np.testing.assert_array_equal(report.correlation, R)

    def test_padded_segment_is_exact(self, liarozole, no_qmc):
        fit = fit_saturated_logit(liarozole)
        report = contrast_test(fit, padded(williams_matrix(liarozole.n[:3]), 4))
        np.testing.assert_allclose(report.p_adjusted, [0.2667725, 0.1529404], atol=1e-6)

    def test_single_dose_is_exact(self, no_qmc):
        fit = fit_saturated_logit(DoseGroupData(labels=("c", "d"), n=[40, 40], y=[5, 14]))
        report = contrast_test(fit, dunnett_matrix([40, 40]))
        np.testing.assert_array_equal(report.p_adjusted, report.p_raw)

    def test_selected_from_coefficients(self, liarozole, no_qmc):
        fit = fit_saturated_logit(liarozole)
        stock = williams_matrix(liarozole.n)
        rebuilt = ContrastMatrix(names=stock.names, coefficients=stock.coefficients.tolist())
        np.testing.assert_array_equal(
            contrast_test(fit, rebuilt).p_adjusted, contrast_test(fit, stock).p_adjusted
        )

    def test_correlation_validated_on_exact_route(self, no_qmc):
        k = MAX_DIMENSION + 1
        with pytest.raises(CorrelationError, match="exceeds"):
            contrast_test(null_fit(np.full(k + 1, 0.3)), dunnett_matrix([10] * (k + 1)))

    def test_correlation_validated_on_qmc_route(self, no_exact):
        k = MAX_DIMENSION + 1
        C = np.zeros((k, k + 1))
        for i in range(k):
            C[i, 0] = -0.5
            C[i, i + 1] = 1.0
            C[i, (i + 1) % k + 1] = -0.5
        cm = ContrastMatrix(names=tuple(map(str, range(k))), coefficients=C)
        with pytest.raises(CorrelationError, match="exceeds"):
            contrast_test(null_fit(np.full(k + 1, 0.3)), cm)
