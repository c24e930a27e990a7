import warnings

import numpy as np
import pytest
from conftest import bracket, closed_form
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from trendcomp import contrasts, mvn
from trendcomp.contrasts import (
    ContrastError,
    ContrastMatrix,
    contrast_moments,
    contrast_test,
    dunnett_matrix,
    williams_matrix,
)
from trendcomp.model import ModelFit, fit_saturated_logit


class TestDunnettMatrix:
    def test_shape_and_names(self):
        cm = dunnett_matrix([50, 50, 50, 50])
        assert cm.names == ("D1-C", "D2-C", "D3-C")
        expected = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(cm.coefficients, expected)

    def test_needs_a_dose_group(self):
        with pytest.raises(ContrastError):
            dunnett_matrix([50])

    def test_balanced_correlation_is_half(self):
        # equal n and equal variances give the classic rho = 1/2
        var = np.full(4, 0.3)
        cm = dunnett_matrix([50] * 4)
        _, _, _, R = contrast_moments(cm.coefficients, np.zeros(4), var)
        off = R[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.5, atol=1e-12)


class TestWilliamsMatrix:
    def test_names_highest_dose_first(self):
        cm = williams_matrix([50, 50, 50, 50])
        assert cm.names == ("D3-C", "D2:3-C", "D1:3-C")

    def test_balanced_weights(self):
        cm = williams_matrix([10, 10, 10, 10])
        expected = np.array(
            [
                [-1.0, 0.0, 0.0, 1.0],
                [-1.0, 0.0, 0.5, 0.5],
                [-1.0, 1 / 3, 1 / 3, 1 / 3],
            ]
        )
        np.testing.assert_allclose(cm.coefficients, expected, atol=1e-12)

    def test_size_weighted_pooling(self):
        cm = williams_matrix([34, 35, 36, 34])
        np.testing.assert_allclose(cm.coefficients[1, 2:], [36 / 70, 34 / 70])
        np.testing.assert_allclose(
            cm.coefficients[2, 1:], [35 / 105, 36 / 105, 34 / 105]
        )

    def test_rows_sum_to_zero(self):
        cm = williams_matrix([13, 27, 41, 8, 19])
        np.testing.assert_allclose(cm.coefficients.sum(axis=1), 0.0, atol=1e-12)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ContrastError, match="positive"):
            williams_matrix([50, 0, 50])

    @pytest.mark.parametrize("n", [[50, np.inf, 50], [50, np.nan, 50]])
    def test_rejects_sizes_that_are_not_finite(self, n):
        with pytest.raises(ContrastError, match="finite"):
            williams_matrix(n)


class TestContrastMatrixValidation:
    def test_rows_must_sum_to_zero(self):
        with pytest.raises(ContrastError, match="sum to"):
            ContrastMatrix(names=("a",), coefficients=[[1.0, 1.0]])

    def test_rows_need_both_signs(self):
        with pytest.raises(ContrastError, match="positive and one negative"):
            ContrastMatrix(names=("a",), coefficients=[[0.0, 0.0]])
        C = [[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ContrastError, match="contrast 'b' needs"):  # the first bad row
            ContrastMatrix(names=("a", "b", "c"), coefficients=C)

    def test_name_count_must_match(self):
        with pytest.raises(ContrastError, match="names"):
            ContrastMatrix(names=("a", "b"), coefficients=[[-1.0, 1.0]])

    def test_coefficients_must_be_finite(self):
        with pytest.raises(ContrastError, match="finite"):
            ContrastMatrix(names=("a",), coefficients=[[-np.inf, np.inf]])

    def test_coefficients_frozen(self):
        cm = dunnett_matrix([10, 10])
        with pytest.raises(ValueError):
            cm.coefficients[0, 0] = 5.0


class TestContrastMoments:
    def test_against_monte_carlo(self):
        # simulate the implied multivariate law directly and compare moments
        rng = np.random.default_rng(42)
        var = np.array([0.5, 0.2, 0.3, 0.12])
        eta = np.array([-2.0, -1.5, -1.0, -0.5])
        cm = williams_matrix([34, 35, 36, 34])
        est, se, t, R = contrast_moments(cm.coefficients, eta, var)
        draws = eta + rng.standard_normal((100_000, 4)) * np.sqrt(var)
        sims = draws @ cm.coefficients.T
        np.testing.assert_allclose(sims.mean(axis=0), est, atol=0.01)
        np.testing.assert_allclose(sims.std(axis=0), se, atol=0.01)
        np.testing.assert_allclose(np.corrcoef(sims.T), R, atol=0.01)

    def test_zero_variance_row_rejected(self):
        cm = dunnett_matrix([10, 10])
        with pytest.raises(ContrastError, match="zero variance"):
            contrast_moments(cm.coefficients, np.zeros(2), np.zeros(2))

    def test_a_table_gets_the_same_floats_in_any_batch(self):
        # _maxt_p forms the correlation of only the tables it leaves open, so
        # a table's moments may not depend on the tables batched with it
        rng = np.random.default_rng(8)
        for k in range(1, 9):
            n, eta, var = random_tables(rng, k, 64)
            for family in (dunnett_matrix(n), williams_matrix(n)):
                whole = contrast_moments(family.coefficients, eta, var)
                for rows in (rng.choice(64, size=5), slice(3, 4), 7):
                    part = contrast_moments(family.coefficients, eta[rows], var[rows])
                    for a, b in zip(whole, part):
                        assert a[rows].tobytes() == b.tobytes()
                    R = contrasts._correlation(family.coefficients, var[rows], whole[1][rows])
                    assert R.tobytes() == whole[3][rows].tobytes()

    def test_correlation_formula_liarozole(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        cm = dunnett_matrix(liarozole.n)
        _, _, t, R = contrast_moments(cm.coefficients, fit.eta, fit.var_eta)
        np.testing.assert_allclose(
            t, [1.39874694, 0.76897775, 2.83154794], atol=1e-8
        )
        np.testing.assert_allclose(
            [R[0, 1], R[0, 2], R[1, 2]],
            [0.68867332, 0.7665524, 0.72778678],
            atol=1e-8,
        )


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 10_000),
)
def test_correlation_invariant_under_common_variance_scaling(scale, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    n = rng.integers(5, 80, size=k + 1)
    eta = rng.normal(size=k + 1)
    var = rng.uniform(0.05, 2.0, size=k + 1)
    cm = williams_matrix(n)
    est1, se1, t1, R1 = contrast_moments(cm.coefficients, eta, var)
    est2, se2, t2, R2 = contrast_moments(cm.coefficients, eta, var * scale)
    np.testing.assert_allclose(R2, R1, atol=1e-10)
    np.testing.assert_allclose(est2, est1, atol=1e-10)
    np.testing.assert_allclose(se2, se1 * np.sqrt(scale), rtol=1e-9)


class TestContrastTest:
    def test_report_fields_consistent(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        report = contrast_test(fit, williams_matrix(liarozole.n))
        assert report.p_raw.shape == (3,)
        assert np.all(report.p_adjusted >= report.p_raw - 1e-15)
        assert np.all(report.p_adjusted <= 1.0)
        assert report.min_adjusted == report.p_adjusted.min()
        np.testing.assert_allclose(
            report.estimate, [2.29301564, 1.47022615, 1.37916822], atol=1e-8
        )
        np.testing.assert_allclose(
            report.std_err, [0.80980993, 0.79688113, 0.77441573], atol=1e-8
        )

    def test_dimension_mismatch(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        with pytest.raises(ContrastError, match="columns"):
            contrast_test(fit, dunnett_matrix([10, 10]))

    def test_deterministic_for_fixed_seed(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        a = contrast_test(fit, dunnett_matrix(liarozole.n))
        b = contrast_test(fit, dunnett_matrix(liarozole.n))
        np.testing.assert_array_equal(a.p_adjusted, b.p_adjusted)


@pytest.mark.parametrize(
    "cm, var, rho",
    [
        (williams_matrix([10, 30, 5]), [0.3, 0.02, 0.5], 0.7285),
        (dunnett_matrix([10, 10, 10]), [1e6, 1e-3, 1e-3], 1.0),
        (
            ContrastMatrix(names=("a", "b"), coefficients=[[-1, 1, 0], [1, 0, -1]]),
            [1e6, 1e-3, 1e-3],
            -1.0,
        ),
        (williams_matrix([10, 10, 10]), [0.08, 0.08, 1.25e9], 1.0),
    ],
    ids=["williams", "rho-near-1", "rho-near-minus-1", "beyond-the-node-cap"],
)
def test_two_rows_are_the_bivariate_normal_tail(cm, var, rho, monkeypatch):
    # P(max >= b) = 2 P(T > b) - P(T_1 < -b, T_2 < -b), with no quadrature and no warning
    for name in ("chain_maxt", "adjust_maxt"):
        monkeypatch.setattr(contrasts, name, None)
    var = np.array(var)
    _, se, _, R = contrast_moments(cm.coefficients, np.zeros(3), var)
    bounds = np.array([-3.0, -1.0, 0.0, 0.4, 1.0, 1.9, 2.7, 3.5, 4.4, 5.5, 6.5, 9.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((p,),) = contrasts._maxt_p([(cm, bounds[None], se[None], var[None])])
        eta = np.array([0.0, 0.9, -0.4]) * np.sqrt(var)
        report = contrast_test(ModelFit(eta, var, np.zeros(3, dtype=bool)), cm)
    both = [
        multivariate_normal.cdf(
            [-b, -b], mean=[0.0, 0.0], cov=R, abseps=1e-14, releps=1e-14, allow_singular=True
        )
        for b in bounds
    ]
    np.testing.assert_allclose(p, 2.0 * ndtr(-bounds) - both, rtol=0, atol=1e-13)
    args = report.statistic, report.std_err, var
    np.testing.assert_array_equal(
        report.p_adjusted, contrasts._maxt_p([(cm, *(a[None] for a in args))])[0][0]
    )
    assert R[0, 1] == pytest.approx(rho, abs=1e-4)
    assert "chains" not in vars(cm)  # the route never looked at them


@pytest.mark.parametrize(
    "tail, end",
    [
        (lambda p_raw: p_raw - 1e-9, lambda p_raw: p_raw),  # inside _MARGIN of the sandwich
        (lambda p_raw: 4.0 * p_raw + 1e-9, lambda p_raw: np.minimum(1.0, 4.0 * p_raw)),
    ],
    ids=["below-p-raw", "above-bonferroni"],
)
def test_maxt_p_clips_a_bare_tail_into_the_sandwich(tail, end, monkeypatch):
    # chain_maxt returns bare tails; _maxt_p alone clips every route's value
    cm = dunnett_matrix([20] * 5)
    var = np.array([0.1, 0.2, 0.15, 0.3, 0.25])
    _, se, _, _ = contrast_moments(cm.coefficients, np.zeros(5), var)
    bounds = np.array([[0.4, 1.0, 1.6, 2.9]])  # 4 Phi(-0.4) > 1
    monkeypatch.setattr(contrasts, "chain_maxt", lambda chains, t, *args: tail(ndtr(-t)))
    (p,) = contrasts._maxt_p([(cm, bounds, se[None], var[None])])
    np.testing.assert_array_equal(p, end(ndtr(-bounds)))


def random_tables(rng, k, count):
    """Log-odds and their variances of ``count`` random 2 x (k + 1) tables, one per row."""
    n = rng.integers(5, 61, size=k + 1)
    y = rng.binomial(n, rng.uniform(0.02, 0.9, size=(count, k + 1))) + 0.5
    return n, np.log(y / (n + 1.0 - y)), 1.0 / y + 1.0 / (n + 1.0 - y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_window_changes_no_p_that_may_lie_in_it(seed):
    # one bound per table, as the closure asks: a p that may lie in [lo, hi]
    # is bitwise the windowless p, and one outside is reported on its side
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    n, eta, var = random_tables(rng, k, 6)
    alpha = float(rng.choice([0.01, 0.05, 0.1]))
    for family in (dunnett_matrix(n), williams_matrix(n)):
        _, se, t, _ = contrast_moments(family.coefficients, eta, var)
        bounds = np.take_along_axis(t, rng.integers(0, k, size=(6, 1)), axis=1)
        (exact,) = contrasts._maxt_p([(family, bounds, se, var)])
        running = np.minimum(exact * rng.uniform(0.3, 3.0, size=exact.shape), 0.999)
        for lo, hi in [(alpha, alpha), (running, np.inf), (-np.inf, np.inf)]:
            routes = np.zeros(3, dtype=np.int64)
            (got,) = contrasts._maxt_p([(family, bounds, se, var)], lo, hi, routes)
            inside = (got >= lo) & (got <= hi)
            assert got[inside].tobytes() == exact[inside].tobytes()
            np.testing.assert_array_equal(got < lo, exact < lo)
            np.testing.assert_array_equal(got > hi, exact > hi)
            assert routes.sum() == bounds.size
        # the whole family at alpha, as the simulator asks
        (decided,) = contrasts._maxt_p([(family, t, se, var)], alpha, alpha)
        (windowless,) = contrasts._maxt_p([(family, t, se, var)])
        np.testing.assert_array_equal(decided < alpha, windowless < alpha)


@pytest.mark.parametrize("seed", range(4))
def test_a_window_moves_a_table_s_other_open_bounds_by_under_1e_12(seed):
    # every row at once: chain_maxt sizes a table's outer rule and walk chunks
    # from the bounds the window leaves open, so at k >= 4 an open p may move
    # in its last bits, never by 1e-12, and no p crosses lo
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4, 7))
    n, eta, var = random_tables(rng, k, 6)
    for family in (dunnett_matrix(n), williams_matrix(n)):
        _, se, t, _ = contrast_moments(family.coefficients, eta, var)
        (exact,) = contrasts._maxt_p([(family, t, se, var)])
        lo = float(np.median(exact))
        (got,) = contrasts._maxt_p([(family, t, se, var)], lo, np.inf)
        inside = got >= lo
        np.testing.assert_allclose(got[inside], exact[inside], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(inside, exact >= lo)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_call_without_tables_returns_no_p_and_counts_no_route(k):
    n, eta, var = random_tables(np.random.default_rng(k), k, 0)
    family = williams_matrix(n)
    _, se, t, _ = contrast_moments(family.coefficients, eta, var)
    routes = np.zeros(3, dtype=np.int64)
    (p,) = contrasts._maxt_p([(family, t, se, var)], 0.05, 0.05, routes)
    assert p.shape == (0, k) and routes.tolist() == [0, 0, 0]


def mixed_families(rng, tables):
    """Families of two, three (two of them) and five (two of them) rows over shared random tables.

    Each family reads the first groups of the tables; the two five-row
    families share one set of open bounds, as Dunnett and Williams do in
    ``_procedures`` at k >= 4.  Every family is tested at all its
    statistics or, as the closure asks, at each table's largest, at random.
    """
    n, eta, var = random_tables(rng, 5, tables)
    out = []
    for family in (
        williams_matrix(n[:3]),
        dunnett_matrix(n[:4]),
        williams_matrix(n[:4]),
        williams_matrix(n),
        dunnett_matrix(n),
    ):
        g = family.n_groups
        _, se, t, _ = contrast_moments(family.coefficients, eta[:, :g], var[:, :g])
        if rng.random() < 0.5:
            t = t.max(axis=1, keepdims=True)
        out.append((family, t, se, var[:, :g]))
    return out


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_one_call_over_several_families_is_one_call_per_family(seed):
    # bitwise the same p arrays and route counts, in either order of the
    # families, as a call on each family alone with the same window
    rng = np.random.default_rng(seed)
    alpha = float(rng.choice([0.01, 0.05, 0.2]))
    kind = rng.integers(3)
    if kind < 2:
        families = mixed_families(rng, 3)
        lo, hi = [(-np.inf, np.inf), (alpha, alpha)][kind]
    else:
        # an array window, as a closure's running maximum or a level per
        # table: every family at each table's largest statistic
        families = [
            (f[0], f[1].max(axis=1, keepdims=True), *f[2:]) for f in mixed_families(rng, 8)
        ]
        lo = 10.0 ** rng.uniform(-3.0, -0.5, size=(8, 1))
        hi = [np.inf, lo][rng.integers(2)]
    for order in (families, families[::-1]):
        routes = np.zeros(3, dtype=np.int64)
        joint = contrasts._maxt_p(order, lo, hi, routes)
        alone_routes = np.zeros(3, dtype=np.int64)
        alone = [contrasts._maxt_p([family], lo, hi, alone_routes)[0] for family in order]
        for a, b in zip(joint, alone):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert routes.tolist() == alone_routes.tolist()
        assert routes.sum() == sum(family[1].size for family in order)


@pytest.mark.parametrize(
    "name, outside, route",
    [("chain_maxt", lambda chains, t, *args: np.full(t.shape, 2.0), "quadrature")],
    ids=["quadrature"],
)
def test_a_tail_outside_its_bracket_names_its_own_route(name, outside, route, monkeypatch):
    # two chain families of four rows share one set of open bounds; whichever
    # family comes last, the error names the faulty route
    monkeypatch.setattr(contrasts, name, outside)
    n, eta, var = random_tables(np.random.default_rng(6), 4, 3)
    families = []
    for family in (williams_matrix(n), dunnett_matrix(n)):
        _, se, t, _ = contrast_moments(family.coefficients, eta, var)
        families.append((family, t.max(axis=1, keepdims=True), se, var))
    assert all(family[0].chains is not None for family in families)
    for order in (families, families[::-1]):
        # [0, 1] leaves every bound open, so each one is evaluated and checked
        with pytest.raises(ContrastError, match=f"^{route} p-value ") as error:
            contrasts._maxt_p(order, 0.0, 1.0)
        # plain floats, not their NumPy reprs
        assert "np.float64" not in str(error.value)


@pytest.mark.parametrize("windowed", [False, True])
def test_pair_tails_run_once_per_row_count(windowed, monkeypatch):
    # the bracket and the closed form of every family of a row count read one
    # set of pair tails, and three rows take one Plackett integral unless the
    # bracket settled every bound of the set: on 64 nodes without a window;
    # under [alpha, alpha] on the coarse rule, then a second, on 64 nodes, of
    # just the bounds whose coarse value lies within its margin of alpha
    calls = {"_pair_tails": [], "_inclusion_exclusion": []}
    for name, rows in calls.items():
        fn = getattr(contrasts, name)
        monkeypatch.setattr(
            contrasts, name, lambda *a, fn=fn, rows=rows: rows.append((a, fn(*a))) or rows[-1][1]
        )
    brackets = []
    bracket = contrasts._bracket
    monkeypatch.setattr(
        contrasts, "_bracket", lambda m, *a: brackets.append((m, *bracket(m, *a))) or brackets[-1][1:]
    )
    plackett = []  # the nodes and bound count of each Plackett integral
    triple_tail = mvn._triple_tail
    monkeypatch.setattr(
        mvn, "_triple_tail", lambda t, *a: plackett.append((a[-1], t.size)) or triple_tail(t, *a)
    )
    rng = np.random.default_rng(4)
    families = mixed_families(rng, 40) + mixed_families(rng, 40)[:4]
    window = (0.05, 0.05) if windowed else ()
    contrasts._maxt_p(families, *window)
    rows = [a[1].shape[-1] for a, _ in calls["_pair_tails"]]
    assert len(rows) == len(set(rows))
    # the chain families of five rows take pair tails for the bracket only
    assert set(rows) == ({2, 3, 5} if windowed else {2, 3})
    assert sorted(m for m, *_ in brackets) == ([3, 5] if windowed else [])
    margin = contrasts._MARGIN
    settled = {
        m
        for m, lower, upper in brackets
        if not np.any((upper >= 0.05 - margin) & (lower <= 0.05 + margin))
    }
    closed = [m for m in (2, 3) if m not in settled]
    first = {}  # the first closed-form call of each row count: its bounds and values
    for (m, *_), q in calls["_inclusion_exclusion"]:
        first.setdefault(m, q[:, 0])
    assert sorted(first) == closed
    if 3 not in closed:
        assert plackett == []
    elif windowed:
        q, coarse = first[3], contrasts._COARSE_MARGIN
        near = int(np.sum((q + coarse >= 0.05) & (q - coarse < 0.05)))
        assert plackett == [(contrasts._COARSE_NODES, q.size)] + [(64, near)] * (near > 0)
    else:
        assert plackett == [(64, first[3].size)]
    assert len(calls["_inclusion_exclusion"]) == len(closed) + (len(plackett) == 2)


def test_a_coarse_value_within_its_margin_leaves_the_decision_to_64_nodes(monkeypatch):
    # every coarse Plackett value is put on the wrong side of alpha, but
    # within its margin of it, so it settles nothing: the 64-node pass takes
    # every bound the coarse pass saw, and decides each as without a window
    rng = np.random.default_rng(9)
    families = [f for f in mixed_families(rng, 300) if f[0].n_rows == 3]
    exact = contrasts._maxt_p(families)
    routes = np.zeros(3, dtype=np.int64)
    contrasts._maxt_p(families, 0.05, 0.05, routes)
    passes = []  # the nodes and bound count of each closed form of three rows
    closed_form = contrasts._inclusion_exclusion

    def wrong(m, t, p_raw, rho, pair, nodes=64):
        q = closed_form(m, t, p_raw, rho, pair, nodes)
        passes.append((nodes, t.size))
        if nodes == 64:
            return q
        return 0.05 + 0.5 * contrasts._COARSE_MARGIN * np.sign(0.05 - q)

    monkeypatch.setattr(contrasts, "_inclusion_exclusion", wrong)
    forced = np.zeros(3, dtype=np.int64)
    decided = contrasts._maxt_p(families, 0.05, 0.05, forced)
    (coarse, open_bounds), fine = passes
    assert coarse == contrasts._COARSE_NODES and fine == (64, open_bounds) and open_bounds > 0
    assert forced.tolist() == routes.tolist()
    for p, q in zip(decided, exact):
        np.testing.assert_array_equal(p < 0.05, q < 0.05)


@pytest.mark.parametrize("window", ["none", "running", "alpha"])
def test_a_window_without_an_upper_end_takes_one_64_node_pass(window, monkeypatch):
    # the coarse pass runs only under a finite upper end: without a window,
    # and under [lo, inf) as the analysis closure asks, the open three-row
    # bounds take one Plackett integral, on 64 nodes
    rng = np.random.default_rng(12)
    families = [
        (family, t.max(axis=1, keepdims=True), se, var)
        for family, t, se, var in mixed_families(rng, 60)
        if family.n_rows == 3
    ]
    exact = contrasts._maxt_p(families)
    lo = {"none": -np.inf, "running": exact[0] * rng.uniform(0.3, 3.0, size=(60, 1)), "alpha": 0.05}
    plackett = []
    triple_tail = mvn._triple_tail
    monkeypatch.setattr(
        mvn, "_triple_tail", lambda t, *a: plackett.append(a[-1]) or triple_tail(t, *a)
    )
    got = contrasts._maxt_p(families, lo[window], np.inf)
    assert plackett == [64]
    for p, q in zip(got, exact):
        kept = q >= lo[window]
        assert p[kept].tobytes() == q[kept].tobytes()


def test_a_set_the_bracket_settles_whole_takes_no_closed_form(monkeypatch):
    # three-row bounds that the sandwich leaves open and the bracket settles
    # every one of take no closed form, so no Plackett integral either
    n, eta, var = random_tables(np.random.default_rng(5), 3, 200)
    family = dunnett_matrix(n)
    _, se, t, R = contrast_moments(family.coefficients, eta, var)
    lower, upper = bracket(t, R)
    p_raw, margin = ndtr(-t), contrasts._MARGIN
    sandwich = (3.0 * p_raw < 0.05) | (p_raw >= 0.05)
    bracketed = ~sandwich & ((upper < 0.05 - margin) | (lower > 0.05 + margin))
    tables = (sandwich | bracketed).all(axis=1) & bracketed.any(axis=1)
    monkeypatch.setattr(contrasts, "_inclusion_exclusion", lambda *a: pytest.fail("closed form"))
    routes = np.zeros(3, dtype=np.int64)
    (p,) = contrasts._maxt_p([(family, t[tables], se[tables], var[tables])], 0.05, 0.05, routes)
    assert routes.tolist() == [sandwich[tables].sum(), bracketed[tables].sum(), 0]
    np.testing.assert_array_equal(p < 0.05, closed_form(t[tables], R[tables]) < 0.05)
