import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablemech import (
    BracketError,
    CutoffVector,
    NonUniqueRootError,
    grid_scan_argmax,
    heterogeneous_cutoff_scan,
    multi_cutoff_eu,
    optimal_single_cutoff,
    phi,
    prob_decision,
    single_cutoff_eu,
    symmetry_in_perturbation,
)
from tablemech.analytic import _SCAN_CHUNK, _gauss_legendre

# independent closed forms, derived by hand from the uniform model:
#   n=2: EU(c) = 1/2 + c(1-c)/4, maximized at c = 1/2 with value 9/16
#   n=3: stationarity 3c^2 + 2c - 2 = 0, so c* = (sqrt(7) - 1) / 3
ROOT3 = (math.sqrt(7.0) - 1.0) / 3.0


def subset_probs(cuts):
    """Brute-force decision probabilities by enumerating on-table subsets."""
    n = len(cuts) + 1
    probs = np.zeros(n)
    for bits in itertools.product([0, 1], repeat=n - 1):
        weight = 1.0
        members = [n - 1]
        for i, b in enumerate(bits):
            weight *= (1.0 - cuts[i]) if b else cuts[i]
            if b:
                members.append(i)
        for m in members:
            probs[m] += weight / len(members)
    return probs


def subset_eu(cuts):
    """Brute-force EU: on-table profit means weighted by decision probs."""
    means = [(1.0 + c) / 2.0 for c in cuts] + [0.5]
    return float(np.dot(subset_probs(cuts), means))


def test_phi_endpoints():
    for n in (2, 3, 7, 40):
        assert phi(n, 0.0) == pytest.approx(n - 1.0)
        assert phi(n, 1.0) == 0.0  # structural zero, not the optimum


def test_phi_is_scaled_eu_derivative():
    # phi(n, c) == 2 n (1-c)^2 * d/dc EU(c); central differences confirm
    h = 1e-7
    for n in (2, 3, 5, 10):
        for c in (0.1, 0.3, 0.6, 0.9):
            d = (single_cutoff_eu(n, c + h) - single_cutoff_eu(n, c - h)) / (2 * h)
            assert phi(n, c) == pytest.approx(2 * n * (1 - c) ** 2 * d, abs=5e-6)


def test_single_cutoff_eu_matches_hand_integration_n2():
    for c in np.linspace(0.0, 1.0, 21):
        assert single_cutoff_eu(2, c) == pytest.approx(0.5 + c * (1 - c) / 4, abs=1e-15)


def test_single_cutoff_eu_vectorized_and_continuous_at_one():
    cs = np.array([0.0, 0.3, 1.0 - 1e-9, 1.0 - 1e-13, 1.0])
    out = single_cutoff_eu(5, cs)
    assert out.shape == cs.shape
    assert out[-1] == pytest.approx(0.5)
    assert abs(out[-2] - 0.5) < 1e-9  # expm1 branch, no blowup at the pole
    for c, v in zip(cs, out):
        assert v == pytest.approx(float(single_cutoff_eu(5, float(c))), abs=1e-15)


def test_optimal_cutoff_n2_closed_form():
    res = optimal_single_cutoff(2)
    assert abs(res.cutoff - 0.5) <= 1e-9
    assert abs(res.expected_utility - 0.5625) <= 1e-12
    assert abs(res.residual) <= 1e-10


def test_optimal_cutoff_n3_closed_form():
    res = optimal_single_cutoff(3)
    assert abs(res.cutoff - ROOT3) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 5, 10, 50, 100])
def test_optimal_cutoff_first_order_condition(n):
    # stationarity in an independent form: sum_{j=1..n} j c^{j-1} = n
    res = optimal_single_cutoff(n)
    c = res.cutoff
    assert abs(sum((j + 1) * c**j for j in range(n)) - n) <= 1e-8
    assert abs(res.residual) <= 1e-10
    # reported value agrees with both EU expressions at the optimum
    assert res.expected_utility == pytest.approx(
        0.5 + 0.5 * c * (c - c**n), abs=1e-12
    )
    assert res.expected_utility == pytest.approx(single_cutoff_eu(n, c), abs=1e-12)
    # and is a local max
    eps = 1e-5
    assert single_cutoff_eu(n, c) >= single_cutoff_eu(n, c - eps) - 1e-12
    assert single_cutoff_eu(n, c) >= single_cutoff_eu(n, c + eps) - 1e-12


def test_optimal_cutoff_tolerance_honored():
    fine = optimal_single_cutoff(7, tol=1e-12)
    coarse = optimal_single_cutoff(7, tol=1e-5)
    assert abs(fine.cutoff - coarse.cutoff) <= 1e-5


def test_optimal_cutoff_rejects_single_project():
    with pytest.raises(ValueError):
        optimal_single_cutoff(1)


def test_cutoff_grows_like_one_minus_inverse_sqrt_n():
    for n in (10**4, 10**6):
        c = optimal_single_cutoff(n).cutoff
        assert math.sqrt(n) * (1 - c) == pytest.approx(1.0, abs=1e-6)


def test_error_types_exist():
    assert issubclass(BracketError, RuntimeError)
    assert issubclass(NonUniqueRootError, RuntimeError)


def test_grid_scan_matches_root():
    assert grid_scan_argmax(2, 3) == 0.5
    assert abs(grid_scan_argmax(2, 10_000) - 0.5) <= 1e-4
    m = 10_000
    assert abs(grid_scan_argmax(5, m) - optimal_single_cutoff(5).cutoff) <= 2.0 / m
    with pytest.raises(ValueError):
        grid_scan_argmax(2, 1)


def test_prob_decision_against_subset_enumeration():
    cases = [[0.5], [0.9, 0.1], [0.6, 0.3], [0.25, 0.5, 0.75], [0.0, 1.0, 0.4]]
    for cuts in cases:
        got = prob_decision(CutoffVector(cuts))
        assert got == pytest.approx(subset_probs(cuts), abs=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
    assert prob_decision(CutoffVector([0.5])) == pytest.approx([0.25, 0.75])


def test_multi_cutoff_eu_against_subset_enumeration():
    cases = [[0.5], [0.9, 0.1], [0.6, 0.3], [0.25, 0.5, 0.75], [0.7, 0.7, 0.7, 0.7]]
    for cuts in cases:
        assert multi_cutoff_eu(CutoffVector(cuts)) == pytest.approx(
            subset_eu(cuts), abs=1e-12
        )
    assert multi_cutoff_eu(CutoffVector([0.9, 0.1])) == pytest.approx(0.5375)
    assert multi_cutoff_eu(CutoffVector([0.6, 0.3])) == pytest.approx(0.5915)


def test_multi_cutoff_eu_reduces_to_single_formula():
    for n in (2, 4, 7):
        for c in (0.0, 0.33, 0.5, 0.91, 1.0):
            assert multi_cutoff_eu(CutoffVector.single(n, c)) == pytest.approx(
                float(single_cutoff_eu(n, c)), abs=1e-12
            )


@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_prob_decision_is_a_distribution(cuts):
    p = prob_decision(CutoffVector(cuts))
    assert np.all(p >= -1e-15) and np.all(p <= 1 + 1e-15)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    eu = multi_cutoff_eu(CutoffVector(cuts))
    assert 0.5 - 1e-12 <= eu <= 1.0  # screening never hurts the principal


def test_symmetry_in_perturbation_spec_positions():
    lhs, rhs = symmetry_in_perturbation(4, 0.3, 0.3, 1, 3)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    with pytest.raises(ValueError):
        symmetry_in_perturbation(4, 0.3, 0.3, 1, 1)
    with pytest.raises(ValueError):
        symmetry_in_perturbation(4, 0.3, 0.3, 0, 2)
    with pytest.raises(ValueError):
        symmetry_in_perturbation(4, 0.3, 0.3, 1, 4)
    with pytest.raises(ValueError):
        symmetry_in_perturbation(4, 0.9, 0.2, 1, 2)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_symmetry_in_perturbation_random(data):
    n = data.draw(st.integers(3, 7))
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(1, n - 1).filter(lambda x: x != i))
    base = data.draw(st.floats(0.05, 0.95))
    t = data.draw(st.floats(0.0, min(base, 1.0 - base)))
    lhs, rhs = symmetry_in_perturbation(n, base, t, i, j)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_prob_decision_stable_at_n200():
    # large-n conditioning check: the normalized recurrence vs an exact
    # rational evaluation (polynomial product for the elementary symmetric
    # values, explicit binomials), on dyadic cutoffs so the floats are exact
    from fractions import Fraction

    rng = np.random.default_rng(200)
    m = 199  # 200 projects
    cuts = rng.integers(0, 65, size=m) / 64.0

    coeffs = [Fraction(1)]
    for c in cuts:
        fc = Fraction(c)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, a in enumerate(coeffs):
            nxt[j] += a
            nxt[j + 1] += a * fc
        coeffs = nxt

    exact_default = sum(
        coeffs[j] / math.comb(m, j) for j in range(m + 1)
    ) / (m + 1)
    got = prob_decision(CutoffVector(cuts))
    assert got[-1] == pytest.approx(float(exact_default), abs=1e-13)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(got >= 0)


def test_heterogeneous_scan_never_beats_common_cutoff():
    for n in (2, 3):
        best, cuts = heterogeneous_cutoff_scan(n, 21)
        opt = optimal_single_cutoff(n)
        assert best <= opt.expected_utility + 1e-12
        assert np.allclose(cuts, cuts[0])  # lattice argmax is symmetric
        # and the scan is a genuine lattice max: beats the snapped optimum
        snapped = round(opt.cutoff * 20) / 20
        assert best >= multi_cutoff_eu(CutoffVector.single(n, snapped)) - 1e-12


# --- the quadrature kernel against the recurrence it replaced -------------


def normalized_esp(cuts):
    """e_j(row)/C(m, j) for j=0..m and each row of cuts, by the recurrence
    e_j <- e_j (t-j)/t + c_t e_{j-1} j/t, which stays in [0, 1]."""
    rows, m = cuts.shape
    e = np.zeros((rows, m + 1))
    e[:, 0] = 1.0
    for t in range(1, m + 1):
        j = np.arange(1, t + 1)
        keep = e[:, 1 : t + 1] * (t - j) / t
        e[:, 1 : t + 1] = keep + cuts[:, t - 1 : t] * e[:, :t] * j / t
    return e


def recurrence_probs(cuts):
    """P(default) is the mean of the normalized symmetric polynomials;
    P(i) is (1 - c_i) times that mean with c_i zeroed out."""
    cuts = np.asarray(cuts, dtype=float)
    m = len(cuts)
    rows = np.tile(cuts, (m + 1, 1))
    rows[np.arange(m), np.arange(m)] = 0.0  # row i drops c_i; the last keeps all
    means = normalized_esp(rows).mean(axis=1)
    return np.append((1.0 - cuts) * means[:m], means[m])


def oracle_cases(n, rng):
    m = n - 1
    yield rng.uniform(0.0, 1.0, m)
    yield rng.integers(0, 65, size=m) / 64.0  # dyadic: exact in binary
    yield rng.choice([0.0, 1.0], size=m)
    yield np.where(rng.random(m) < 0.5, rng.choice([0.0, 1.0], size=m), rng.random(m))


def test_prob_decision_matches_recurrence_oracle():
    rng = np.random.default_rng(2024)
    assert np.array_equal(prob_decision(CutoffVector([])), [1.0])
    for n in list(range(1, 41)) + [60, 100, 150, 200]:
        for cuts in oracle_cases(n, rng):
            got = prob_decision(CutoffVector(cuts))
            want = recurrence_probs(cuts)
            assert np.max(np.abs(got - want)) <= 1e-14, (n, cuts)


def test_gauss_legendre_rule_is_exact_on_monomials():
    for q in list(range(1, 41)) + [64, 100, 128, 200, 256, 333, 500]:
        u, w = _gauss_legendre(q)
        assert u.shape == w.shape == (q,)
        assert np.all((u > 0) & (u < 1) & (w > 0))
        j = np.arange(2 * q)
        got = ((1.0 - u)[None, :] ** j[:, None] * w).sum(axis=1)
        exact = 1.0 / (j + 1)
        assert np.max(np.abs(got - exact)) <= 2e-15, q
        assert np.max(np.abs(got / exact - 1.0)) <= 1e-12, q


def test_multi_cutoff_eu_matches_single_formula_to_rounding():
    cs = [0.0, 0.05, 0.2375, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999, 1.0 - 2**-30, 1.0]
    for n in range(2, 201):
        for c in cs:
            got = multi_cutoff_eu(CutoffVector.single(n, c))
            assert abs(got - single_cutoff_eu(n, c)) <= 2e-14, (n, c)
    for c in cs:
        got = multi_cutoff_eu(CutoffVector.single(1000, c))
        assert abs(got - single_cutoff_eu(1000, c)) <= 1e-13, c


def test_single_cutoff_eu_exact_near_one():
    # exact rational values at dyadic cutoffs approaching the removable
    # singularity at c = 1, where a direct quotient cancels
    from fractions import Fraction

    for n in (2, 3, 7, 50):
        for k in range(1, 45):
            c = Fraction(2**k - 1, 2**k)
            g = (1 - c**n) / (n * (1 - c))
            exact = Fraction(1, 2) + c / 2 * (1 - g)
            assert abs(single_cutoff_eu(n, float(c)) - float(exact)) <= 2.3e-16, (n, k)


@pytest.mark.parametrize(
    "n,m", [(2, 2), (2, 21), (3, 2), (3, 13), (3, 21), (4, 5), (4, 21)]
)
def test_heterogeneous_scan_matches_per_vector_loop(n, m):
    grid = np.linspace(0.0, 1.0, m)
    best, best_cuts = -math.inf, None
    for cuts in itertools.product(grid, repeat=n - 1):  # lattice order
        eu = multi_cutoff_eu(CutoffVector(cuts))
        if eu > best:
            best, best_cuts = eu, np.array(cuts)
    got, got_cuts = heterogeneous_cutoff_scan(n, m)
    assert got == best
    assert np.array_equal(got_cuts, best_cuts)
    if (n, m) == (4, 21):
        assert m ** (n - 1) > 2 * _SCAN_CHUNK  # spans three chunks
