import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehsobs.analysis import (
    chattering_index,
    eig_bounds_sym2,
    lyapunov_matrices,
    norms,
    reach_time,
    reach_time_bound,
    rms,
)
from ehsobs.cells import check_gain_condition


def test_eig_bounds_against_numpy():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = rng.uniform(-10, 10, size=3)
        lo, hi = eig_bounds_sym2(a, b, c)
        ev = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
        assert lo == pytest.approx(ev[0], rel=1e-12, abs=1e-12)
        assert hi == pytest.approx(ev[1], rel=1e-12, abs=1e-12)


def test_quadratic_form_matrix():
    chk = lyapunov_matrices(L1=10.0, lambda1=1.0, lambda2=1.0)
    assert chk.P == ((6.0, -2.0), (-2.0, 1.0))
    assert chk.lambda_min_P * chk.lambda_max_P == pytest.approx(2.0, rel=1e-12)  # det
    assert chk.P_positive_definite


def test_decay_matrix_and_its_smallest_eigenvalue():
    chk = lyapunov_matrices(L1=10.0, lambda1=1.0, lambda2=1.0)
    assert chk.Omega == ((20.0, -3.0), (-3.0, 2.0))
    assert chk.lambda_min_Omega == pytest.approx(1.5132, rel=1e-3)
    assert chk.Omega_positive_definite


def test_reach_time_bound_formula():
    assert reach_time_bound(4.0, 2.0) == 2.0
    assert reach_time_bound(0.0, 2.0) == 0.0
    assert math.isinf(reach_time_bound(4.0, 0.0))


def test_lyapunov_gamma_folds_in_adaptation_rates():
    chk = lyapunov_matrices(L1=10.0, lambda1=1.0, lambda2=1.0,
                            alpha1=0.05, alpha2=9.0, V0=1.0)
    assert chk.gamma == 0.05
    assert chk.T_r_bound == pytest.approx(2.0 / 0.05)


def test_lyapunov_rejects_bad_ratios():
    with pytest.raises(ValueError):
        lyapunov_matrices(1.0, 0.0, 1.0)


def test_P_positive_definite_for_random_ratios():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        l1, l2 = rng.uniform(1e-2, 50.0, size=2)
        chk = lyapunov_matrices(L1=1.0, lambda1=l1, lambda2=l2)
        assert chk.lambda_min_P > 0.0


def test_Omega_positive_definite_when_condition_passes():
    # sampling region where the closed-form threshold is conservative
    rng = np.random.default_rng(12)
    for _ in range(1000):
        l1 = rng.uniform(1.0, 2.0)
        l2 = rng.uniform(0.5, 1.0)
        d1 = rng.uniform(0.0, 0.5)
        d2 = rng.uniform(0.0, 0.5)
        res = check_gain_condition(0.0, l1, l2, d1, d2)
        L1 = res.threshold * rng.uniform(1.05, 3.0)
        assert check_gain_condition(L1, l1, l2, d1, d2).ok
        chk = lyapunov_matrices(L1, l1, l2, d1, d2)
        assert chk.lambda_min_Omega > 0.0


# --- trace metrics -------------------------------------------------------------

def test_norms_zero_trace():
    t = np.linspace(0, 30, 3001)
    n = norms(t, np.zeros_like(t))
    assert n == (0.0, 0.0, 0.0)


def test_norms_constant_trace():
    t = np.linspace(0.0, 30.0, 30001)
    n = norms(t, np.full_like(t, 0.1))
    assert n.l1 == pytest.approx(3.0, rel=1e-12)
    assert n.l2 == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert n.linf == pytest.approx(0.1)


def test_norms_window_restricts_sup():
    t = np.linspace(0.0, 30.0, 30001)
    e = np.where(t < 5.0, 2.0, 0.5)
    n = norms(t, e, window=(10.0, 30.0))
    assert n.linf == 0.5


def test_norms_empty_window_raises():
    t = np.linspace(0.0, 5.0, 501)
    with pytest.raises(ValueError):
        norms(t, np.zeros_like(t), window=(10.0, 30.0))


def test_rms_constant():
    assert rms(np.full(100, -0.3)) == pytest.approx(0.3)


def test_chattering_constant_is_zero():
    t = np.linspace(0, 1, 101)
    assert chattering_index(t, np.full_like(t, 2.0)) == 0.0


def test_chattering_alternating():
    n, a = 1000, 0.25
    t = np.linspace(0.0, 1.0, n)
    e = a * (-1.0) ** np.arange(n)
    assert chattering_index(t, e) == pytest.approx(2 * a * (n - 1) / 1.0, rel=1e-12)


def test_chattering_monotone_ramp():
    t = np.linspace(0.0, 2.0, 500)
    e = np.linspace(0.0, 0.7, 500)
    assert chattering_index(t, e) == pytest.approx(0.7 / 2.0, rel=1e-9)


def test_metrics_invariant_under_time_translation():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 30.0, 3001)
    e = rng.normal(size=t.size)
    n0, n1 = norms(t, e), norms(t + 100.0, e, window=(110.0, 130.0))
    assert n0.l1 == pytest.approx(n1.l1)
    assert chattering_index(t, e) == pytest.approx(chattering_index(t + 100.0, e))


def test_reach_time_exponential_crossing():
    t = np.linspace(0.0, 5.0, 5001)
    sigma = np.exp(-t)
    rt = reach_time(t, sigma, 0.1, dwell=1)
    assert rt == pytest.approx(math.log(10.0), abs=2e-3)


def test_reach_time_zero_trace():
    t = np.linspace(0.0, 1.0, 101)
    assert reach_time(t, np.zeros_like(t), 0.1) == 0.0


def test_reach_time_unreached():
    t = np.linspace(0.0, 1.0, 101)
    assert reach_time(t, np.ones_like(t), 0.1) is None


def test_reach_time_dwell_requires_persistence():
    t = np.linspace(0.0, 1.0, 12)
    sigma = np.array([1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0.0])
    assert reach_time(t, sigma, 0.5, dwell=3) == pytest.approx(t[3])
    assert reach_time(t, sigma, 0.5, dwell=5) == pytest.approx(t[7])


def _reach_time_by_convolution(t, sigma, epsilon, dwell):
    """The reference: count each dwell-long window with a dwell-long kernel."""
    below = (np.abs(sigma) < epsilon).astype(int)
    if below.size < dwell:
        return None
    runs = np.convolve(below, np.ones(dwell, dtype=int), mode="valid")
    hits = np.nonzero(runs == dwell)[0]
    return None if hits.size == 0 else float(t[hits[0]])


@settings(max_examples=300)
@given(st.data())
def test_reach_time_equals_convolution(data):
    """In band (|sigma| < 1) is drawn as a bool pattern; +-0 sit in band, NaN and
    +-inf never do."""
    pattern = data.draw(st.lists(st.booleans(), max_size=300))
    dwell = data.draw(st.integers(1, len(pattern) + 2))
    inside = st.sampled_from([0.0, -0.0, 0.5, -0.999])
    outside = st.sampled_from([math.nan, 1.0, -1.0, math.inf, -math.inf, 3.0])
    sigma = np.array([data.draw(inside if b else outside) for b in pattern], dtype=float)
    t = np.arange(len(pattern)) * 1e-3
    assert reach_time(t, sigma, 1.0, dwell) == _reach_time_by_convolution(t, sigma, 1.0, dwell)
