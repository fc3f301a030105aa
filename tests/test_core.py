import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quermass.core import (
    DegenerateInputError,
    DomainError,
    MeanAccumulator,
    N_MAX,
    RngStream,
    gaussian_matrix,
    log_binom,
    omega,
    orthonormalize,
)


def test_omega_small_dims():
    assert omega(0) == 1.0
    assert omega(1) == pytest.approx(2.0, rel=1e-12)
    assert omega(2) == pytest.approx(math.pi, rel=1e-12)
    assert omega(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)


def test_omega_recurrence():
    # omega_{d+2} = 2 pi omega_d / (d + 2)
    for d in range(0, N_MAX - 1):
        assert omega(d + 2) == pytest.approx(omega(d) * 2 * math.pi / (d + 2),
                                             rel=1e-12)


def test_omega_domain():
    with pytest.raises(DomainError):
        omega(-1)
    with pytest.raises(DomainError):
        omega(N_MAX + 1)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_log_binom_symmetry(n, k):
    if k > n:
        with pytest.raises(DomainError):
            log_binom(n, k)
    else:
        assert log_binom(n, k) == pytest.approx(log_binom(n, n - k), abs=1e-10)
        assert math.exp(log_binom(n, 0)) == pytest.approx(1.0, rel=1e-12)


def test_log_binom_values():
    assert math.exp(log_binom(6, 2)) == pytest.approx(15.0, rel=1e-12)
    assert math.exp(log_binom(10, 5)) == pytest.approx(252.0, rel=1e-12)


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(2, 2, RngStream(7))
    b = gaussian_matrix(2, 2, RngStream(7))
    assert np.array_equal(a, b)
    c = gaussian_matrix(2, 2, RngStream(7, 1))
    assert not np.array_equal(a, c)


def test_gaussian_matrix_moments():
    g = gaussian_matrix(1000, 1000, RngStream(3))
    n = g.size
    assert abs(g.mean()) <= 4.0 / math.sqrt(n)
    assert abs(g.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)


def test_orthonormalize_examples():
    assert np.allclose(orthonormalize(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(orthonormalize(np.diag([2.0, 3.0])), np.eye(2), atol=1e-14)
    g = gaussian_matrix(4, 2, RngStream(11))
    q = orthonormalize(g)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_orthonormalize_idempotent_and_span(seed):
    g = gaussian_matrix(5, 3, RngStream(seed))
    q = orthonormalize(g)
    assert np.allclose(orthonormalize(q), q, atol=1e-12)
    # same column span: projectors agree
    pg = g @ np.linalg.pinv(g)
    pq = q @ q.T
    assert np.allclose(pg, pq, atol=1e-9)


def test_orthonormalize_degenerate():
    bad = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(DegenerateInputError):
        orthonormalize(bad)


def test_rng_split_deterministic_and_distinct():
    base = RngStream(42)
    assert base.split(3) == RngStream(42).split(3)
    children = {base.split(i).stream for i in range(100)}
    assert len(children) == 100
    named = base.split_named("offsets")
    assert named == RngStream(42).split_named("offsets")
    assert named != base.split_named("flats")


def test_mean_accumulator_matches_numpy():
    gen = RngStream(5).generator()
    values = gen.uniform(size=10_000)
    acc = MeanAccumulator()
    for chunk in np.array_split(values, 7):
        acc.add(chunk)
    assert acc.mean() == pytest.approx(values.mean(), rel=1e-12)
    expected_se = values.std(ddof=1) / math.sqrt(len(values))
    assert acc.std_error() == pytest.approx(expected_se, rel=1e-9)
