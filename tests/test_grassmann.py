import math

import numpy as np
import pytest
from scipy import stats

from quermass import bodies as bd
from quermass import grassmann as gr
from quermass import verify as vf
from quermass.core import RngStream, gaussian_matrix, orthonormalize


def test_haar_subspace_orthonormal(rng):
    for i in range(20):
        sub = gr.haar_subspace(5, 2, rng.split(i))
        assert np.allclose(sub.basis.T @ sub.basis, np.eye(2), atol=1e-12)


def test_haar_subspace_deterministic():
    a = gr.haar_subspace(4, 2, RngStream(9))
    b = gr.haar_subspace(4, 2, RngStream(9))
    assert np.array_equal(a.basis, b.basis)


def test_haar_subspace_param_validation():
    with pytest.raises(gr.GrassmannError):
        gr.haar_subspace(3, 0, RngStream(1))
    with pytest.raises(gr.GrassmannError):
        gr.haar_subspace(3, 3, RngStream(1))


def _skewed(err):
    """e_1, e_2 of R^3 with an inner product of err between them."""
    basis = np.eye(3)[:, :2]
    basis[0, 1] = err
    return basis


def test_one_basis_validator():
    # one tolerance for every entry point that takes a raw basis: a
    # 5e-10 orthonormality error passes, 2e-9 does not, on or off the
    # diagonal, and a 1-d array is a ValueError rather than an IndexError
    near = _skewed(5e-10)
    assert gr.subspace_from_basis(near).k == 2
    cube = bd.box(np.zeros(3), np.full(3, 0.5), bd.Flags(symmetric=True))
    assert bd.volume(bd.project(cube, near)) == pytest.approx(1.0)
    rep = vf.lemma_rs_check(cube, 0, flat=near, samples=4, rng=RngStream(3))
    assert rep.params["k"] == 2
    sub = gr.haar_subspace(4, 2, RngStream(5))
    assert gr.subspace_from_basis(sub) is sub
    for bad in (_skewed(2e-9), np.eye(3)[:, :2] * (1 + 1e-9), np.ones(3)):
        with pytest.raises(ValueError):
            gr.subspace_from_basis(bad)
        with pytest.raises(ValueError):
            bd.central_section(cube, bad)


def test_complement_properties(rng):
    sub = gr.subspace_from_basis(np.eye(3)[:, :1])
    comp = sub.complement()
    assert comp.k == 2
    assert np.allclose(sub.projector() + comp.projector(), np.eye(3), atol=1e-12)
    assert np.allclose(comp.basis.T @ sub.basis, 0.0, atol=1e-12)
    # double complement spans the original
    assert np.allclose(comp.complement().projector(), sub.projector(), atol=1e-12)

    haar = gr.haar_subspace(6, 2, rng)
    hc = haar.complement()
    assert haar.k + hc.k == 6
    assert np.allclose(haar.projector() + hc.projector(), np.eye(6), atol=1e-12)


def test_line_angles_uniform(rng):
    count = 100_000
    bases = gr.haar_bases(2, 1, count, rng)
    angles = np.mod(np.arctan2(bases[:, 1, 0], bases[:, 0, 0]), math.pi)
    result = stats.kstest(angles / math.pi, "uniform")
    critical_1pct = 1.63 / math.sqrt(count)
    assert result.statistic < critical_1pct


def test_rotation_invariance(rng):
    # principal angle of a 2-subspace of R^4 against a fixed reference plane,
    # with and without a fixed rotation applied
    count = 10_000
    fixed = orthonormalize(gaussian_matrix(4, 4, RngStream(777)))
    ref = np.eye(4)[:, :2]

    def principal_cos(bases):
        sv = np.linalg.svd(np.einsum("ij,cik->cjk", ref, bases),
                           compute_uv=False)
        return sv[:, 0]

    plain = principal_cos(gr.haar_bases(4, 2, count, rng.split(1)))
    rotated = principal_cos(np.einsum("ij,cjk->cik", fixed,
                                      gr.haar_bases(4, 2, count, rng.split(2))))
    result = stats.ks_2samp(plain, rotated)
    assert result.pvalue > 0.01


def test_sphere_directions(rng):
    u = gr.sphere_directions(3, 5000, rng)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    assert np.abs(u.mean(axis=0)).max() < 4.0 / math.sqrt(3 * 5000) * 2
