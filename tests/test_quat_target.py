import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gswlab.quaternion as quat
import gswlab.targets as tg
from gswlab.targets import (
    ConeSingularityError,
    GaugeGroup,
    TargetKind,
    TargetPoint,
    TangentM,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.tuples(finite, finite, finite, finite).map(lambda t: np.array(t))


def _nonzero(q):
    return quat.norm(q) > 1e-3


@settings(max_examples=100, deadline=None)
@given(quats.filter(_nonzero), quats.filter(_nonzero))
def test_multiplicative_norm(p, q):
    assert abs(quat.norm2(quat.mul(p, q)) - quat.norm2(p) * quat.norm2(q)) <= 1e-12 * max(
        quat.norm2(p) * quat.norm2(q), 1.0
    )


@settings(max_examples=50, deadline=None)
@given(quats)
def test_quaternion_table(v):
    # i^2 = j^2 = k^2 = ijk = -1 acting on arbitrary v
    for z in (quat.QI, quat.QJ, quat.QK):
        assert np.allclose(quat.mul(z, quat.mul(z, v)), -v, atol=1e-12)
    ijk = quat.mul(quat.QI, quat.mul(quat.QJ, quat.QK))
    assert np.allclose(ijk, -quat.ONE, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(quats.filter(_nonzero), quats)
def test_permuting_identity(q, v):
    q = q / quat.norm(q)
    rng = np.random.default_rng(0)
    zeta = quat.from_imag(rng.normal(size=3))
    zeta /= quat.norm(zeta)
    lhs = quat.mul(q, quat.mul(zeta, quat.mul(quat.conj(q), v)))
    rhs = quat.mul(quat.mul(q, quat.mul(zeta, quat.conj(q))), v)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(v).max())


def test_omega_examples():
    p = TargetPoint(np.array([1.0, 0, 0, 0]))
    one = TangentM(quat.ONE, p)
    vi = TangentM(quat.QI, p)
    assert tg.omega(quat.QI, one, vi) == pytest.approx(-1.0)
    assert tg.omega(quat.QI, vi, vi) == pytest.approx(0.0)
    assert tg.omega(np.zeros(4), one, vi) == 0.0
    other = TargetPoint(np.array([2.0, 0, 0, 0]))
    with pytest.raises(ValueError):
        tg.omega(quat.QI, vi, TangentM(quat.QI, other))


def test_fundamental_vectors():
    p1 = TargetPoint(np.array([1.0, 0, 0, 0]))
    assert np.allclose(tg.fundamental_vector_sp1(quat.QI, p1).vec, quat.QI)
    assert np.allclose(tg.fundamental_vector_g(GaugeGroup.TRIVIAL, 1.0, p1).vec, 0.0)
    pj = TargetPoint(quat.QJ)
    kj = tg.fundamental_vector_g(GaugeGroup.U1, 1.0, pj)
    assert np.allclose(kj.vec, -quat.QK)  # j * i = -k


def test_chi_map_examples():
    p1 = TargetPoint(np.array([1.0, 0, 0, 0]))
    assert np.allclose(tg.chi_map(quat.QI, quat.QI, p1).vec, quat.ONE)
    assert np.allclose(tg.chi_map(quat.QI, quat.QJ, p1).vec, quat.QK)
    assert np.allclose(tg.chi_map(np.zeros(4), quat.QJ, p1).vec, 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_chi_decomposition(seed):
    rng = np.random.default_rng(seed)
    p = TargetPoint(rng.normal(size=4) + np.array([3.0, 0, 0, 0]))
    diag, anti, tracefree = tg.chi_components(p)
    assert np.abs(tracefree).max() <= 1e-14
    assert np.allclose(diag, p.rep)
    assert np.allclose(tg.chi0(p).vec, p.rep)


@pytest.mark.parametrize("seed", range(5))
def test_potential_identities(seed):
    rng = np.random.default_rng(seed + 10)
    p = TargetPoint(rng.normal(size=4) * 2 + np.array([0.5, 0, 0, 0]))
    chi = tg.chi0(p)
    scale = max(tg.rho0(p), 1.0)
    # algebraically exact; evaluated through the chi assembly in floats
    assert abs(tg.rho0(p) - 0.5 * quat.norm2(chi.vec)) <= 1e-14 * scale
    grad = tg.grad_rho0(p)
    assert abs(quat.norm2(grad.vec) - 2.0 * tg.rho0(p)) <= 1e-14 * scale
    # stated reference values
    assert tg.rho0(TargetPoint(quat.ONE)) == pytest.approx(0.5)
    p2i = TargetPoint(2 * quat.QI)
    assert tg.rho0(p2i) == pytest.approx(2.0)
    assert np.allclose(tg.grad_rho0(p2i).vec, 2 * quat.QI)


def test_moment_map_trivial_and_origin():
    p = TargetPoint(np.array([0.7, -0.2, 0.4, 0.1]))
    mu = tg.moment_map(p, GaugeGroup.TRIVIAL)
    assert mu(quat.QI, 1.0) == 0.0
    mu0 = tg.moment_map(TargetPoint(np.zeros(4)), GaugeGroup.U1)
    assert mu0(quat.QJ, 2.0) == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_moment_map_fd_oracle(seed):
    """Defining property: d mu_{zeta,xi}(v) = omega_zeta(K_xi, v)."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    v = rng.normal(size=4)
    zeta = quat.from_imag(rng.normal(size=3))
    xi = rng.normal()
    h = 1e-4
    mu_p = tg.moment_map(TargetPoint(q + h * v), GaugeGroup.U1)
    mu_m = tg.moment_map(TargetPoint(q - h * v), GaugeGroup.U1)
    fd = (mu_p(zeta, xi) - mu_m(zeta, xi)) / (2 * h)
    point = TargetPoint(q)
    pairing = tg.omega(zeta, tg.fundamental_vector_g(GaugeGroup.U1, xi, point), TangentM(v, point))
    assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(pairing))


def test_moment_map_gauge_invariance():
    rng = np.random.default_rng(4)
    q = rng.normal(size=4)
    e = quat.exp_i(0.9)
    mu_a = tg.moment_values(q, GaugeGroup.U1)
    mu_b = tg.moment_values(quat.mul(q, e), GaugeGroup.U1)
    assert np.abs(mu_a - mu_b).max() <= 1e-12


def test_actions_commute_and_epsilon_trivial():
    rng = np.random.default_rng(5)
    p = rng.normal(size=4)
    q = rng.normal(size=4)
    q /= quat.norm(q)
    e = quat.exp_i(0.37)
    assert np.allclose(quat.mul(quat.mul(q, p), e), quat.mul(q, quat.mul(p, e)), atol=1e-12)
    # (-1, e^{i pi}) acts trivially
    acted = quat.mul(-p, quat.exp_i(np.pi))
    assert np.abs(acted - p).max() <= 1e-12


def test_exp_log_transport_flat():
    p = TargetPoint(quat.ONE)
    v = TangentM(quat.QI, p)
    q = tg.exp_map(p, v)
    assert np.allclose(q.rep, quat.ONE + quat.QI)
    back = tg.log_map(p, q)
    assert np.allclose(back.vec, v.vec)


def test_cone_canonicalization_and_singularity():
    p = TargetPoint(-quat.QI + 0.0, TargetKind.CONE_H_MOD_Z2)
    assert p.rep[1] > 0  # canonical sign
    with pytest.raises(ConeSingularityError):
        tg.exp_map(
            TargetPoint(quat.QI, TargetKind.CONE_H_MOD_Z2),
            TangentM(-quat.QI, TargetPoint(quat.QI, TargetKind.CONE_H_MOD_Z2)),
        )
    with pytest.raises(ConeSingularityError):
        TargetPoint(np.zeros(4), TargetKind.CONE_H_MOD_Z2)
    # exp/log inverse pair with sign identification
    base = TargetPoint(np.array([1.0, 0.2, 0, 0]), TargetKind.CONE_H_MOD_Z2)
    v = TangentM(np.array([0.3, -0.1, 0.2, 0.0]), base)
    out = tg.exp_map(base, v)
    assert np.allclose(tg.log_map(base, out).vec, v.vec)


def test_isometry_of_actions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v, w = rng.normal(size=4), rng.normal(size=4)
        q = rng.normal(size=4)
        q /= quat.norm(q)
        assert abs(
            quat.inner(quat.mul(q, v), quat.mul(q, w)) - quat.inner(v, w)
        ) <= 1e-12
        e = quat.exp_i(rng.normal())
        assert abs(
            quat.inner(quat.mul(v, e), quat.mul(w, e)) - quat.inner(v, w)
        ) <= 1e-12


def _hamilton(p, q):
    """Reference Hamilton product from the component formula."""
    p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
    q0, q1, q2, q3 = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ],
        axis=-1,
    )


@pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 3, 3, 3, 4)])
def test_constant_operand_mul_matches_components(shape):
    rng = np.random.default_rng(11)
    field = rng.normal(size=shape)
    for e in quat.BASIS:
        assert np.array_equal(quat.mul(field, e), _hamilton(field, e))
        assert np.array_equal(quat.mul(e, field), _hamilton(e, field))
        assert np.array_equal(quat.left_matrix(e) @ field[..., None], _hamilton(e, field)[..., None])
        assert np.array_equal(quat.right_matrix(e) @ field[..., None], _hamilton(field, e)[..., None])
    for _ in range(5):
        const = rng.normal(size=4)
        for got, ref in (
            (quat.mul(field, const), _hamilton(field, const)),
            (quat.mul(const, field), _hamilton(const, field)),
        ):
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize(
    "u_shape, theta_shape",
    [((4,), ()), ((4,), (5,)), ((6, 4), ()), ((6, 4), (6,)), ((3, 3, 3, 3, 4), (3, 3, 3, 3)),
     ((3, 3, 3, 3, 4), (3, 1, 3, 1))],
)
def test_mul_exp_i_matches_product(u_shape, theta_shape):
    rng = np.random.default_rng(12)
    u = rng.normal(size=u_shape)
    theta = rng.uniform(-4.0, 4.0, size=theta_shape)
    got = quat.mul_exp_i(u, theta)
    ref = quat.mul(u, quat.exp_i(theta))
    assert got.shape == ref.shape
    # every component of u e^{i theta} is bounded by |u|: 4 ulp of |u|
    ulp = np.spacing(np.broadcast_to(quat.norm(u)[..., None], ref.shape))
    assert np.all(np.abs(got - ref) <= 4 * ulp)


@pytest.mark.parametrize("shape", [(4,), (9, 4), (3, 4, 2, 5, 4), (5, 5, 5, 5, 4)])
def test_inner_and_norm2_match_trailing_sum(shape):
    """The componentwise accumulation is bit for bit the trailing-axis sum."""
    rng = np.random.default_rng(13)
    p, q = rng.normal(size=shape), rng.normal(size=shape)
    assert np.array_equal(quat.inner(p, q), np.sum(p * q, axis=-1))
    assert np.array_equal(quat.norm2(p), np.sum(p * p, axis=-1))
    const = q.reshape(-1, 4)[0]  # one quaternion against the whole field
    assert np.array_equal(quat.inner(p, const), np.sum(p * const, axis=-1))
