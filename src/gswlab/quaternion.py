"""Quaternion algebra on numpy arrays.

A quaternion h0 + h1*i + h2*j + h3*k is stored as an array of shape
(..., 4) in the basis (1, i, j, k).  All operations broadcast, so a
lattice field of quaternions is just an array with trailing axis 4.

Complex-pair convention: u = z1 + z2*j with z1 = u0 + u1*i and
z2 = u2 + u3*i, so the trailing axis of a contiguous float array read
as `u.view(complex)` is the pair (z1, z2).  Since j*e^{i theta} =
e^{-i theta}*j, right multiplication by a U(1) phase is one complex
multiply per pair entry: u*e^{i theta} = (z1 e^{i theta}, z2 e^{-i theta}).
"""

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
QK = np.array([0.0, 0.0, 0.0, 1.0])

#: basis (1, i, j, k) used by the Clifford/Dirac contractions
BASIS = np.eye(4)
#: imaginary basis (i, j, k) of sp(1)
IM_BASIS = BASIS[1:]


def from_imag(v3):
    """Embed an imaginary 3-vector (i, j, k components) as a quaternion."""
    v3 = np.asarray(v3, dtype=float)
    out = np.zeros(v3.shape[:-1] + (4,))
    out[..., 1:] = v3
    return out


def _mul_components(p, q):
    p0, p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ],
        axis=-1,
    )


#: MUL_TABLE[a, b] = BASIS[a] * BASIS[b]: (p*q)_c = sum_ab p_a q_b MUL_TABLE[a, b, c]
MUL_TABLE = _mul_components(BASIS[:, None], BASIS[None, :])
# rows of the flattened (c, b) left and (c, a) right multiplication matrices
_LEFT = np.ascontiguousarray(MUL_TABLE.transpose(0, 2, 1).reshape(4, 16))
_RIGHT = np.ascontiguousarray(MUL_TABLE.transpose(1, 2, 0).reshape(4, 16))


def _apply(m, x):
    """m @ x over the trailing axis of x, for one 4x4 matrix m."""
    return (x.reshape(-1, 4) @ m.T).reshape(x.shape)


def mul(p, q):
    """Quaternion product p*q, broadcasting over leading axes.

    A single-quaternion operand (shape (4,)) becomes its 4x4 left or
    right multiplication matrix, applied as one matmul.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape == (4,):
        return _apply(right_matrix(q), p)
    if p.shape == (4,):
        return _apply(left_matrix(p), q)
    return _mul_components(p, q)


def mul_exp_i(u, theta):
    """u * e^{i theta} as one complex multiply on the pair (z1, z2) of u."""
    theta = np.asarray(theta, dtype=float)
    z = np.ascontiguousarray(u, dtype=float).view(complex)
    e = np.cos(theta) + 1j * np.sin(theta)
    return (z * np.stack([e, e.conj()], axis=-1)).view(float)


def conj(q):
    out = np.array(q, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def norm2(q):
    return inner(q, q)


def norm(q):
    return np.sqrt(norm2(q))


def inner(p, q):
    """Flat inner product on H = R^4: np.sum(p * q, -1) bit for bit, without its temporary."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = p[..., 0] * q[..., 0]
    for k in range(1, 4):
        out += p[..., k] * q[..., k]
    return out


def exp_i(theta):
    """Unit complex number e^{i theta} inside H, broadcast over theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape + (4,))
    out[..., 0] = np.cos(theta)
    out[..., 1] = np.sin(theta)
    return out


def right_mul_i(q, scale=1.0):
    """q * (scale * i), the infinitesimal right U(1) rotation of q."""
    return mul(q, np.asarray(scale)[..., None] * QI)


def left_matrix(p):
    """4x4 matrix of v -> p * v, broadcast to shape (..., 4, 4)."""
    p = np.asarray(p, dtype=float)
    return (p @ _LEFT).reshape(p.shape[:-1] + (4, 4))


def right_matrix(q):
    """4x4 matrix of v -> v * q, broadcast to shape (..., 4, 4)."""
    q = np.asarray(q, dtype=float)
    return (q @ _RIGHT).reshape(q.shape[:-1] + (4, 4))
