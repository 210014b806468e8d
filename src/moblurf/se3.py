"""Screw-axis rigid transforms, ray warping, and quaternion utilities.

The rotation part of a screw (omega, v) acts through the rotation
exponential; the translation part goes through the companion matrix G.
Both are expressed via three scalar coefficients of u = ||omega||^2 (see
``autodiff.rot_coefs``), so the ray warp works elementwise on batches and
stays differentiable through zero rotation.

``warp_ray`` accepts plain ndarrays or graph Nodes and returns the same
kind; the matrix and quaternion helpers take ndarrays.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class QuaternionError(ValueError):
    pass


def skew(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


def exp_rotation(omega) -> np.ndarray:
    """3x3 rotation matrix for one axis-angle vector."""
    omega = np.asarray(omega, dtype=np.float64)
    u = float(omega @ omega)
    k = skew(omega)
    a, b, _ = ad.rot_coefs(np.array(u))
    return np.eye(3) + a * k + b * (k @ k)


def translation_matrix(omega) -> np.ndarray:
    """3x3 matrix G(omega) mapping the translation encoding to a shift."""
    omega = np.asarray(omega, dtype=np.float64)
    u = float(omega @ omega)
    k = skew(omega)
    _, b, c = ad.rot_coefs(np.array(u))
    return np.eye(3) + b * k + c * (k @ k)


def warp_ray(origin, direction, omega, v):
    """Rigidly transform a ray: rotate origin and direction, shift origin.

    origin'    = R origin + G v,  R = I + A [omega]x + B [omega]x^2
    direction' = R direction,     G = I + B [omega]x + C [omega]x^2

    u = ||omega||^2 and its coefficients A, B, C are taken once per call and
    shared by the three vectors. A rotation keeps unit directions unit and
    zero screws return the inputs exactly.
    """
    u = ad.sum_(ad.mul(omega, omega), axis=-1, keepdims=True)
    a, b, c = ad.rot_coefs(u)

    def turn(x, p, q):
        """x + p [omega]x x + q [omega]x^2 x"""
        wx = ad.cross3(omega, x)
        return ad.add(x, ad.add(ad.mul(p, wx), ad.mul(q, ad.cross3(omega, wx))))

    return ad.add(turn(origin, a, b), turn(v, b, c)), turn(direction, a, b)


# ---------------------------------------------------------------------------
# quaternions, (w, x, y, z) convention


def quat_canonical(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return -q if q[0] < 0 else q.copy()


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise QuaternionError("cannot normalize near-zero quaternion")
    return q / n


def matrix_from_quat(q) -> np.ndarray:
    w, x, y, z = quat_normalize(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_matrix(R) -> np.ndarray:
    """Rotation matrix -> unit quaternion, branch-stable (Shepperd)."""
    m = np.asarray(R, dtype=np.float64)
    if m[2, 2] < 0:
        if m[0, 0] > m[1, 1]:
            t = 1 + m[0, 0] - m[1, 1] - m[2, 2]
            q = np.array([m[2, 1] - m[1, 2], t, m[0, 1] + m[1, 0], m[2, 0] + m[0, 2]])
        else:
            t = 1 - m[0, 0] + m[1, 1] - m[2, 2]
            q = np.array([m[0, 2] - m[2, 0], m[0, 1] + m[1, 0], t, m[1, 2] + m[2, 1]])
    else:
        if m[0, 0] < -m[1, 1]:
            t = 1 - m[0, 0] - m[1, 1] + m[2, 2]
            q = np.array([m[1, 0] - m[0, 1], m[0, 2] + m[2, 0], m[1, 2] + m[2, 1], t])
        else:
            t = 1 + m[0, 0] + m[1, 1] + m[2, 2]
            q = np.array([t, m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    q *= 0.5 / np.sqrt(t)
    return quat_canonical(q)


def slerp(q0, q1, u: float) -> np.ndarray:
    """Constant-angular-velocity interpolation between unit quaternions."""
    q0 = quat_normalize(q0)
    q1 = quat_normalize(q1)
    dot = float(q0 @ q1)
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 1.0 - 1e-9:
        # nearly parallel: linear blend, renormalized
        return quat_normalize(q0 + u * (q1 - q0))
    ang = np.arccos(np.clip(dot, -1.0, 1.0))
    s = np.sin(ang)
    return (np.sin((1.0 - u) * ang) / s) * q0 + (np.sin(u * ang) / s) * q1


def average_quaternions(quats) -> np.ndarray:
    """Componentwise mean of unit quaternions, each first sign-aligned to
    the first, renormalized. A near-zero mean is an error, not a silent
    garbage rotation.
    """
    quats = [np.asarray(q, dtype=np.float64) for q in quats]
    if not quats:
        raise QuaternionError("empty quaternion list")
    ref = quats[0]
    acc = np.zeros(4)
    for q in quats:
        if float(ref @ q) < 0:
            q = -q
        acc += q
    acc /= len(quats)
    n = np.linalg.norm(acc)
    if n < 1e-8:
        raise QuaternionError("degenerate quaternion average")
    return acc / n


def quat_angle(q0, q1) -> float:
    """Rotation angle (radians) between the rotations q0 and q1."""
    d = abs(float(quat_normalize(q0) @ quat_normalize(q1)))
    return 2.0 * np.arccos(np.clip(d, -1.0, 1.0))
