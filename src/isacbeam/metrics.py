"""Performance metrics: rates, Fisher information, CRLB trace, objective."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import Scene, SteeringSet, _numbers, check_real

__all__ = [
    "Beamformer",
    "Weights",
    "SingularFisherError",
    "sinr",
    "sum_rate",
    "fim",
    "fim_matrix",
    "table_adjoint",
    "spd_inverse",
    "crlb_trace",
    "objective",
]


class SingularFisherError(RuntimeError):
    """Fisher information matrix is not positive definite."""


@dataclass(frozen=True)
class Beamformer:
    """Transmit beamformer: communication columns, sensing columns, power budget.

    w_comm is (n_tx, K); w_sense is (n_tx, n_sense) and may have zero columns.
    Both are the beamformer's own read-only copies; `replace_matrix` makes a
    new beamformer.
    """

    w_comm: np.ndarray
    w_sense: np.ndarray
    power_budget: float

    def __post_init__(self):
        for name in ("w_comm", "w_sense"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name), complex, 2))
        if self.w_comm.shape[0] != self.w_sense.shape[0]:
            raise ValueError("w_comm and w_sense must share the antenna dimension")
        check_real("power budget", self.power_budget, 0.0, open_low=True)

    @property
    def matrix(self) -> np.ndarray:
        """The full stacked matrix [w_comm, w_sense]."""
        return np.concatenate([self.w_comm, self.w_sense], axis=1)

    @property
    def n_tx(self) -> int:
        return self.w_comm.shape[0]

    @property
    def n_users(self) -> int:
        return self.w_comm.shape[1]

    @property
    def n_sense(self) -> int:
        return self.w_sense.shape[1]

    @property
    def total_power(self) -> float:
        return float(np.linalg.norm(self.w_comm) ** 2 + np.linalg.norm(self.w_sense) ** 2)

    @property
    def covariance(self) -> np.ndarray:
        """Transmit covariance w_comm w_comm^H + w_sense w_sense^H."""
        w = self.matrix
        return w @ w.conj().T

    def replace_matrix(self, w: np.ndarray) -> "Beamformer":
        """Same column split and budget, new stacked matrix."""
        k = self.n_users
        return Beamformer(w[:, :k], w[:, k:], self.power_budget)


@dataclass(frozen=True)
class Weights:
    """Tradeoff weights: comm multiplies the sum rate, sense the CRLB trace."""

    comm: float
    sense: float

    def __post_init__(self):
        check_real("comm weight", self.comm, 0.0)
        check_real("sense weight", self.sense, 0.0)
        if self.comm == 0 and self.sense == 0:
            raise ValueError("at least one weight must be positive")


def _check_dims(scene: Scene, w: Beamformer) -> None:
    if w.n_tx != scene.n_tx or w.n_users != scene.n_users:
        raise ValueError("beamformer dimensions do not match the scene")


def sinr(gains: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user SINR and interference-plus-noise floor from the gains H^H W
    (K x streams, the first K columns the communication streams; every other
    stream counts as interference). The floor is
    f_k = sum_{j != k} |h_k^H w_j|^2 + sigma2_k, a direct sum, so however far
    the interference lies below the desired power it is not rounded away.
    Users with no desired signal get SINR 0."""
    power = np.abs(gains) ** 2
    diagonal = power.reshape(-1)[:: power.shape[1] + 1]  # power[k, k] as a view (streams >= users)
    signal = diagonal.copy()
    diagonal[:] = 0.0
    floor = power.sum(axis=1) + noise
    return signal / floor, floor


def sum_rate(scene: Scene, w: Beamformer) -> float:
    """Total rate over all users (nats/s/Hz), sensing beams as interference."""
    _check_dims(scene, w)
    return float(np.sum(np.log1p(sinr(scene.channels.conj().T @ w.matrix, scene.noise_comm)[0])))


def _fisher_operator(steering: SteeringSet, slots: int, noise_radar: float) -> np.ndarray:
    """The Fisher operator T of the targets of a steering set: the complex
    (16M^2, 9M^2) matrix whose row (i, j) is vec(T_ij), with

        T_ij = (L / sigma^2) (C_i^H Bbar^H Bbar C_j + C_j^H Bbar^H Bbar C_i),

    so that F_ij = Re tr(T_ij R_s) for R_s = Sbar^H R_x Sbar. Here every
    parameter derivative of the echo map G = B U A^H factors as
    dG/dxi_i = Bbar C_i Sbar^H, with Bbar = [B, B_dtheta, B_dphi] and
    Sbar = [A, A_dtheta, A_dphi] (SteeringSet's rx and tx), in the parameter
    order azimuths, elevations, Re rcs, Im rcs. The rows of (i, j) and (j, i)
    are equal and every T_ij is Hermitian, both exactly, so F is symmetric
    whatever R_s and the adjoint K(phi) = sum_ij phi_ij T_ij is Hermitian.
    """
    m = steering.n_targets
    u = steering.rcs
    i = np.arange(m)
    c = np.zeros((4 * m, 3 * m, 3 * m), dtype=complex)
    c[i, m + i, i] = u  # azimuth: B_dtheta U A^H
    c[i, i, m + i] = u  # azimuth: B U A_dtheta^H
    c[m + i, 2 * m + i, i] = u  # elevation: B_dphi U A^H
    c[m + i, i, 2 * m + i] = u  # elevation: B U A_dphi^H
    c[2 * m + i, i, i] = 1.0  # Re rcs: B A^H
    c[3 * m + i, i, i] = 1j  # Im rcs: j B A^H
    weighted = (2.0 * slots / noise_radar) * ((steering.rx.conj().T @ steering.rx) @ c)
    # x[i, j] = C_i^H Bbar^H Bbar C_j (2L / sigma^2); both sums below are
    # symmetric term by term, which makes the symmetries exact in floating point.
    x = c.conj().transpose(0, 2, 1)[:, None] @ weighted[None, :]
    x = x + x.transpose(1, 0, 2, 3)
    t = 0.25 * (x + x.conj().transpose(0, 1, 3, 2))
    return t.reshape(16 * m * m, 9 * m * m)


def fim_matrix(op: np.ndarray, r_s: np.ndarray) -> np.ndarray:
    """F_ij = Re tr(T_ij R_s) = Re vdot(T_ij, R_s) (T_ij Hermitian): one real
    matrix-vector product on the real views of T and R_s."""
    n = math.isqrt(op.shape[0])
    r = np.ascontiguousarray(r_s, dtype=complex)
    return (op.view(float) @ r.view(float).ravel()).reshape(n, n)


def table_adjoint(op: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The Hermitian 3M x 3M matrix K = sum_ij phi_ij T_ij, for which
    tr(phi^T F) = Re tr(K R_s) for every R_s."""
    n3 = math.isqrt(op.shape[1])
    return (phi.ravel() @ op.view(float)).view(complex).reshape(n3, n3)


def fim(scene: Scene, w: Beamformer) -> np.ndarray:
    """Real symmetric 4M x 4M Fisher information of the echo model under
    beamformer w, through R_s = Z_S Z_S^H with Z_S = Sbar^H W; the parameter
    blocks are azimuths, elevations, Re(rcs), Im(rcs)."""
    _check_dims(scene, w)
    if scene.n_targets < 1:
        raise ValueError("scene has no targets")
    zs = scene.steering.tx.conj().T @ w.matrix
    return fim_matrix(scene.geometry.operator, zs @ zs.conj().T)


def spd_inverse(f: np.ndarray) -> np.ndarray:
    """Symmetric inverse F^-1 = L^-T L^-1 of a Fisher matrix (`fim`,
    `fim_matrix`), from its Cholesky factor F = L L^T. Raises ValueError
    unless F is a finite real square array with side 4M, and
    SingularFisherError when it is not numerically positive definite."""
    f = _numbers("Fisher matrix", f, float, 2)
    if f.shape[0] != f.shape[1] or f.shape[0] % 4:
        raise ValueError("Fisher matrix must be square with side 4M")
    return _cholesky_inverse(f)


def _cholesky_inverse(f: np.ndarray) -> np.ndarray:
    """`spd_inverse` without its checks on caller input: one Cholesky
    factorization and one triangular inverse of a real square float array,
    which it neither copies nor reshapes, for a Fisher matrix the solver has
    just formed. ValueError on a non-finite entry, SingularFisherError when
    F is not numerically positive definite."""
    if not np.isfinite(f).all():
        raise ValueError("Fisher matrix has a non-finite entry")
    try:
        lower = np.linalg.cholesky(f)
    except np.linalg.LinAlgError as exc:
        raise SingularFisherError("Fisher matrix is singular; target geometry is unidentifiable") from exc
    lower_inv = np.linalg.inv(lower)
    return lower_inv.T @ lower_inv


def crlb_trace(f: np.ndarray) -> float:
    """Trace of the inverse Fisher matrix (sum of the parameter CRLBs)."""
    return float(np.trace(spd_inverse(f)))


def objective(scene: Scene, w: Beamformer, weights: Weights) -> float:
    """Weighted tradeoff value: comm * sum rate - sense * CRLB trace."""
    value = 0.0
    if weights.comm > 0:
        value += weights.comm * sum_rate(scene, w)
    if weights.sense > 0:
        value -= weights.sense * crlb_trace(fim(scene, w))
    return float(value)
