"""Performance metrics: per-user rates, Fisher information, CRLB trace, objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .scene import Scene

__all__ = [
    "Beamformer",
    "FisherInfo",
    "Weights",
    "SingularFisherError",
    "sinr",
    "user_rate",
    "sum_rate",
    "fim",
    "JacobianTable",
    "jacobian_table",
    "table_fim",
    "table_adjoint",
    "crlb_trace",
    "objective",
]


class SingularFisherError(RuntimeError):
    """Fisher information matrix is not positive definite."""


@dataclass(frozen=True)
class Beamformer:
    """Transmit beamformer: communication columns, sensing columns, power budget.

    w_comm is (n_tx, K); w_sense is (n_tx, n_sense) and may have zero columns.
    """

    w_comm: np.ndarray
    w_sense: np.ndarray
    power_budget: float

    def __post_init__(self):
        wc = np.asarray(self.w_comm, dtype=np.complex128)
        ws = np.asarray(self.w_sense, dtype=np.complex128)
        if wc.ndim != 2 or ws.ndim != 2 or wc.shape[0] != ws.shape[0]:
            raise ValueError("w_comm and w_sense must share the antenna dimension")
        if not (np.all(np.isfinite(wc)) and np.all(np.isfinite(ws))):
            raise ValueError("beamformer entries must be finite")
        if not 0 < self.power_budget < np.inf:
            raise ValueError("power budget must be finite and positive")
        object.__setattr__(self, "w_comm", wc)
        object.__setattr__(self, "w_sense", ws)

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

    def is_feasible(self, slack: float = 1e-9) -> bool:
        return self.total_power <= self.power_budget * (1.0 + slack)

    def is_on_sphere(self, slack: float = 1e-9) -> bool:
        return abs(self.total_power - self.power_budget) <= slack * self.power_budget

    def replace_matrix(self, w: np.ndarray) -> "Beamformer":
        """Same column split and budget, new stacked matrix."""
        k = self.n_users
        return Beamformer(w[:, :k], w[:, k:], self.power_budget)


@dataclass(frozen=True)
class FisherInfo:
    """Real symmetric 4M x 4M Fisher information matrix.

    Block order of the parameters: azimuths, elevations, Re(rcs), Im(rcs).
    """

    matrix: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.matrix, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] % 4:
            raise ValueError("Fisher matrix must be square with side 4M")
        object.__setattr__(self, "matrix", f)

    @property
    def n_targets(self) -> int:
        return self.matrix.shape[0] // 4


@dataclass(frozen=True)
class Weights:
    """Tradeoff weights: comm multiplies the sum rate, sense the CRLB trace."""

    comm: float
    sense: float

    def __post_init__(self):
        if not (np.isfinite(self.comm) and np.isfinite(self.sense)):
            raise ValueError("weights must be finite")
        if self.comm < 0 or self.sense < 0:
            raise ValueError("weights must be nonnegative")
        if self.comm == 0 and self.sense == 0:
            raise ValueError("at least one weight must be positive")


def _check_dims(scene: Scene, w: Beamformer) -> None:
    if w.n_tx != scene.n_tx or w.n_users != scene.n_users:
        raise ValueError("beamformer dimensions do not match the scene")


def sinr(gains: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user SINR and total received power from the gains H^H W (K x
    streams, the first K columns the communication streams; every other
    stream counts as interference). Users with no desired signal get SINR 0."""
    k = gains.shape[0]
    total = np.sum(np.abs(gains) ** 2, axis=1) + noise
    signal = np.abs(np.diag(gains[:, :k])) ** 2
    return np.where(signal > 0, signal / (total - signal), 0.0), total


def _user_sinr(scene: Scene, w: Beamformer) -> np.ndarray:
    _check_dims(scene, w)
    return sinr(scene.channels.conj().T @ w.matrix, scene.noise_comm)[0]


def user_rate(scene: Scene, w: Beamformer, k: int) -> float:
    """Achievable rate (nats/s/Hz) of user k (0-based), sensing beams as interference."""
    if not 0 <= k < scene.n_users:
        raise ValueError(f"user index {k} out of range")
    return float(np.log1p(_user_sinr(scene, w)[k]))


def sum_rate(scene: Scene, w: Beamformer) -> float:
    """Total rate over all users (nats/s/Hz)."""
    return float(np.sum(np.log1p(_user_sinr(scene, w))))


@dataclass(frozen=True)
class JacobianTable:
    """Fisher-information coefficients of the echo map G = B U A^H.

    Every parameter derivative factors as dG/dxi_i = Bbar C_i Sbar^H, with
    Bbar = [B, B_dtheta, B_dphi] and Sbar = [A, A_dtheta, A_dphi] (SteeringSet's
    rx and tx). coeff holds the C_i, shape (4M, 3M, 3M), in the parameter
    order azimuths, elevations, Re rcs, Im rcs; weighted holds
    (2L / sigma^2) Bbar^H Bbar C_i. The transmit side enters only through
    R_s = Sbar^H R_x Sbar, so table_fim is the linear map R_s -> F and
    table_adjoint is its adjoint.
    """

    coeff: np.ndarray
    weighted: np.ndarray


def jacobian_table(scene: Scene) -> JacobianTable:
    """Coefficient table of dG/dxi for the scene's targets."""
    steering = scene.steering
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
    weighted = (2.0 * scene.slots / scene.noise_radar) * ((steering.rx.conj().T @ steering.rx) @ c)
    return JacobianTable(coeff=c, weighted=weighted)


def table_fim(table: JacobianTable, r_s: np.ndarray) -> FisherInfo:
    """F_ij = (2L / sigma^2) Re tr(C_i^H Bbar^H Bbar C_j R_s)."""
    n = table.coeff.shape[0]
    f = np.real(table.coeff.conj().reshape(n, -1) @ (table.weighted @ r_s).reshape(n, -1).T)
    return FisherInfo(0.5 * (f + f.T))


def table_adjoint(table: JacobianTable, phi: np.ndarray) -> np.ndarray:
    """The 3M x 3M matrix K with tr(phi^T F) = Re tr(K R_s) for every R_s:
    K = (2L / sigma^2) sum_ij phi_ij C_i^H Bbar^H Bbar C_j (Hermitian when phi
    is symmetric)."""
    n3 = table.coeff.shape[1]
    mixed = np.tensordot(phi, table.weighted, axes=1)
    return table.coeff.conj().reshape(-1, n3).T @ mixed.reshape(-1, n3)


def fim(scene: Scene, w: Beamformer) -> FisherInfo:
    """Fisher information of the echo model under beamformer w, through
    R_s = Z_S Z_S^H with Z_S = Sbar^H W."""
    _check_dims(scene, w)
    if scene.n_targets < 1:
        raise ValueError("scene has no targets")
    zs = scene.steering.tx.conj().T @ w.matrix
    return table_fim(jacobian_table(scene), zs @ zs.conj().T)


def inverse_fisher(fi: FisherInfo) -> np.ndarray:
    """Dense inverse of the Fisher matrix by Cholesky factorization; raises
    SingularFisherError when the matrix is not numerically positive definite."""
    try:
        factor = scipy.linalg.cho_factor(fi.matrix, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularFisherError("Fisher matrix is singular; target geometry is unidentifiable") from exc
    return scipy.linalg.cho_solve(factor, np.eye(fi.matrix.shape[0]))


def crlb_trace(fi: FisherInfo) -> float:
    """Trace of the inverse Fisher matrix (sum of the parameter CRLBs)."""
    return float(np.trace(inverse_fisher(fi)))


def objective(scene: Scene, w: Beamformer, weights: Weights) -> float:
    """Weighted tradeoff value: comm * sum rate - sense * CRLB trace."""
    value = 0.0
    if weights.comm > 0:
        value += weights.comm * sum_rate(scene, w)
    if weights.sense > 0:
        value -= weights.sense * crlb_trace(fim(scene, w))
    return float(value)
