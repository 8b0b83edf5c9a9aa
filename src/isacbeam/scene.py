"""Scene construction: array geometries, UPA steering vectors, random instances.

All randomness in the package flows through :func:`philox`, a counter-based
Philox stream keyed by an integer in [0, 2^64), so :func:`sample_scene` is a
pure function of its seed. Scenes are frozen after construction and safe to
share across workers: every array a value holds is its own read-only copy
(`_numbers`), so neither the caller nor another value can change it.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ArrayGeometry",
    "Target",
    "Scene",
    "SteeringSet",
    "TargetGeometry",
    "target_geometry",
    "steering_vector",
    "build_steering_set",
    "philox",
    "check_integer",
    "check_real",
    "sample_scene",
    "benchmark_targets",
    "dbm_to_linear",
    "scene_from_config",
]


def check_integer(name: str, value, minimum: int) -> None:
    """ValueError unless value is an integer (Python or numpy) >= minimum;
    a bool, a float (even a whole one) or a string is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, low: float = -np.inf, high: float = np.inf, *, open_low: bool = False) -> None:
    """ValueError unless value is a finite int or float (Python or numpy; not a
    bool or a string) in [low, high], or in (low, high] with open_low."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (number and -np.inf < value < np.inf and (low < value if open_low else low <= value) and value <= high):
        where = f"{'(' if open_low else '['}{low:g}, {high:g}]"
        raise ValueError(f"{name} must be a finite real number in {where}, got {value!r}")


def dbm_to_linear(value_dbm: float, name: str = "value_dbm") -> float:
    """Convert a dBm figure, a finite real number (`check_real`, under this
    name), to linear milliwatts; ValueError when it overflows."""
    check_real(name, value_dbm)
    try:
        return float(10.0 ** (value_dbm / 10.0))
    except OverflowError as exc:
        raise ValueError(f"{value_dbm} dBm overflows a float power") from exc


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array layout (half-wavelength spacing).

    Attributes
    ----------
    n_horizontal, n_vertical : int
        Number of elements along each dimension; total N = product.
    """

    n_horizontal: int
    n_vertical: int

    def __post_init__(self):
        check_integer("n_horizontal", self.n_horizontal, 1)
        check_integer("n_vertical", self.n_vertical, 1)

    @property
    def n_elements(self) -> int:
        return self.n_horizontal * self.n_vertical


@dataclass(frozen=True)
class Target:
    """Point target: azimuth/elevation (radians) and complex reflection coefficient."""

    azimuth: float
    elevation: float
    rcs: complex

    def __post_init__(self):
        _check_angles(self.azimuth, self.elevation)
        # a complex coefficient is checked by its magnitude, a real one as itself
        rcs = abs(self.rcs) if isinstance(self.rcs, (complex, np.complexfloating)) else self.rcs
        check_real("target reflection coefficient", rcs)
        if rcs == 0:
            raise ValueError("target reflection coefficient must be nonzero")


def _check_angles(azimuth: float, elevation: float) -> None:
    check_real("azimuth", azimuth, -np.pi, np.pi)
    check_real("elevation", elevation, -np.pi / 2, np.pi / 2)


def _numbers(name: str, value, dtype: type, ndim: int) -> np.ndarray:
    """A read-only, C-contiguous ndim-D copy of value as dtype (float or
    complex), which no other array shares; ValueError naming it unless every
    entry is a finite integer, float or (for complex) complex number: bool,
    string and object arrays are not converted."""
    array = np.asarray(value)
    if array.dtype.kind in ("iufc" if dtype is complex else "iuf") and array.ndim == ndim:
        array = array.astype(dtype, order="C")
        if np.count_nonzero(np.isfinite(array)) == array.size:  # quicker than .all()
            array.setflags(write=False)
            return array
    kind = "complex" if dtype is complex else "real"
    raise ValueError(f"{name} must be a {ndim}-D array of finite {kind} numbers, got {array.dtype} {array.shape}")


@dataclass(frozen=True)
class Scene:
    """One problem instance: geometries, channels, targets, powers.

    channels has shape (n_tx, n_users); noise_comm has one entry per user
    (linear mW). Immutable after construction; `geometry` is read on first
    use from the memoized `target_geometry`, which every scene with the same
    tx/rx geometry, targets, slots and radar noise shares.
    """

    tx_geometry: ArrayGeometry
    rx_geometry: ArrayGeometry
    channels: np.ndarray
    targets: tuple
    noise_comm: np.ndarray
    noise_radar: float
    slots: int
    power_budget: float

    def __post_init__(self):
        for name in ("tx_geometry", "rx_geometry"):
            if not isinstance(getattr(self, name), ArrayGeometry):
                raise ValueError(f"{name} must be an ArrayGeometry, got {getattr(self, name)!r}")
        if not isinstance(self.targets, (tuple, list)) or not all(isinstance(t, Target) for t in self.targets):
            raise ValueError(f"targets must be a tuple or list of Target, got {self.targets!r}")
        channels = _numbers("channels", self.channels, complex, 2)
        if channels.shape[0] != self.tx_geometry.n_elements:
            raise ValueError("channels must have shape (n_tx, n_users)")
        noise = _numbers("noise_comm", self.noise_comm, float, 1)
        if noise.size != channels.shape[1] or not np.all(noise > 0):
            raise ValueError("noise_comm needs one positive entry per user")
        check_real("noise_radar", self.noise_radar, 0.0, open_low=True)
        check_integer("slots", self.slots, 1)
        check_real("power budget", self.power_budget, 0.0, open_low=True)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "noise_comm", noise)
        object.__setattr__(self, "targets", tuple(self.targets))

    @property
    def n_tx(self) -> int:
        return self.tx_geometry.n_elements

    @property
    def n_rx(self) -> int:
        return self.rx_geometry.n_elements

    @property
    def n_users(self) -> int:
        return self.channels.shape[1]

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @functools.cached_property
    def geometry(self) -> "TargetGeometry":
        """What the scene's targets fix independently of its channels
        (`target_geometry`), shared with every scene of the same geometry."""
        return target_geometry(
            self.tx_geometry, self.rx_geometry, self.targets, self.slots, self.noise_radar
        )

    @property
    def steering(self) -> "SteeringSet":
        """Sbar, Bbar and the reflection coefficients of `geometry` (read-only)."""
        return self.geometry.steering


@dataclass(frozen=True)
class SteeringSet:
    """The stacked sensing geometry of a scene's M targets.

    tx is Sbar = [A, A_dtheta, A_dphi] (n_tx x 3M) and rx is
    Bbar = [B, B_dtheta, B_dphi] (n_rx x 3M): column m of each block belongs
    to target m, and the blocks follow the angle order of the Fisher
    parameters (azimuths, then elevations). rcs holds the complex reflection
    coefficients (diagonal of U).
    """

    tx: np.ndarray
    rx: np.ndarray
    rcs: np.ndarray

    def __post_init__(self):
        for name, ndim in (("tx", 2), ("rx", 2), ("rcs", 1)):
            object.__setattr__(self, name, _numbers(name, getattr(self, name), complex, ndim))

    @property
    def n_targets(self) -> int:
        return self.rcs.size


def _steering_columns(geom: ArrayGeometry, azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """[a, da/d azimuth, da/d elevation] of the UPA steering vector
    a = a_h(az, el) kron a_v(el) at M angle pairs: an n_elements x 3M array."""
    az, el = np.asarray(azimuth, dtype=float), np.asarray(elevation, dtype=float)
    n_h = np.arange(geom.n_horizontal)[:, None]
    n_v = np.arange(geom.n_vertical)[:, None]
    a_h = np.exp(1j * np.pi * n_h * np.sin(az) * np.sin(el)) / np.sqrt(geom.n_horizontal)
    a_v = np.exp(1j * np.pi * n_v * np.cos(el)) / np.sqrt(geom.n_vertical)
    dah_daz = 1j * np.pi * np.cos(az) * np.sin(el) * n_h * a_h
    dah_del = 1j * np.pi * np.sin(az) * np.cos(el) * n_h * a_h
    dav_del = -1j * np.pi * np.sin(el) * n_v * a_v

    def kron(h, v):  # column-wise h[:, m] kron v[:, m]
        return (h[:, None, :] * v[None, :, :]).reshape(geom.n_elements, az.size)

    return np.concatenate(
        [kron(a_h, a_v), kron(dah_daz, a_v), kron(dah_del, a_v) + kron(a_h, dav_del)], axis=1
    )


def steering_vector(geom: ArrayGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """Unit-norm UPA steering vector a_h(az, el) kron a_v(el)."""
    _check_angles(azimuth, elevation)
    return _steering_columns(geom, [azimuth], [elevation])[:, 0]


def build_steering_set(scene: Scene) -> SteeringSet:
    """The scene's steering set, `scene.steering` (read-only, shared across scenes)."""
    return scene.steering


# Distinct target geometries whose steering set and Fisher operator each
# process keeps; the statistical protocol redraws channels under one geometry.
GEOMETRY_CACHE = 64


@dataclass(frozen=True)
class TargetGeometry:
    """What a scene's targets fix whatever its channels: the steering set,
    the Fisher operator (built by `metrics._fisher_operator`, read-only) and
    whether the Fisher matrix at R_x = I is nonsingular. That covariance has
    the largest null space of any, so when identifiable is False every
    beamformer's Fisher matrix is singular (repeated targets, for example)."""

    steering: SteeringSet
    operator: np.ndarray
    identifiable: bool


@functools.lru_cache(maxsize=GEOMETRY_CACHE)
def target_geometry(
    tx_geometry: ArrayGeometry, rx_geometry: ArrayGeometry, targets: tuple, slots: int, noise_radar: float
) -> TargetGeometry:
    """The target geometry of every scene with these fields, built once per
    process for each of the last GEOMETRY_CACHE distinct keys."""
    from . import metrics  # which imports this module

    az = np.array([t.azimuth for t in targets], dtype=float)
    el = np.array([t.elevation for t in targets], dtype=float)
    steering = SteeringSet(
        tx=_steering_columns(tx_geometry, az, el),
        rx=_steering_columns(rx_geometry, az, el),
        rcs=np.array([t.rcs for t in targets]),
    )
    operator = _numbers("Fisher operator", metrics._fisher_operator(steering, slots, noise_radar), complex, 2)
    widest = metrics.fim_matrix(operator, steering.tx.conj().T @ steering.tx)
    identifiable = np.linalg.matrix_rank(widest, hermitian=True) == widest.shape[0]
    return TargetGeometry(steering, operator, bool(identifiable))


_AZIMUTH_SPAN = 2.0 * np.pi / 3.0


def _rcs(nu):
    """`sample_scene`'s reflection coefficient at nu, a float or an array."""
    return 0.1 * (1.0 + 0.2 * nu) * np.exp(2j * np.pi * nu)


def philox(key: int) -> np.random.Generator:
    """The Philox stream keyed by an integer in [0, 2^64); ValueError otherwise."""
    if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or not 0 <= key < 2**64:
        raise ValueError(f"a seed must be an integer in [0, 2^64), got {key!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(key)))


def sample_scene(
    seed: int,
    *,
    tx_geometry: ArrayGeometry = ArrayGeometry(4, 4),
    rx_geometry: ArrayGeometry = ArrayGeometry(5, 4),
    n_users: int = 4,
    n_targets: Optional[int] = None,
    n_slots: int = 64,
    power_dbm: float = 10.0,
    noise_radar_dbm: float = 0.0,
    noise_comm_dbm: float = 0.0,
    channel_variance: float = 2.0,
    targets: Optional[Sequence[Target]] = None,
) -> Scene:
    """Draw a random scene, deterministically from the seed.

    Channels are i.i.d. circularly symmetric Gaussian (Rayleigh) with
    per-entry variance ``channel_variance``; the default of 2 (unit variance
    per real component) reproduces the published benchmark sum rates, while
    1.0 gives the textbook unit-variance model. Azimuths are uniform on
    (-2pi/3, 2pi/3) and elevations on (-pi/2, pi/2), the full declared
    domain; reflection coefficients follow 0.1 (1 + 0.2 nu) exp(2j pi nu)
    with nu uniform on (0, 1).

    n_targets defaults to 2 random targets, or to the number of explicit
    ``targets``, which override the random draw (the target stream is still
    consumed so channel realizations are unaffected); an explicit n_targets
    that differs from it is a ValueError.
    """
    check_integer("n_users", n_users, 0)
    targets = None if targets is None else tuple(targets)
    if n_targets is None:
        n_targets = 2 if targets is None else len(targets)
    check_integer("n_targets", n_targets, 0)
    if targets is not None and n_targets != len(targets):
        raise ValueError(f"n_targets={n_targets!r} but {len(targets)} explicit targets given")
    check_integer("n_slots", n_slots, 1)
    check_real("channel_variance", channel_variance, 0.0, open_low=True)
    rng = philox(seed)
    # a tx_geometry that is not an ArrayGeometry draws no channel rows and
    # reaches Scene, whose check names it
    n_tx = tx_geometry.n_elements if isinstance(tx_geometry, ArrayGeometry) else 0
    h = np.sqrt(channel_variance / 2.0) * (
        rng.standard_normal((n_tx, n_users)) + 1j * rng.standard_normal((n_tx, n_users))
    )
    azimuth = rng.uniform(-_AZIMUTH_SPAN, _AZIMUTH_SPAN, size=n_targets)
    elevation = rng.uniform(-np.pi / 2, np.pi / 2, size=n_targets)
    rcs = _rcs(rng.uniform(0.0, 1.0, size=n_targets))
    if targets is None:
        targets = tuple(
            Target(float(a), float(e), complex(r)) for a, e, r in zip(azimuth, elevation, rcs)
        )
    return Scene(
        tx_geometry=tx_geometry,
        rx_geometry=rx_geometry,
        channels=h,
        targets=targets,
        noise_comm=np.full(n_users, dbm_to_linear(noise_comm_dbm, "noise_comm_dbm")),
        noise_radar=dbm_to_linear(noise_radar_dbm, "noise_radar_dbm"),
        slots=n_slots,
        power_budget=dbm_to_linear(power_dbm, "power_dbm"),
    )


def benchmark_targets() -> tuple:
    """Fixed two-target geometry used for the statistical benchmark runs.

    Target angles drawn randomly per instance occasionally produce nearly
    unidentifiable geometries (the azimuth sensitivity scales with
    cos(azimuth) sin(elevation)), which makes the mean CRLB trace across
    instances diverge. Published aggregate figures therefore average over
    channel realizations with the target scene held fixed; this helper pins a
    representative well-conditioned geometry with reflection coefficients
    from `sample_scene`'s model at nu = 0.3 and 0.7.
    """
    return (
        Target(azimuth=0.25, elevation=0.29, rcs=complex(_rcs(0.3))),
        Target(azimuth=-0.31, elevation=0.40, rcs=complex(_rcs(0.7))),
    )


# --- serialization -----------------------------------------------------------

def _call(function, what: str, kwargs: dict):
    """function(**kwargs); a missing or unknown key, or function's ValueError, is a ValueError prefixed with what."""
    try:
        inspect.signature(function).bind(**kwargs)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None
    try:
        return function(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _target(azimuth, elevation, rcs_real, rcs_imag) -> Target:
    for name, part in (("rcs_real", rcs_real), ("rcs_imag", rcs_imag)):
        check_real(name, part)  # complex() would read true as 1
    return Target(azimuth, elevation, complex(rcs_real, rcs_imag))


def scene_from_config(config: dict) -> Scene:
    """Build a scene from a flat JSON-style dict of `sample_scene`'s arguments,
    with tx_geometry/rx_geometry as [nh, nv] and targets as a list of
    {azimuth, elevation, rcs_real, rcs_imag}. Only those are built here, by
    `_call`, so each ValueError of theirs names tx_geometry, rx_geometry or
    targets[i]; every other value goes to `sample_scene`, which checks it."""
    kwargs = dict(config)
    for key in ("tx_geometry", "rx_geometry"):
        if key in kwargs:
            if not (isinstance(kwargs[key], (list, tuple)) and len(kwargs[key]) == 2):
                raise ValueError(f"{key} must be a list [nh, nv], got {kwargs[key]!r}")
            kwargs[key] = _call(ArrayGeometry, key, dict(zip(("n_horizontal", "n_vertical"), kwargs[key])))
    if "targets" in kwargs:
        if not isinstance(kwargs["targets"], (list, tuple)):
            raise ValueError(f"targets must be a list, got {kwargs['targets']!r}")
        kwargs["targets"] = tuple(_call(_target, f"targets[{i}]", t) for i, t in enumerate(kwargs["targets"]))
    return _call(sample_scene, "scene config", kwargs)
