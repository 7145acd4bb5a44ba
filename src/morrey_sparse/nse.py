"""Pseudo-spectral incompressible Navier-Stokes on the periodic box, plus the
dynamic restricted-Morrey criterion evaluators.

The stepper is integrating-factor RK4 (the viscous factor is exact, so pure
Fourier-mode decay is reproduced to rounding), with a 2/3-rule dealiased
convective term and Leray projection; viscosity is fixed at 1.  The state
holds only the modes the 2/3 rule retains, real in the cos/sin basis, and
its transforms are BLAS products with one pruned DFT matrix pair.  Decaying box
flows have no escape times, so criterion evaluation also accepts
user-selected reference times; the evaluated quantities are the point, not
the blow-up dichotomy.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np

from .fields import random_solenoidal_field
from .grid import (
    FieldFileError,
    Grid3,
    ParameterError,
    VectorField,
    _irfftn_block,
    _rfftn_block,
    curl,
    curl_hat,
    load_field,
    project_hat,
    read_field_header,
    save_field,
    sup_norm,
    wavenumbers,
)
from .morrey import MorreyParams, WeightSpec, _ShellBounds, decay_exponent, gm_norm
from .sparseness import shell_exponent

VISCOSITY = 1.0


class SolverInstabilityError(RuntimeError):
    """Non-finite state detected; carries the last good time."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(message)
        self.last_good_time = last_good_time


class SchedulingError(RuntimeError):
    """Criterion window holds too few snapshots for the inf."""


class TimeRangeError(ParameterError):
    """Criterion reference time outside the trajectory's time range."""


class TrajectoryFileError(FieldFileError):
    """A malformed ``meta.json`` or ``series.csv``, or a snapshot header that
    disagrees with ``meta.json``."""


@dataclass(frozen=True)
class SolverConfig:
    n: int
    dt: float
    t_end: float
    ic: str = "taylor-green"
    ic_params: dict = field(default_factory=dict)
    snapshot_every: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < math.inf and 0.0 < self.t_end < math.inf):
            raise ParameterError(f"dt={self.dt} and t_end={self.t_end} must be finite and > 0")
        if self.snapshot_every < 1 or self.seed < 0:
            raise ParameterError(f"need snapshot_every >= 1, seed >= 0: {self.snapshot_every}, {self.seed}")


class SnapshotFiles(Sequence):
    """The snapshots of a trajectory directory as a sequence of (t, field)
    pairs.  The times are known up front; indexing reads that one snapshot's
    file, so a caller holds no more fields than it keeps."""

    def __init__(self, directory, entries: list[tuple[float, str]]):
        self.directory = Path(directory)
        self.entries = entries  # (t, file name) per snapshot

    def paths(self) -> list[Path]:
        return [self.directory / name for _, name in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> tuple[float, VectorField]:
        t, name = self.entries[i]
        return t, load_field(self.directory / name)


@dataclass
class Trajectory:
    """Solver output: periodic snapshots plus per-step norm series.

    ``snapshots`` is a list of (t, field) pairs for a run held in memory, or
    the :class:`SnapshotFiles` of a run streamed to or loaded from a
    directory; ``files`` then lists the run's files (series.csv, the
    snapshot files, meta.json)."""

    grid: Grid3
    series: dict[str, np.ndarray]
    snapshots: Sequence[tuple[float, VectorField]]
    snapshot_times: list[float]  # known without loading any field
    files: list[Path] = field(default_factory=list)

    def series_at(self, t: float, column: str) -> float:
        ts = self.series["t"]
        idx = int(np.argmin(np.abs(ts - t)))
        return float(self.series[column][idx])


SERIES_COLUMNS = ("t", "u_sup", "omega_sup", "energy", "enstrophy")


def initial_condition(name: str, grid: Grid3, params: dict | None = None,
                      seed: int = 0) -> VectorField:
    """Built-in initial flows: shear, taylor-green, abc (A = B = C = 1),
    random.  ``params`` may set ``amplitude`` (every flow) and ``kmax``
    (read by random only); any other key is a ``ParameterError``."""
    params = dict(params or {})
    amp = float(params.pop("amplitude", 1.0))
    kmax = params.pop("kmax", max(2, grid.n // 8))
    if params:
        raise ParameterError(f"unknown initial-condition parameters {sorted(params)}")
    x = grid.axis_coords()
    X, Y, Z = x[:, None, None], x[None, :, None], x[None, None, :]
    shape = grid.shape
    if name == "shear":
        data = np.zeros((3,) + shape)
        data[0] = amp * np.broadcast_to(np.sin(Y), shape)
        return VectorField._adopt(grid, data)
    if name == "taylor-green":
        data = np.zeros((3,) + shape)
        data[0] = amp * np.sin(X) * np.cos(Y) * np.cos(Z)
        data[1] = -amp * np.cos(X) * np.sin(Y) * np.cos(Z)
        return VectorField._adopt(grid, data)
    if name == "abc":
        data = np.empty((3,) + shape)
        data[0] = amp * (np.sin(Z) + np.cos(Y))
        data[1] = amp * (np.sin(X) + np.cos(Z))
        data[2] = amp * (np.sin(Y) + np.cos(X))
        return VectorField._adopt(grid, data)
    if name == "random":
        return random_solenoidal_field(grid, int(kmax), seed, amplitude=amp)
    raise ParameterError(f"unknown initial condition {name!r}")


def simulate(config: SolverConfig, out=None) -> Trajectory:
    """Integrate the incompressible momentum equation from the configured flow.

    Integrating-factor RK4 on the 2/3 block |i|, |j|, |k| < n/3 (outside it
    the dealiased convective term is zero, so a random start needs ``kmax``
    below n/3), convective term Leray-projected.  Snapshots are taken every
    ``snapshot_every`` steps (plus t = 0 and the final time); the norm series
    is recorded at every step.  The state is the block's real cos/sin
    spectrum.  A step costs 36 block transforms (``grid.BLOCK_TRANSFORMS``):
    the physical u and omega that record a state also feed the next step's
    first stage.  A non-finite initial condition raises
    ``NonFiniteDataError`` (a ValueError) before the first step.

    Without ``out`` the snapshots are kept in memory.  With a directory
    ``out``, each snapshot file is written as soon as the snapshot is taken,
    in the :func:`save_trajectory` format, and the returned trajectory reads
    its snapshots back from there on demand, so memory does not grow with the
    snapshot count; ``series.csv`` and ``meta.json`` follow at the end.  A run
    that fails (``SolverInstabilityError``) leaves no ``meta.json``, so its
    directory does not load as a trajectory.
    """
    grid = Grid3(config.n)
    if config.ic == "random" and config.ic_params.get("kmax", 0) >= grid.n / 3.0:
        raise ParameterError(f"kmax={config.ic_params['kmax']} must lie below n/3 = "
                             f"{grid.n / 3.0:.4g}, the modes the 2/3 rule retains")
    u0 = initial_condition(config.ic, grid, config.ic_params, config.seed)
    u0.validate_finite()
    cfl = 0.5 * grid.spacing / max(1.0, sup_norm(u0))
    if config.dt > cfl:
        raise ParameterError(f"dt={config.dt} violates the step bound {cfl:.3e}")

    k = wavenumbers(grid, block=True)
    half = np.exp(-VISCOSITY * (k.kx**2 + k.ky**2 + k.kz**2) * config.dt / 2.0)
    full = half * half
    # project the initial data; analytic ICs are solenoidal already
    uh = project_hat(_rfftn_block(u0.data), k)
    buf = np.empty((4,) + grid.shape)  # the cross product and one spare slab

    nsteps = int(round(config.t_end / config.dt))
    rows = {name: [] for name in SERIES_COLUMNS}
    snapshots: list[tuple[float, VectorField]] = []
    snapshot_times: list[float] = []
    writer = None if out is None else _TrajectoryWriter(out)

    def record(step: int, t: float, uh_now):
        u_phys, w_phys = _physical(uh_now, k, grid.n)
        umag2 = np.einsum("cijk,cijk->ijk", u_phys, u_phys)
        wmag2 = np.einsum("cijk,cijk->ijk", w_phys, w_phys)
        rows["t"].append(t)
        rows["u_sup"].append(math.sqrt(float(umag2.max())))
        rows["omega_sup"].append(math.sqrt(float(wmag2.max())))
        rows["energy"].append(0.5 * float(umag2.sum()) * grid.voxel_volume)
        rows["enstrophy"].append(0.5 * float(wmag2.sum()) * grid.voxel_volume)
        if step % config.snapshot_every == 0 or step == nsteps:
            snap = VectorField._adopt(grid, u_phys)
            snapshot_times.append(t)
            if writer is None:
                snapshots.append((t, snap))
            else:
                writer.snapshot(t, snap)
        return u_phys, w_phys

    def stage(uh_stage):
        return _nonlinear(*_physical(uh_stage, k, grid.n), k, buf)

    u_w = record(0, 0.0, uh)
    t = 0.0
    for step in range(1, nsteps + 1):
        n1 = _nonlinear(*u_w, k, buf)
        n2 = stage(half * (uh + 0.5 * config.dt * n1))
        n3 = stage(half * uh + 0.5 * config.dt * n2)
        n4 = stage(full * uh + config.dt * half * n3)
        uh = full * uh + (config.dt / 6.0) * (full * n1 + 2.0 * half * (n2 + n3) + n4)
        t = step * config.dt
        if not np.isfinite(uh).all():
            raise SolverInstabilityError(f"non-finite state at t={t:.6f} (last good time "
                                         f"t={t - config.dt:.6f})", t - config.dt)
        u_w = record(step, t, uh)

    series = {name: np.asarray(vals) for name, vals in rows.items()}
    if writer is None:
        return Trajectory(grid, series, snapshots, snapshot_times)
    files = writer.finish(grid, series)
    return Trajectory(grid, series, writer.snapshots, snapshot_times, files)


def _physical(uh, k, n: int):
    """Physical u and omega of a 2/3-block velocity spectrum."""
    return _irfftn_block(uh, n), _irfftn_block(curl_hat(uh, k), n)


def _nonlinear(u, w, k, buf):
    """P[u x omega] on the 2/3 block, from physical u and omega; the cross
    product is written into ``buf[:3]``, with ``buf[3]`` as a spare slab.

    Rotational form: (u . grad)u = omega x u + grad(|u|^2/2); the gradient
    part is absorbed into pressure by the projection, so P[u x omega] is the
    projected convective term with a third fewer transforms.
    """
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(u[a], w[b], out=buf[c])
        np.multiply(u[b], w[a], out=buf[3])
        buf[c] -= buf[3]
    return project_hat(_rfftn_block(buf[:3]), k)


# ---------------------------------------------------------------------------
# escape times and the dynamic criterion
# ---------------------------------------------------------------------------


def detect_escape_times(series: dict[str, np.ndarray], which: str = "u") -> list[float]:
    """Sample times whose norm every strictly later sample exceeds.

    Discrete stand-in for the escape-time definition; the final sample never
    qualifies.  ``which`` selects the u or omega sup-norm series.
    """
    col = {"u": "u_sup", "omega": "omega_sup"}.get(which)
    if col is None:
        raise ParameterError(f"which must be 'u' or 'omega', got {which!r}")
    t, v = np.asarray(series["t"]), np.asarray(series[col])
    if t.size == 0:
        raise ValueError("empty series")
    later = np.minimum.accumulate(v[:0:-1])[::-1]  # the min of v[k+1:] at k
    return [float(tk) for tk, vk, m in zip(t, v, later) if vk < m]


class DissipationScale(NamedTuple):
    value: float
    clipped: bool


def dissipation_scale(norm: float, beta: float, c: float, grid: Grid3) -> DissipationScale:
    """eta = c * norm^(-beta), clipped to [2 spacing, 1]; clipping is flagged."""
    if norm <= 0.0:
        raise ValueError("norm must be positive")
    raw = c * norm ** (-beta)
    val = min(max(raw, 2.0 * grid.spacing), 1.0)
    return DissipationScale(val, val != raw)


@dataclass(frozen=True)
class CriterionSpec:
    """Parameters of the dynamic restricted-Morrey criterion.

    ``field_mode`` picks the measured field (u or omega); ``reference`` the
    norm entering the cutoff and threshold (defaults to omega); the threshold
    exponent family is "curl" when the thresholded field is the curl of the
    measured one, "identity" otherwise (resolved automatically).
    """

    alpha: float
    beta: float
    nu_w: float
    p: float = 2.0
    theta: float = math.inf
    c: float = 1.0
    c0: float = 2.0
    eps0: float = 0.1
    field_mode: str = "u"
    window_mode: str = "vorticity"
    reference: str = "omega"
    #: scale nodes of each snapshot's weighted global norm
    scale_count: ClassVar[int] = 24

    def __post_init__(self) -> None:
        if self.field_mode not in ("u", "omega"):
            raise ParameterError("field_mode must be 'u' or 'omega'")
        if self.window_mode not in ("velocity", "vorticity"):
            raise ParameterError("window_mode must be 'velocity' or 'vorticity'")
        if self.reference not in ("u", "omega"):
            raise ParameterError("reference must be 'u' or 'omega'")
        if not 1.0 < self.c0 < math.inf:
            raise ParameterError(f"c0 must lie in (1, inf), got {self.c0}")
        if not 0.0 < self.c < math.inf:
            raise ParameterError(f"c must be positive and finite, got {self.c}")
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("eps0", self.eps0)):
            if not 0.0 <= value < math.inf:
                raise ParameterError(f"{name} must be finite and nonnegative, got {value}")
        WeightSpec(nu=self.nu_w, theta=self.theta)  # checks nu_w and theta
        if math.isfinite(self.theta) and not self.nu_w * self.theta > 1.0:
            raise ParameterError("need nu_w * theta > 1 for finite theta")

    @property
    def exponent_mode(self) -> str:
        return "curl" if (self.field_mode == "u" and self.reference == "omega") else "identity"


def criterion_exponent(spec: CriterionSpec) -> float:
    """Threshold exponent on the reference norm.

    min(alpha, beta) * K - alpha * S + 1 with K = nu (theta = inf) or
    (nu theta - 1)/theta, and S = 4 - 3/p' (curl family) or 3 - 3/p'."""
    return (min(spec.alpha, spec.beta) * decay_exponent(spec.nu_w, spec.theta)
            - spec.alpha * shell_exponent(spec.p, spec.exponent_mode) + 1.0)


@dataclass(frozen=True)
class CriterionReport:
    s_star: float
    lhs: float
    rhs: float
    exponent: float
    satisfied: bool
    scale_window: tuple[float, float]
    witness: tuple[tuple[int, int, int], float | None]
    eta_clipped: bool
    window: tuple[float, float]
    rows: tuple[tuple, ...]  # (t, eta, lhs, rhs, satisfied) per snapshot in the window


def evaluate_criterion(traj: Trajectory, t_escape: float, spec: CriterionSpec) -> CriterionReport:
    """The report of the window opened at ``t_escape``; see :func:`evaluate_criteria`."""
    return evaluate_criteria(traj, [t_escape], spec)[0]


def evaluate_criteria(traj: Trajectory, times, spec: CriterionSpec) -> list[CriterionReport]:
    """Evaluate the restricted criterion over the window opened at each time.

    A window's report takes the min over its snapshots of the weighted global
    norm of the measured field (weight cutoff at the dynamic dissipation
    scale) against eps0 times the reference norm to the criterion exponent.
    Every time and window is checked before any norm is computed.  Windows
    pick their snapshots by time alone, so a field outside every window is
    never read; each window snapshot is indexed once and its row is shared
    by the windows that hold it.  At theta = inf a row's shell search starts
    from the previous row's bounds scaled to its mass (``_ShellBounds``, one
    per call): the bench's n=32 rows take 40 shell transforms, not 210."""
    ts = traj.series["t"]
    windows = []
    for t_ref in times:
        if not (ts[0] - 1e-12 <= t_ref <= ts[-1] + 1e-12):
            raise TimeRangeError(f"time {t_ref} outside the trajectory range [{ts[0]}, {ts[-1]}]")
        scale = (spec.c0 * traj.series_at(t_ref, "omega_sup") if spec.window_mode == "vorticity"
                 else (spec.c0 * traj.series_at(t_ref, "u_sup")) ** 2)
        w_lo, w_hi = t_ref + 1.0 / (4.0 * scale), t_ref + 1.0 / scale
        idx = [i for i, t in enumerate(traj.snapshot_times) if w_lo - 1e-12 <= t <= w_hi + 1e-12]
        if len(idx) < 3:
            raise SchedulingError(
                f"{len(idx)} snapshots in window [{w_lo:.4f}, {w_hi:.4f}]; need >= 3 "
                "(raise the snapshot cadence)")
        windows.append(((w_lo, w_hi), idx))
    exponent = criterion_exponent(spec)
    rows = {}  # snapshot index -> (ratio, row, gm, eta)
    bounds = _ShellBounds(traj.grid, spec.p)
    for i in sorted({i for _, idx in windows for i in idx}):
        t, u_s = traj.snapshots[i]
        ref = traj.series_at(t, f"{spec.reference}_sup")
        eta = dissipation_scale(ref, spec.beta, spec.c, traj.grid)
        measured = u_s if spec.field_mode == "u" else curl(u_s)
        # a cutoff at exactly 1 collapses the scale window; keep half a voxel
        # of support so the quantity stays defined (the report still carries
        # the true eta and its clip flag)
        rho_w = min(eta.value, 1.0 - 0.5 * traj.grid.spacing)
        weight = WeightSpec(nu=spec.nu_w, rho=rho_w, theta=spec.theta)
        params = MorreyParams.default(traj.grid, weight, p=spec.p, count=spec.scale_count)
        gm = gm_norm(measured, params, bounds=bounds)
        rhs = spec.eps0 * ref**exponent
        ratio = 0.0 if gm.value == 0.0 else (math.inf if rhs == 0.0 else gm.value / rhs)
        rows[i] = (ratio, (t, eta.value, gm.value, rhs, ratio <= 1.0), gm, eta)
    reports = []
    for window, idx in windows:
        # min keeps the first minimum ratio in window order
        ratio, (s_star, _, _, rhs, _), gm, eta = min((rows[i] for i in idx),
                                                     key=lambda row: row[0])
        reports.append(CriterionReport(
            s_star=s_star, lhs=gm.value, rhs=rhs, exponent=exponent, satisfied=ratio <= 1.0,
            scale_window=(eta.value, 1.0), witness=(gm.center, gm.scale),
            eta_clipped=eta.clipped, window=window, rows=tuple(rows[i][1] for i in idx)))
    return reports


# ---------------------------------------------------------------------------
# trajectory I/O (series CSV + snapshot field files)
# ---------------------------------------------------------------------------


class _TrajectoryWriter:
    """The one writer of the trajectory directory format: a field file per
    snapshot (time in the name) as each comes, then ``series.csv`` and
    ``meta.json``.  ``meta.json`` indexes the run and is written last, and an
    old one is removed first, so a run that stops early leaves no directory
    that loads as a trajectory."""

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / "meta.json").unlink(missing_ok=True)
        self.snapshots = SnapshotFiles(self.outdir, [])  # the files written so far

    def snapshot(self, t: float, f: VectorField) -> None:
        name = f"u_t{t:.9f}.fld"
        save_field(f, self.outdir / name)
        self.snapshots.entries.append((t, name))

    def finish(self, grid: Grid3, series: dict[str, np.ndarray]) -> list[Path]:
        """Write series.csv and meta.json; return every file of the run:
        series.csv, the snapshot files, meta.json."""
        series_path = write_series(self.outdir / "series.csv",
                                   {c: series[c] for c in SERIES_COLUMNS})
        meta = {
            "n": grid.n,
            "box_len": grid.box_len,
            "snapshots": [{"t": t, "file": name} for t, name in self.snapshots.entries],
            "series": series_path.name,
        }
        meta_path = self.outdir / "meta.json"
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        return [series_path, *self.snapshots.paths(), meta_path]


def write_series(path, columns: dict) -> Path:
    """Write a CSV of one column per entry, LF line ends: a float at 17
    significant digits, a bool as True/False and None as a blank."""
    def cell(v) -> str:
        return "" if v is None else str(v) if isinstance(v, (bool, np.bool_)) else format(v, ".17g")

    path = Path(path)
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(map(cell, row)) + "\n")
    return path


def save_trajectory(traj: Trajectory, outdir) -> list[Path]:
    """Write series.csv, snapshot field files (time in the name), meta.json."""
    writer = _TrajectoryWriter(outdir)
    for t, f in traj.snapshots:
        writer.snapshot(t, f)
    return writer.finish(traj.grid, traj.series)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_times(ts: np.ndarray, path: Path) -> None:
    if not (np.isfinite(ts).all() and (np.diff(ts) > 0.0).all()):
        raise TrajectoryFileError(f"{path}: times must be finite and strictly increasing")


def load_trajectory(indir) -> Trajectory:
    """A saved trajectory whose snapshots load on demand (:class:`SnapshotFiles`).

    The series is read now.  ``meta.json`` must hold its keys with their
    types, the series and snapshot times must be finite and strictly
    increasing, every series column must be present and finite, and every
    listed snapshot file must exist and carry a 3-component field on the
    grid of ``meta.json`` (its header alone is read).  A malformed file
    raises :class:`TrajectoryFileError`, a missing one ``FileNotFoundError``;
    a corrupt payload raises ``FieldFileError`` when it is first indexed."""
    indir = Path(indir)
    meta_path = indir / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
        n, box_len, series_name = meta["n"], meta["box_len"], meta["series"]
        entries = [(e["t"], e["file"]) for e in meta["snapshots"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise TrajectoryFileError(f"{meta_path} is malformed: {exc!r}") from exc
    if not (type(n) is int and _is_real(box_len) and isinstance(series_name, str)
            and all(_is_real(t) and isinstance(name, str) for t, name in entries)):
        raise TrajectoryFileError(f"{meta_path} holds a key of the wrong type")
    try:
        grid = Grid3(n, float(box_len))
    except ValueError as exc:
        raise TrajectoryFileError(f"{meta_path} declares an invalid grid: {exc}") from exc
    snapshots = SnapshotFiles(indir, [(float(t), name) for t, name in entries])
    times = [t for t, _ in snapshots.entries]
    _check_times(np.array(times), meta_path)
    series: dict[str, list[float]] = {c: [] for c in SERIES_COLUMNS}
    series_path = indir / series_name
    if not series_path.is_file():
        raise FileNotFoundError(f"series file {series_path} named in {meta_path} is missing")
    with open(series_path, newline="") as fh:
        try:
            for row in csv.DictReader(fh):
                for c in SERIES_COLUMNS:
                    series[c].append(float(row[c]))
        except (ValueError, KeyError, TypeError) as exc:
            raise TrajectoryFileError(f"{series_path} is malformed: {exc!r}") from exc
    arrays = {c: np.asarray(v) for c, v in series.items()}
    if not (arrays["t"].size and all(np.isfinite(a).all() for a in arrays.values())):
        raise TrajectoryFileError(f"{series_path} holds no rows or a non-finite value")
    _check_times(arrays["t"], series_path)
    snaps = snapshots.paths()
    for path in snaps:
        if not path.is_file():
            raise FileNotFoundError(f"snapshot file {path} listed in {meta_path} is missing")
        with open(path, "rb") as fh:
            if read_field_header(fh) != (grid, 3):
                raise TrajectoryFileError(f"{path} does not hold a 3-component field on "
                                          f"the grid of {meta_path} ({grid})")
    return Trajectory(grid, arrays, snapshots, times, [series_path, *snaps, meta_path])
