"""Property-test harness for the sparseness implications.

Each check compares a norm premise against its threshold and then measures
the claimed conclusion (semi-mixedness of the six super-level sets).  The
headline property is soundness: whenever the premise holds, the conclusion
must hold; a report that fails the implication indicates a defect in the
constants, kernels, or discretization margins.

Both sides of every premise are degree-1 homogeneous in the field, so
amplitude rescaling can never change a verdict (this is asserted as a test
property).  Whether the premise is satisfiable at all on a given grid is a
question of field geometry: the derived thresholds are small, so on desk-size
grids the random ensemble typically falsifies the premise and passes the
implication vacuously.  Sweep summaries therefore report how many cases held
the premise, and the constructed counterexample exercises the contrapositive
quantitatively: it violates semi-mixedness and is guaranteed to break the
premise, with a wide measured margin.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from itertools import product

import numpy as np

from .fields import random_solenoidal_field, vorticity_blob
from .grid import (
    Grid3,
    MaskSpectra,
    VectorField,
    _rfftn,
    ball_power_from_spectrum,
    biot_savart,
    curl,
    magnitude_power,
    sup_norm,
)
from .morrey import MorreyParams, WeightSpec, decay_exponent, gm_norm, log_scale_nodes
from .sparseness import (
    PairLD,
    admissible_pair,
    cstar,
    eps_const,
    kappa,
    max_densities,
    ramp_fraction,
    shell_exponent,
    superlevel_spectra,
)

#: relative guard band: a premise that holds by less than this margin is
#: flagged marginal (discretization error could flip it on the continuum)
GUARD_BAND = 0.05


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one implication check."""

    premise_lhs: float
    premise_rhs: float
    premise_holds: bool
    conclusion_holds: bool
    per_set_densities: tuple[float, ...]
    params: dict
    marginal: bool = False
    degenerate: bool = False

    @property
    def verdict(self) -> bool:
        """Pass iff the implication (premise => conclusion) is unviolated."""
        return (not self.premise_holds) or self.conclusion_holds


class _L2State:
    """What the implication checks need of one field, built once and shared
    by consecutive calls on it: the vorticity and its sup norm, the spectrum
    of |f|^2 (on first use) with the premise value per scale, and the
    super-level mask spectra of the last threshold.  A copy of the data
    detects in-place edits."""

    def __init__(self, f: VectorField):
        self.field = weakref.ref(f)
        self.grid = f.grid
        self.data = f.data.copy()
        self.omega = curl(f)
        self.omega_sup = sup_norm(self.omega)
        self.power_hat = None
        self.lhs: dict[float, float] = {}
        self.lam: float | None = None
        self.spectra: list[MaskSpectra] = []

    def matches(self, f: VectorField) -> bool:
        return self.field() is f and np.array_equal(self.data, f.data)

    def premise_lhs(self, r: float) -> float:
        """sup_x ||f||_{L^2(B_r(x))}, as ``sliding_ball_lp(f, 2, r)`` computes it."""
        if r not in self.lhs:
            if self.power_hat is None:
                self.power_hat = _rfftn(magnitude_power(self.field(), 2.0))
            power = ball_power_from_spectrum(self.grid, self.power_hat, r)
            power **= 0.5
            self.lhs[r] = float(power.max())
        return self.lhs[r]

    def mask_spectra(self, lam: float) -> list[MaskSpectra]:
        if lam != self.lam:
            self.spectra = []  # free the old spectra before building new ones
            self.spectra = superlevel_spectra(self.omega, lam)
            self.lam = lam
        return self.spectra


#: one _L2State per thread, for the field it saw last
_l2_memo = threading.local()


def _l2_state(f: VectorField) -> _L2State:
    state = getattr(_l2_memo, "state", None)
    if state is not None and state.matches(f):
        return state
    state = _l2_memo.state = None  # free the old entry before building the new one
    _l2_memo.state = state = _L2State(f)
    return state


def _report(lhs: float, rhs: float, sup: float, spectra, radius: float, delta: float,
            params: dict, guard: float) -> VerifyReport:
    """The report of one implication check from its premise sides: a
    degenerate pass when the thresholded field vanishes (nothing to
    threshold), else the six super-level densities at ``radius``, from the
    mask spectra that ``spectra()`` returns, against ``delta``."""
    holds = lhs <= rhs
    if sup == 0.0:
        return VerifyReport(lhs, rhs, holds, True, (0.0,) * 6, params, degenerate=True)
    densities = max_densities(spectra(), radius)
    conclusion = all(d <= delta for d in densities)
    marginal = holds and lhs > (1.0 - guard) * rhs
    return VerifyReport(lhs, rhs, holds, conclusion, densities, params, marginal=marginal)


def check_lemma_l2(f: VectorField, pair: PairLD, r: float, cal: float | None = None,
                   guard: float = GUARD_BAND) -> VerifyReport:
    """L^2 implication: sup_x ||f||_{L^2(B_r(x))} <= c* r^(5/2) ||curl f||_inf
    forces every super-level set of curl f to be (kappa r)-semi-mixed with
    ratio delta.

    Work that depends only on the field (or on the field and lambda) is kept
    for the next call on the same field object, so loop field-major."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {r}")
    state = _l2_state(f)
    lhs = state.premise_lhs(r)
    rhs = cstar(pair, cal) * r**2.5 * state.omega_sup
    params = {"lambda": pair.lam, "delta": pair.delta, "r": r, "mode": "l2"}
    return _report(lhs, rhs, state.omega_sup, lambda: state.mask_spectra(pair.lam),
                   kappa(pair) * r, pair.delta, params, guard)


def check_lemma_gm(f: VectorField, pair: PairLD, p: float, theta: float, alpha: float,
                   rho: float, r: float, mode: str = "curl", cal: float | None = None,
                   guard: float = GUARD_BAND, scale_count: int = 32) -> VerifyReport:
    """Morrey-type implication: a small global weighted norm of f forces every
    super-level set of curl f (mode "curl") or of f itself (mode "identity")
    to be r-semi-mixed with ratio delta."""
    if mode not in ("curl", "identity"):
        raise ValueError(f"mode must be 'curl' or 'identity', got {mode!r}")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {r}")
    r_cap = 0.95 / (1.0 + ramp_fraction(pair))
    if r > r_cap:
        # the widened cutoff shell would cross the weight-support end, where
        # the pairing functional diverges and no threshold is sound
        raise ValueError(f"scale {r} exceeds the soundness cap {r_cap:.4f} "
                         "for this pair (cutoff shell must stay inside the "
                         "weight support)")
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    state = _l2_state(f) if mode == "curl" else None
    base_sup = state.omega_sup if state else sup_norm(f)
    weight = WeightSpec(nu=alpha, rho=rho, theta=theta)
    params_obj = MorreyParams(p, weight, log_scale_nodes(f.grid, rho, 1.0, scale_count))
    lhs = gm_norm(f, params_obj).value
    eps = eps_const(pair, p, theta, alpha, cal=cal, rho=rho)
    rhs = float(eps * max(r, rho) ** -decay_exponent(alpha, theta)
                * r ** shell_exponent(p, mode) * base_sup)
    params = {"lambda": pair.lam, "delta": pair.delta, "r": r, "p": p,
              "theta": theta, "alpha": alpha, "rho": rho, "mode": mode}

    def spectra():
        return state.mask_spectra(pair.lam) if state else superlevel_spectra(f, pair.lam)

    return _report(lhs, rhs, base_sup, spectra, r, pair.delta, params, guard)


class ScaleTooSmallError(ValueError):
    """Construction scale falls under the grid resolution floor."""


def counterexample_field(r: float, pair: PairLD, grid: Grid3,
                         center: tuple[int, int, int] | None = None,
                         sigma_factor: float = 1.5) -> VectorField:
    """Velocity field whose vorticity defeats (kappa r)-semi-mixedness.

    The vorticity is a coherent axis-aligned blob whose first component
    exceeds lambda ||w||_inf on all of B_{kappa r}(center) (density 1 there),
    reconstructed to a velocity through the periodic curl inverse.  The
    implication's contrapositive then guarantees the L^2 premise fails.
    """
    kap = kappa(pair)
    if kap * r < 4.0 * grid.spacing:
        raise ScaleTooSmallError(
            f"kappa*r = {kap * r:.4f} under-resolved (need >= 4 spacing = {4 * grid.spacing:.4f})")
    if center is None:
        center = (grid.n // 2, grid.n // 2, grid.n // 2)
    sigma = sigma_factor * kap * r
    omega = vorticity_blob(grid, center, sigma, axis=(1.0, 0.0, 0.0))
    return biot_savart(omega)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Cartesian sweep grid for implication checks.

    ``lemma`` selects the premise family ("l2" or "gm"); gm sweeps also take
    exponent lists.  ``adversarial`` appends one counterexample field per
    (delta, scale) cell.
    """

    lemma: str = "l2"
    n: int = 32
    deltas: tuple[float, ...] = (0.75,)
    scales: tuple[float, ...] = (0.2, 0.5)
    seeds: tuple[int, ...] = tuple(range(20))
    kmax: int = 8
    modes: tuple[str, ...] = ("curl",)
    thetas: tuple[float, ...] = (math.inf,)
    p: float = 2.0
    alphas: tuple[float, ...] = (0.5,)
    rho: float = 0.05
    adversarial: bool = False
    box_len: float = 2.0 * math.pi

    def __post_init__(self) -> None:
        if self.lemma not in ("l2", "gm"):
            raise ValueError(f"lemma must be 'l2' or 'gm', got {self.lemma!r}")


@dataclass
class SweepSummary:
    total: int = 0
    premise_holding: int = 0
    degenerate: int = 0
    marginal: int = 0
    violations: int = 0
    marginal_violations: int = 0


def sweep(config: SweepConfig, threads: int = 1) -> list[VerifyReport]:
    """Run the full Cartesian grid; reports are ordered by parameter index.

    Each field is built once and checked over all of its cells back to back,
    so :func:`check_lemma_l2` reuses its per-field work.  ``threads`` sizes
    the worker pool, which takes whole fields; ordering and values are
    independent of the pool size.
    """
    grid = Grid3(config.n, config.box_len)
    variants = [None] if config.lemma == "l2" else list(
        product(config.thetas, config.alphas, config.modes))
    # field key -> [(report index, pair, r, variant)], in report order
    field_cells: dict[tuple, list] = {}
    index = 0
    for delta in config.deltas:
        pair = admissible_pair(delta)
        for r in config.scales:
            keys = [("seed", seed) for seed in config.seeds]
            if config.adversarial and kappa(pair) * r >= 4.0 * grid.spacing:
                keys.append(("counterexample", pair, r))
            for key in keys:
                for variant in variants:
                    field_cells.setdefault(key, []).append((index, pair, r, variant))
                    index += 1

    def check_field(item) -> list[tuple[int, VerifyReport]]:
        key, cells = item
        if key[0] == "seed":
            f = random_solenoidal_field(grid, config.kmax, key[1])
        else:
            f = counterexample_field(key[2], key[1], grid)
        out = []
        for i, pair, r, variant in cells:
            if variant is None:
                rep = check_lemma_l2(f, pair, r)
            else:
                theta, alpha, mode = variant
                rep = check_lemma_gm(f, pair, config.p, theta, alpha, config.rho, r, mode)
            out.append((i, rep))
        return out

    if threads <= 1:
        done = [check_field(item) for item in field_cells.items()]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(check_field, field_cells.items()))
    indexed = [item for out in done for item in out]
    indexed.sort(key=lambda item: item[0])
    return [rep for _, rep in indexed]


def summarize(reports: list[VerifyReport]) -> SweepSummary:
    s = SweepSummary(total=len(reports))
    for rep in reports:
        s.premise_holding += rep.premise_holds and not rep.degenerate
        s.degenerate += rep.degenerate
        s.marginal += rep.marginal
        if not rep.verdict:
            if rep.marginal:
                s.marginal_violations += 1
            else:
                s.violations += 1
    return s
