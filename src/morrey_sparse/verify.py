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
from dataclasses import dataclass
from itertools import product

from .fields import random_solenoidal_field, vorticity_blob
from .grid import (
    Grid3,
    ParameterError,
    VectorField,
    VoxelSet,
    ball_power_from_spectrum,
    biot_savart,
    curl,
    magnitude_power,
    power_spectrum,
    sup_norm,
)
from .morrey import MorreyParams, WeightSpec, decay_exponent, gm_norm
from .sparseness import (
    PairLD,
    admissible_pair,
    cstar,
    eps_const,
    kappa,
    semi_mixed,
    shell_exponent,
    soundness_cap,
    superlevel_sets,
)

#: relative guard band: a premise that holds by less than this margin is
#: flagged marginal (discretization error could flip it on the continuum)
GUARD_BAND = 0.05

#: counterexample blob width, in units of kappa r
SIGMA_FACTOR = 1.5


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one implication check.

    A check whose premise fails has its verdict without the conclusion, so
    unless densities were requested it skips them: ``conclusion_holds`` is
    None and ``per_set_densities`` is empty.
    """

    premise_lhs: float
    premise_rhs: float
    premise_holds: bool
    conclusion_holds: bool | None
    per_set_densities: tuple[float, ...]
    params: dict
    marginal: bool = False
    degenerate: bool = False

    @property
    def verdict(self) -> bool:
        """Pass iff the implication (premise => conclusion) is unviolated."""
        return (not self.premise_holds) or self.conclusion_holds


class _FieldState:
    """What the implication checks need of one field, built once and shared
    by consecutive calls on it: in one memo, curl f, each mode's sup norm,
    the spectrum of |f|^2 and the premise value per L^2 scale or Morrey-type
    (p, theta, alpha, rho); apart from it, per mode the super-level sets
    (with their mask spectra) of the last threshold only, which bounds a
    sweep's memory.  Fields are read-only values, so the field object alone
    identifies the state."""

    def __init__(self, f: VectorField):
        self.field = f
        self.memo: dict = {}
        self.sets: dict[str, tuple[float, list[VoxelSet]]] = {}

    def get(self, key, make):
        """The value kept under ``key``, made by ``make()`` on first use."""
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]

    def thresholded(self, mode: str) -> VectorField:
        """curl f (mode "curl") or f ("identity")."""
        if mode == "identity":
            return self.field
        return self.get("curl", lambda: curl(self.field))

    def sup(self, mode: str) -> float:
        return self.get(("sup", mode), lambda: sup_norm(self.thresholded(mode)))

    def premise_lhs(self, r: float) -> float:
        """sup_x ||f||_{L^2(B_r(x))}, as ``sliding_ball_lp(f, 2, r)`` computes it."""
        hat = self.get("power_hat", lambda: power_spectrum(magnitude_power(self.field, 2.0)))
        # the root after the max: sqrt is monotone and correctly rounded
        return self.get(("l2", r), lambda: math.sqrt(
            ball_power_from_spectrum(self.field.grid, hat, r).max()))

    def level_sets(self, mode: str, lam: float) -> list[VoxelSet]:
        kept = self.sets.get(mode)
        if kept is None or kept[0] != lam:
            self.sets.pop(mode, None)  # free the old spectra before building new ones
            sets = superlevel_sets(self.thresholded(mode), lam)
            kept = self.sets[mode] = (lam, list(sets.values()))
        return kept[1]


#: one _FieldState per thread, for the field it saw last (held until the next)
_field_memo = threading.local()


def _field_state(f: VectorField) -> _FieldState:
    state = getattr(_field_memo, "state", None)
    if state is None or state.field is not f:
        state = _field_memo.state = None  # free the old entry before building the new one
        state = _field_memo.state = _FieldState(f)
    return state


def _report(lhs: float, rhs: float, state: _FieldState, mode: str, lam: float,
            radius: float, delta: float, params: dict, densities: bool) -> VerifyReport:
    """The report of one implication check from its premise sides, premise
    first: a degenerate pass when the thresholded field vanishes (nothing to
    threshold); else, when the premise holds or ``densities`` asks for them,
    the six super-level densities at ``radius`` against ``delta``; else no
    conclusion, since a failed premise already passes the implication."""
    holds = lhs <= rhs
    if state.sup(mode) == 0.0:
        return VerifyReport(lhs, rhs, holds, True, (0.0,) * 6, params, degenerate=True)
    if not (holds or densities):
        return VerifyReport(lhs, rhs, holds, None, (), params)
    results = [semi_mixed(S, radius, delta) for S in state.level_sets(mode, lam)]
    marginal = holds and lhs > (1.0 - GUARD_BAND) * rhs
    return VerifyReport(lhs, rhs, holds, all(res.ok for res in results),
                        tuple(res.max_density for res in results), params, marginal=marginal)


def check_lemma_l2(f: VectorField, pair: PairLD, r: float,
                   densities: bool = False) -> VerifyReport:
    """L^2 implication: sup_x ||f||_{L^2(B_r(x))} <= c* r^(5/2) ||curl f||_inf
    forces every super-level set of curl f to be (kappa r)-semi-mixed with
    ratio delta.

    Premise first: the six super-level densities are measured only when the
    premise holds, the vorticity vanishes (a degenerate pass), or
    ``densities`` is true; otherwise the report has ``conclusion_holds``
    None and no densities.  Work that depends only on the field (or on the
    field and lambda) is kept for the next call on the same field object,
    so loop field-major."""
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"scale must lie in (0, 1], got {r}")
    state = _field_state(f)
    lhs = state.premise_lhs(r)
    rhs = cstar(pair) * r ** shell_exponent(2.0, "curl") * state.sup("curl")
    params = {"lambda": pair.lam, "delta": pair.delta, "r": r, "mode": "l2"}
    return _report(lhs, rhs, state, "curl", pair.lam, kappa(pair) * r, pair.delta,
                   params, densities)


def check_lemma_gm(f: VectorField, pair: PairLD, p: float, theta: float, alpha: float,
                   rho: float, r: float, mode: str = "curl",
                   densities: bool = False) -> VerifyReport:
    """Morrey-type implication: a small global weighted norm of f forces every
    super-level set of curl f (mode "curl") or of f itself (mode "identity")
    to be r-semi-mixed with ratio delta.

    Premise first, as :func:`check_lemma_l2`: densities only when the
    premise holds, the thresholded field vanishes, or ``densities`` is
    true.  The premise value is kept per field object and (p, theta, alpha,
    rho); the thresholded field, its sup norm and its level sets per mode."""
    if mode not in ("curl", "identity"):
        raise ParameterError(f"mode must be 'curl' or 'identity', got {mode!r}")
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"scale must lie in (0, 1], got {r}")
    r_cap = soundness_cap(pair)
    if r > r_cap:
        raise ParameterError(f"scale {r} exceeds the soundness cap {r_cap:.4f} "
                             "for this pair (cutoff shell must stay inside the "
                             "weight support)")
    eps = eps_const(pair, p, theta, alpha, rho=rho)  # rejects p <= 1 before any norm work
    state = _field_state(f)
    lhs = state.get(("gm", p, theta, alpha, rho), lambda: gm_norm(f, MorreyParams.default(
        f.grid, WeightSpec(nu=alpha, rho=rho, theta=theta), p=p)).value)  # any mode's premise
    rhs = float(eps * max(r, rho) ** -decay_exponent(alpha, theta)
                * r ** shell_exponent(p, mode) * state.sup(mode))
    params = {"lambda": pair.lam, "delta": pair.delta, "r": r, "p": p,
              "theta": theta, "alpha": alpha, "rho": rho, "mode": mode}
    return _report(lhs, rhs, state, mode, pair.lam, r, pair.delta, params, densities)


class ScaleTooSmallError(ParameterError):
    """Construction scale falls under the grid resolution floor."""


def counterexample_field(r: float, pair: PairLD, grid: Grid3,
                         center: tuple[int, int, int] | None = None) -> VectorField:
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
    sigma = SIGMA_FACTOR * kap * r
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
    (delta, scale) cell.  ``densities`` measures the six super-level
    densities of every case, not only of the premise-holding ones.
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
    densities: bool = False

    def __post_init__(self) -> None:
        if self.lemma not in ("l2", "gm"):
            raise ParameterError(f"lemma must be 'l2' or 'gm', got {self.lemma!r}")


@dataclass
class SweepSummary:
    """Counts over a sweep and how close it came to a violation.

    The margins are None when no report qualifies: ``tightest_premise_ratio``
    is the largest premise lhs/rhs among non-degenerate premise-holding
    reports, ``min_density_slack`` the smallest delta minus max density
    among reports that carry densities, and ``closest_near_miss`` the
    smallest lhs/rhs among non-degenerate premise-failed reports."""

    total: int = 0
    premise_holding: int = 0
    degenerate: int = 0
    marginal: int = 0
    violations: int = 0
    marginal_violations: int = 0
    tightest_premise_ratio: float | None = None
    min_density_slack: float | None = None
    closest_near_miss: float | None = None


def sweep(config: SweepConfig, threads: int = 1) -> list[VerifyReport]:
    """Run the full Cartesian grid; reports are ordered by parameter index.

    Each field is built once and checked over all of its cells back to back,
    so :func:`check_lemma_l2` reuses its per-field work.  ``threads`` sizes
    the worker pool, which takes whole fields; ordering and values are
    independent of the pool size.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    grid = Grid3(config.n)
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
                rep = check_lemma_l2(f, pair, r, densities=config.densities)
            else:
                theta, alpha, mode = variant
                rep = check_lemma_gm(f, pair, config.p, theta, alpha, config.rho, r, mode,
                                     densities=config.densities)
            out.append((i, rep))
        return out

    if threads == 1:
        done = [check_field(item) for item in field_cells.items()]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(check_field, field_cells.items()))
    indexed = [item for out in done for item in out]
    indexed.sort(key=lambda item: item[0])
    return [rep for _, rep in indexed]


def _extreme(values: list[float], pick) -> float | None:
    """``pick`` (min or max) of the finite values, None when there are none."""
    finite = [v for v in values if math.isfinite(v)]
    return float(pick(finite)) if finite else None


def summarize(reports: list[VerifyReport]) -> SweepSummary:
    s = SweepSummary(total=len(reports))
    held, missed, slack = [], [], []
    for rep in reports:
        s.premise_holding += rep.premise_holds and not rep.degenerate
        s.degenerate += rep.degenerate
        s.marginal += rep.marginal
        if not rep.verdict:
            if rep.marginal:
                s.marginal_violations += 1
            else:
                s.violations += 1
        if rep.per_set_densities:
            slack.append(rep.params["delta"] - max(rep.per_set_densities))
        if not rep.degenerate and rep.premise_rhs > 0.0:
            ratio = rep.premise_lhs / rep.premise_rhs
            (held if rep.premise_holds else missed).append(ratio)
    s.tightest_premise_ratio = _extreme(held, max)
    s.min_density_slack = _extreme(slack, min)
    s.closest_near_miss = _extreme(missed, min)
    return s
