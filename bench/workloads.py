"""The benchmark workloads: l2_sweep and criterion_cli are gated by
BENCHMARK.json; solver_n64 runs on request (see design.json).

Each workload is a closed loop with one caller: the next op starts only after
the previous one returned and its outputs were checked.  Inputs come from the
workload seed alone; the program sees only the generated inputs.  Every op
goes through the public API by module attribute (``verify.check_lemma_l2``,
``nse.simulate``, ``cli.main``), so the traced run's wrappers see it.

Protocol used by ``run.py``:

``setup(seed)``
    generate the inputs and run one untimed warm-up op;
``run_op(i)``
    the timed op number ``i``; returns its output;
``check_op(i, out)``
    untimed output checks; returns a list of failure messages;
``fingerprint(out)``
    bytes that must be identical between the untraced and traced run;
``units(out)`` / ``latency_s(out, wall)``
    work units of the op and the latency sample it contributes;
``record(out)``
    the small part of the output that ``summary`` needs later;
``prepare(i)`` (optional)
    untimed preparation right before op ``i``, in the untraced and traced pass;
``finish()``
    checks over the whole run; returns failure messages;
``summary(samples)``
    the workload's own end-to-end metrics, by the names it documents.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from morrey_sparse import cli, fields, grid, morrey, nse, sparseness, verify

SIZES = {
    "full": {
        "l2_sweep": {"n": 64, "kmax": 16, "pool": 24, "blob_share": 0.15,
                     "deltas": (0.7, 0.75, 0.85), "scales": (0.1, 0.2, 0.4, 0.8),
                     "blob_sigma_voxels": (1.5, 1.6), "premise_expected": True},
        "solver_n64": {"n": 64, "dt": 1e-3, "steps": 6, "kmax": 8},
        "criterion_cli": {"sim_n": 32, "sim_t_end": 0.05, "norm_n": 64, "norm_kmax": 16,
                          "norm_scales": 32, "refs": (0.0, 0.01, 0.02), "c0": 8.0,
                          "verify_n": 32, "verify_seeds": 4, "verify_scales": "0.2,0.5"},
    },
    "tiny": {
        "l2_sweep": {"n": 32, "kmax": 4, "pool": 3, "blob_share": 0.34,
                     "deltas": (0.7, 0.85), "scales": (0.4, 0.8),
                     "blob_sigma_voxels": (1.5, 1.6), "premise_expected": False},
        "solver_n64": {"n": 16, "dt": 1e-3, "steps": 3, "kmax": 2},
        "criterion_cli": {"sim_n": 16, "sim_t_end": 0.03, "norm_n": 16, "norm_kmax": 4,
                          "norm_scales": 32, "refs": (0.0,), "c0": 8.0,
                          "verify_n": 16, "verify_seeds": 2, "verify_scales": "0.9"},
    },
}

#: energy-budget tolerance for the Taylor-Green trajectory: the trapezoid
#: residual of dE/dt = -2Z at dt = 1e-3 is O(dt^2) ~ 3e-6 for this flow
TG_BUDGET_TOL = 1e-5
#: max |div u| of a solver snapshot (spectral projection, rounding only)
DIV_TOL = 1e-10


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _budget_residual(series) -> np.ndarray:
    """|dE/dt + Z_k + Z_{k+1}| / (Z_k + Z_{k+1}) per step (trapezoid; the
    series enstrophy is (1/2)||omega||^2, so dE/dt = -2 Z at viscosity 1)."""
    t = np.asarray(series["t"], dtype=float)
    e = np.asarray(series["energy"], dtype=float)
    z = np.asarray(series["enstrophy"], dtype=float)
    zsum = z[:-1] + z[1:]
    return np.abs(np.diff(e) / np.diff(t) + zsum) / zsum


class L2Sweep:
    """Acceptance-1 shape: each pool field through check_lemma_l2 over every
    (delta, scale) cell, in field order; one op is one check."""

    name = "l2_sweep"
    work_metric = "checks_per_s"

    def __init__(self, size: str, workdir: Path):
        self.cfg = SIZES[size][self.name]

    def setup(self, seed: int) -> None:
        c = self.cfg
        rng = np.random.default_rng(seed)
        g = grid.Grid3(c["n"])
        n_blobs = max(1, round(c["blob_share"] * c["pool"]))
        blob_at = set(int(i) for i in rng.choice(c["pool"], size=n_blobs, replace=False))
        self.pool = []
        for i in range(c["pool"]):
            if i in blob_at:
                center = tuple(int(v) for v in rng.integers(0, c["n"], size=3))
                sigma = float(rng.uniform(*c["blob_sigma_voxels"])) * g.spacing
                axis = tuple(float(v) for v in rng.normal(size=3))
                u = grid.biot_savart(fields.vorticity_blob(g, center, sigma, axis=axis))
                self.pool.append(("blob", u))
            else:
                field_seed = int(rng.integers(0, 2**31 - 1))
                self.pool.append(("random", fields.random_solenoidal_field(g, c["kmax"], field_seed)))
        self.seed = seed
        self.current = (None, None)
        self.pairs = [sparseness.admissible_pair(d) for d in c["deltas"]]
        self.cells = [(p, r) for p in self.pairs for r in c["scales"]]
        self.cases: list[tuple] = []
        self.field_reports: dict[int, list] = {}
        self.fields_done: list[str] = []
        self.premise_holding = 0
        self.run_op(0)  # warm-up: fills the ball-spectrum cache

    def _case(self, i: int):
        f_idx, cell = divmod(i, len(self.cells))
        return f_idx, self.cells[cell]

    def _field(self, f_idx: int):
        """(kind, field) of field number f_idx; past the pool, the prepared one."""
        return self.pool[f_idx] if f_idx < len(self.pool) else self.current[1]

    def prepare(self, i: int) -> None:
        """Past the end of the pool, build a periodic shift of a pool field, so
        that no field is checked twice in a run (verdicts are shift-invariant)."""
        f_idx = i // len(self.cells)
        if f_idx < len(self.pool) or self.current[0] == f_idx:
            return
        kind, base = self.pool[f_idx % len(self.pool)]
        shift = np.random.default_rng([self.seed, f_idx]).integers(1, base.grid.n, size=3)
        rolled = grid.VectorField(base.grid, np.roll(base.data, tuple(shift), axis=(1, 2, 3)))
        self.current = (f_idx, (kind, rolled))

    def run_op(self, i: int):
        f_idx, (pair, r) = self._case(i)
        return verify.check_lemma_l2(self._field(f_idx)[1], pair, r)

    def check_op(self, i: int, rep) -> list[str]:
        f_idx, (pair, r) = self._case(i)
        fails = []
        if not rep.verdict:
            fails.append(f"implication violated: field {f_idx} delta={pair.delta} r={r}")
        if rep.premise_holds and not rep.conclusion_holds:
            fails.append(f"premise held without conclusion: field {f_idx}")
        if not (math.isfinite(rep.premise_lhs) and math.isfinite(rep.premise_rhs)):
            fails.append("non-finite premise")
        vc = grid.ball_kernel(self._field(f_idx)[1].grid, sparseness.kappa(pair) * r).voxel_count
        for d in rep.per_set_densities:
            if abs(d * vc - round(d * vc)) > 1e-9 * vc:
                fails.append(f"density {d!r} x {vc} voxels is not an integer count")
                break
        self.cases.append((f_idx, pair.delta, r, rep.premise_holds, rep.conclusion_holds,
                           rep.marginal))
        self.premise_holding += rep.premise_holds and not rep.degenerate
        reports = self.field_reports.setdefault(i // len(self.cells), [])
        reports.append(rep)
        if len(reports) == len(self.cells):
            s = verify.summarize(reports)
            if s.violations or s.marginal_violations:
                fails.append(f"field {f_idx}: {s.violations} violations, "
                             f"{s.marginal_violations} marginal violations")
            self.fields_done.append(self._field(f_idx)[0])
            del self.field_reports[i // len(self.cells)]
        return fails

    def fingerprint(self, rep) -> bytes:
        return repr((rep.premise_lhs, rep.premise_rhs, rep.premise_holds,
                     rep.conclusion_holds, rep.marginal, rep.per_set_densities)).encode()

    def units(self, rep) -> float:
        return 1.0

    def latency_s(self, rep, wall: float) -> float:
        return wall

    def record(self, rep):
        return None

    def finish(self) -> list[str]:
        fails = []
        if self.cfg["premise_expected"] and "blob" in self.fields_done \
                and self.premise_holding == 0:
            fails.append("blob fields were checked but no case held the premise")
        return fails

    def summary(self, s: dict) -> dict:
        digest = _sha(*(repr(c[3:]).encode() for c in self.cases))
        lat = sorted(s["latency_s"])
        n = len(lat)
        tail = None
        if n >= 11:
            tail = {"value": lat[n - 11] * 1e3, "unit": "ms",
                    "percentile": 100.0 * (n - 10) / n, "samples": n, "beyond": 10}
        return {
            "checks_per_s": {"value": s["units"] / s["busy_s"], "unit": "1/s"},
            "check_ms_p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "check_ms_tail": tail,
            "checks": n,
            "fields_completed": len(self.fields_done),
            "blob_fields_completed": self.fields_done.count("blob"),
            "premise_holding": self.premise_holding,
            "verdict_digest": digest,
        }


class SolverN64:
    """Repeated nse.simulate calls from seeded random initial conditions,
    snapshots only at the ends; one op is one simulate call."""

    name = "solver_n64"
    work_metric = "steps_per_s"

    def __init__(self, size: str, workdir: Path):
        self.cfg = SIZES[size][self.name]

    def _config(self, i: int, steps: int | None = None):
        c = self.cfg
        steps = c["steps"] if steps is None else steps
        return nse.SolverConfig(n=c["n"], dt=c["dt"], t_end=steps * c["dt"], ic="random",
                                ic_params={"amplitude": 1.0, "kmax": c["kmax"]},
                                snapshot_every=steps, seed=self.seeds[i % len(self.seeds)])

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seeds = [int(v) for v in rng.integers(0, 2**31 - 1, size=64)]
        self.budget_max = 0.0
        self.run_op(0)

    def run_op(self, i: int):
        return nse.simulate(self._config(i))

    def calibration_op(self):
        """A shorter call from the first op's initial condition; the traced
        run compares its transform count with a full op's to count per step."""
        return nse.simulate(self._config(0, steps=max(1, self.cfg["steps"] // 2)))

    def check_op(self, i: int, traj) -> list[str]:
        fails = []
        series = traj.series
        if not all(np.isfinite(series[c]).all() for c in series):
            fails.append("non-finite series")
        if not all(np.isfinite(f.data).all() for _, f in traj.snapshots):
            fails.append("non-finite snapshot")
        if not (np.diff(series["energy"]) < 0.0).all():
            fails.append("energy did not strictly decrease")
        if len(traj.snapshots) != 2:
            fails.append(f"{len(traj.snapshots)} snapshots, expected the two ends")
        div = float(np.abs(grid.divergence(traj.snapshots[-1][1]).data).max())
        if not div <= DIV_TOL:
            fails.append(f"final snapshot max |div u| = {div:.3e} > {DIV_TOL}")
        self.budget_max = max(self.budget_max, float(_budget_residual(series).max()))
        return fails

    def fingerprint(self, traj) -> bytes:
        chunks = [np.ascontiguousarray(traj.series[c]).tobytes() for c in sorted(traj.series)]
        chunks += [f.data.tobytes() for _, f in traj.snapshots]
        return _sha(*chunks).encode()

    def units(self, traj) -> float:
        return float(len(traj.series["t"]) - 1)

    def latency_s(self, traj, wall: float) -> float:
        return wall / self.units(traj)

    def record(self, traj):
        return None

    def finish(self) -> list[str]:
        return []

    def summary(self, s: dict) -> dict:
        return {
            "steps_per_s": {"value": s["units"] / s["busy_s"], "unit": "1/s"},
            "step_ms_p50": {"value": statistics.median(s["latency_s"]) * 1e3, "unit": "ms"},
            "simulate_calls": len(s["latency_s"]),
            "steps_per_call": self.cfg["steps"],
            # reported, not gating: random_solenoidal_field leaves modes on the
            # Nyquist planes, whose viscous decay the recorded enstrophy (built
            # from Nyquist-zeroed derivatives) does not see
            "energy_budget_residual_max": self.budget_max,
        }


class CriterionCli:
    """In-process cli.main cycles: simulate, criterion, norm (theta = inf and
    2) and a small adversarial verify sweep; one op is one cycle."""

    name = "criterion_cli"
    work_metric = "criterion_rows_per_s"

    def __init__(self, size: str, workdir: Path):
        self.cfg = SIZES[size][self.name]
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        c = self.cfg
        rng = np.random.default_rng(seed)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.field_path = self.workdir / "field.fld"
        g = grid.Grid3(c["norm_n"])
        grid.save_field(fields.random_solenoidal_field(
            g, c["norm_kmax"], int(rng.integers(0, 2**31 - 1))), self.field_path)
        self.refs = list(c["refs"])
        self.verify_kmax = int(rng.integers(4, 9))
        self.row_offset = int(rng.integers(0, 1000))
        self.budget_max = 0.0
        self.lhs_checked = 0
        self.run_op(0)

    def calibration_op(self):
        """The cycle's Taylor-Green run at half the steps, called directly; the
        traced run compares its transform count with the cycle's simulate."""
        c = self.cfg
        steps = round(c["sim_t_end"] / 1e-3)
        return nse.simulate(nse.SolverConfig(n=c["sim_n"], dt=1e-3, t_end=(steps // 2) * 1e-3,
                                             ic="taylor-green", snapshot_every=1))

    def _commands(self, out: Path) -> list[tuple[str, list[str]]]:
        c = self.cfg
        traj = str(out / "traj")
        return [
            ("simulate", ["simulate", "--ic", "taylor-green", "--n", str(c["sim_n"]),
                          "--dt", "1e-3", "--t-end", repr(c["sim_t_end"]),
                          "--snapshot-every", "1", "--out", traj]),
            ("criterion", ["criterion", "--traj", traj, "--alpha", "0.5", "--beta", "0.5",
                           "--nu-w", "0.5", "--c0", repr(c["c0"]),
                           "--at", ",".join(repr(t) for t in self.refs),
                           "--out", str(out / "crit")]),
            ("norm", ["norm", "--field", str(self.field_path), "--kind", "gm",
                      "--scales", str(c["norm_scales"]), "--theta", "inf",
                      "--out", str(out / "norm_inf")]),
            ("norm", ["norm", "--field", str(self.field_path), "--kind", "gm",
                      "--scales", str(c["norm_scales"]), "--theta", "2",
                      "--out", str(out / "norm_2")]),
            ("verify", ["verify", "--lemma", "l2", "--n", str(c["verify_n"]),
                        "--deltas", "0.75", "--scales", c["verify_scales"],
                        "--seeds", str(c["verify_seeds"]), "--kmax", str(self.verify_kmax),
                        "--adversarial", "--out", str(out / "verify")]),
        ]

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.workdir / "cycle", ignore_errors=True)

    def run_op(self, i: int):
        out = self.workdir / "cycle"
        walls: dict[str, float] = {}
        codes = []
        for name, argv in self._commands(out):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            walls[name] = walls.get(name, 0.0) + time.perf_counter() - t0
            codes.append((name, rc))
        return {"dir": out, "walls": walls, "codes": codes}

    def _report_files(self, out: Path) -> list[Path]:
        return [out / "traj" / "series.csv", out / "traj" / "meta.json",
                out / "crit" / "criterion_report.json", out / "crit" / "criterion.csv",
                out / "crit" / "series_with_criterion.csv",
                out / "norm_inf" / "norm_report.json", out / "norm_2" / "norm_report.json",
                out / "verify" / "verify_reports.json", out / "verify" / "verify_reports.csv"]

    def check_op(self, i: int, res) -> list[str]:
        out = res["dir"]
        fails = [f"{name} exited {rc}" for name, rc in res["codes"] if rc != 0]
        if fails:
            return fails
        for path in self._report_files(out):
            if path.suffix == ".json":
                fails += [f"{path.name}: {m}" for m in _nonfinite_json(json.loads(path.read_text()))]
        with open(out / "traj" / "series.csv", newline="") as fh:
            series = {k: [] for k in ("t", "energy", "enstrophy")}
            for row in csv.DictReader(fh):
                for k in series:
                    series[k].append(float(row[k]))
        if not all(math.isfinite(v) for col in series.values() for v in col):
            fails.append("non-finite series.csv")
        budget = float(_budget_residual(series).max())
        self.budget_max = max(self.budget_max, budget)
        if not budget <= TG_BUDGET_TOL:
            fails.append(f"Taylor-Green energy-budget residual {budget:.3e} > {TG_BUDGET_TOL}")
        with open(out / "crit" / "criterion.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        res["rows"] = len(rows)
        if not rows:
            fails.append("criterion.csv has no rows")
            return fails
        for row in rows:
            if not all(math.isfinite(float(row[k])) for k in
                       ("t_ref", "s", "eta", "criterion_lhs", "criterion_rhs")):
                fails.append("non-finite criterion.csv row")
                break
        fails += self._check_lhs(out, rows[(self.row_offset + 7 * i) % len(rows)])
        return fails

    def _check_lhs(self, out: Path, row: dict) -> list[str]:
        """Recompute one window row's lhs with a direct gm_norm on the reloaded
        snapshot, and check that re-saving the snapshot reproduces its bytes."""
        meta = json.loads((out / "traj" / "meta.json").read_text())
        s = float(row["s"])
        entry = min(meta["snapshots"], key=lambda e: abs(e["t"] - s))
        path = out / "traj" / entry["file"]
        u = grid.load_field(path)
        eta = float(row["eta"])
        rho_w = min(eta, 1.0 - 0.5 * u.grid.spacing)
        params = morrey.MorreyParams.default(
            u.grid, morrey.WeightSpec(nu=0.5, rho=rho_w, theta=math.inf), p=2.0,
            count=nse.CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5).scale_count, r_max=1.0)
        direct = morrey.gm_norm(u, params).value
        lhs = float(row["criterion_lhs"])
        fails = []
        if not abs(direct - lhs) <= 1e-12 * abs(lhs):
            fails.append(f"criterion_lhs {lhs!r} != direct gm_norm {direct!r} at s={s}")
        resaved = out / "resaved.fld"
        grid.save_field(u, resaved)
        if resaved.read_bytes() != path.read_bytes():
            fails.append(f"re-saving {entry['file']} changed its bytes")
        self.lhs_checked += 1
        return fails

    def fingerprint(self, res) -> bytes:
        return _sha(*(p.read_bytes() for p in self._report_files(res["dir"]))).encode()

    def units(self, res) -> float:
        return float(res["rows"])

    def latency_s(self, res, wall: float) -> float:
        return wall

    def record(self, res):
        return {"walls": res["walls"], "rows": res["rows"]}

    def finish(self) -> list[str]:
        return [] if self.lhs_checked else ["no criterion row was recomputed"]

    def summary(self, s: dict) -> dict:
        outs = s["outputs"]
        crit_s = sum(o["walls"]["criterion"] for o in outs)
        per_cmd = {name: statistics.median(o["walls"][name] for o in outs)
                   for name in outs[0]["walls"]}
        return {
            "cycle_s_p50": {"value": statistics.median(s["latency_s"]), "unit": "s"},
            "criterion_rows_per_s": {"value": sum(o["rows"] for o in outs) / crit_s,
                                     "unit": "1/s"},
            "cycles": len(outs),
            "rows_per_cycle": outs[0]["rows"],
            "command_s_p50": per_cmd,
            "reference_times": self.refs,
            "tg_energy_budget_residual_max": self.budget_max,
        }


def _nonfinite_json(obj, path="") -> list[str]:
    """Paths of non-finite numbers in a parsed report (strings are skipped)."""
    if isinstance(obj, dict):
        return [m for k, v in obj.items() for m in _nonfinite_json(v, f"{path}/{k}")]
    if isinstance(obj, list):
        return [m for i, v in enumerate(obj) for m in _nonfinite_json(v, f"{path}/{i}")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [f"non-finite value at {path or '/'}"]
    return []


WORKLOADS = {w.name: w for w in (L2Sweep, SolverN64, CriterionCli)}
