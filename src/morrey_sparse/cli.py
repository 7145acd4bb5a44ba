"""Command-line surface: weighted norms, sparseness reports, implication
sweeps, decaying-flow simulation, and criterion evaluation.

Every command writes a run manifest next to its outputs.  All numeric output
is serialized with 17 significant digits (lossless float round trip); rerun
with identical arguments and seeds reproduces byte-identical reports (the
manifest is the one exception: it carries the wall time and peak RSS).

Exit codes: 0 success; 1 a numerical failure on valid arguments (an overflow,
a zero field, a solver instability, a z_alpha scale window the field cannot
place, or a sweep violation); 2 any argument outside its documented range,
which the library check on that argument reports as ``ParameterError``; 3 a
bad input file; 4 scheduling (criterion window too sparse).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .grid import BLOCK_TRANSFORMS, FieldFileError, ParameterError, VectorField, load_field
from .morrey import MorreyParams, WeightSpec, classical_morrey, clm_norm, gm_norm, lm_norm
from .nse import (
    SERIES_COLUMNS,
    CriterionSpec,
    SchedulingError,
    SolverConfig,
    SolverInstabilityError,
    detect_escape_times,
    evaluate_criteria,
    load_trajectory,
    simulate,
    write_series,
)
from .sparseness import (admissible_pair, bump_chain_constant, cstar, eps_const, kappa,
                         semi_mixed, superlevel_sets, z_alpha_member)
from .verify import SweepConfig, summarize, sweep

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SCHEDULING = 4


def dumps_17g(obj) -> str:
    """Deterministic JSON with every float at 17 significant digits."""
    if isinstance(obj, dict):
        items = [f'{json.dumps(str(k))}: {dumps_17g(v)}' for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_17g(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            return json.dumps(str(v))
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unserializable {type(obj)!r}")


def _write_json(path: Path, obj) -> Path:
    path.write_text(dumps_17g(obj) + "\n")
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir: Path, args: argparse.Namespace, inputs: list,
                    outputs: list, t0: float) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if not k.startswith("_")},
        "version": __version__,
        "input_hashes": {str(p): _sha256(Path(p)) for p in inputs if Path(p).is_file()},
        "outputs": sorted(str(p) for p in outputs),
        "wall_time_s": time.time() - t0,
        # the process high-water mark: an in-process caller's earlier work counts too
        "profile": {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    **getattr(args, "_profile", {})},
        "numpy": np.__version__, "scipy": scipy.__version__,
        "fft": {"full": "scipy.fft", "block": f"BLAS {blas['name']} {blas['version']}"},
    }
    _write_json(outdir / "manifest.json", manifest)


def _parse_floats(s: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in s.split(",") if v)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {s!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"no number in {s!r}")
    return values


def _require_finite(args: argparse.Namespace, *names: str) -> None:
    """Flags that some kinds or lemmas do not read must still be finite."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not np.isfinite(value).all():
            raise ParameterError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _parse_center(s: str) -> tuple[int, int, int]:
    try:  # a non-integer or a count other than three
        i, j, k = (int(v) for v in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three integers i,j,k, got {s!r}") from None
    return i, j, k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="morrey-sparse",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--config", default=None,
                        help="JSON file whose entries replace flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", parents=[common], help="weighted Morrey-type norms")
    p.add_argument("--field", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=math.inf)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--kind", choices=("lm", "gm", "clm", "classical"), default="gm")
    p.add_argument("--center", type=_parse_center, default=None)
    p.add_argument("--alpha", type=float, default=1.0, help="classical exponent")
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--scales", type=int, default=32)

    p = sub.add_parser("sparseness", parents=[common], help="level-set sparseness reports")
    p.add_argument("--field", default=None)
    p.add_argument("--pair-from-delta", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.75)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--z-alpha", type=float, default=None)
    p.add_argument("--c0", type=float, default=2.0)

    p = sub.add_parser("verify", parents=[common], help="implication sweeps")
    p.add_argument("--lemma", choices=("l2", "gm"), default="l2")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--deltas", type=_parse_floats, default=(0.75,))
    p.add_argument("--scales", type=_parse_floats, default=(0.2, 0.5))
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--adversarial", action="store_true")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--thetas", type=_parse_floats, default=(math.inf,))
    p.add_argument("--alphas", type=_parse_floats, default=(0.5,))
    p.add_argument("--rho", type=float, default=0.05)
    p.add_argument("--modes", default="curl")
    p.add_argument("--threads", type=int, default=1, help="worker pool size")

    p = sub.add_parser("simulate", parents=[common], help="decaying-flow run")
    p.add_argument("--ic", default="taylor-green",
                   choices=("shear", "taylor-green", "abc", "random"))
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--snapshot-every", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--kmax", type=int, default=4)

    p = sub.add_parser("criterion", parents=[common], help="dynamic criterion reports")
    p.add_argument("--traj", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--nu-w", type=float, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=math.inf)
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--c0", type=float, default=2.0)
    p.add_argument("--field-mode", choices=("u", "omega"), default="u")
    p.add_argument("--window-mode", choices=("velocity", "vorticity"), default="vorticity")
    p.add_argument("--reference", choices=("u", "omega"), default="omega")
    p.add_argument("--at", type=_parse_floats, default=None,
                   help="evaluate at these reference times")
    p.add_argument("--escape", choices=("u", "omega"), default=None,
                   help="evaluate at detected escape times of this norm")
    return parser


def _config_flags(parser: argparse.ArgumentParser, path: Path) -> list[str]:
    """The entries of a --config file as command-line flags: a string or
    number is the flag's value, a list its comma-joined value, ``true`` the
    bare flag and ``false`` nothing.  An unreadable file is a usage error."""
    try:
        overrides = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(overrides, dict):
        parser.error(f"--config {path} must hold a JSON object")
    flags = []
    for key, value in overrides.items():
        if value is False:
            continue
        flags.append("--" + key.replace("_", "-"))
        if isinstance(value, list):
            flags.append(",".join(str(v) for v in value))
        elif value is not True:
            flags.append(str(value))
    return flags


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, with the --config entries placed before the command's own
    flags: argparse converts and checks them like typed flags (a bad value or
    key exits 2), and a flag given on the command line wins.  The config path
    is read in a pre-pass, so the file may also supply required flags."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    flags = _config_flags(parser, Path(path)) if path else []
    args = parser.parse_args([*argv[:1], *flags, *argv[1:]])
    if args.config != path:  # an abbreviated --config, seen only by the full parse
        args = parser.parse_args([argv[0], *_config_flags(parser, Path(args.config)), *argv[1:]])
    return args


# ---------------------------------------------------------------------------
# commands: each writes its outputs into ``outdir`` and returns its
# (inputs, outputs[, exit code]); main creates the directory and writes the
# manifest
# ---------------------------------------------------------------------------


def cmd_norm(args, outdir: Path) -> tuple:
    _require_finite(args, "alpha", "r_min")
    f = load_field(args.field)
    w = WeightSpec(nu=args.nu, rho=args.rho, theta=args.theta)
    grid = f.grid
    if args.center is not None and not all(0 <= c < grid.n for c in args.center):
        raise ParameterError(f"center {args.center} outside [0, {grid.n}) per axis")
    report: dict = {"kind": args.kind, "params": {
        "p": args.p, "theta": args.theta, "nu": args.nu, "rho": args.rho},
        "quadrature_nodes": args.scales}
    if args.kind == "classical":
        r_min = args.r_min if args.r_min is not None else 2 * grid.spacing
        res = classical_morrey(f, args.p, args.alpha, r_min, args.r_max, count=args.scales)
        report.update(norm=res.value, argmax_center=list(res.center), argmax_r=res.scale)
    else:
        params = MorreyParams.default(grid, w, p=args.p, count=args.scales,
                                      r_max=args.r_max)
        if args.kind == "gm":
            res = gm_norm(f, params)
            report.update(norm=res.value, argmax_center=list(res.center),
                          argmax_r=res.scale if res.scale is not None else "none")
        else:
            center = args.center or (0, 0, 0)
            fn = lm_norm if args.kind == "lm" else clm_norm
            report.update(norm=fn(f, params, center), center=list(center))
    return [args.field], [_write_json(outdir / "norm_report.json", report)]


def cmd_sparseness(args, outdir: Path) -> tuple:
    _require_finite(args, "c0")
    outputs = []
    if args.pair_from_delta is not None:
        pair = admissible_pair(args.pair_from_delta)
        kap = kappa(pair)
        report = {"delta": pair.delta, "lambda": pair.lam, "h": pair.h, "kappa": kap,
                  "cstar": cstar(pair), "eps": eps_const(pair, 2.0, math.inf, 0.5),
                  "cal": bump_chain_constant(pair)}
        outputs.append(_write_json(outdir / "pair_report.json", report))
        print(f"delta={pair.delta} -> lambda={pair.lam:.6f} (kappa={kap:.6f})")
        if args.field is None:
            return [], outputs
    if args.field is None:
        raise ParameterError("either --field or --pair-from-delta is required")
    f = load_field(args.field)
    if not isinstance(f, VectorField):
        raise FieldFileError(f"{args.field} holds a scalar field; sparseness needs a "
                             "3-component field")
    lam = admissible_pair(args.delta).lam if args.lam is None else args.lam
    sets = superlevel_sets(f, lam)
    set_reports = []
    for label, S in sets.items():
        res = semi_mixed(S, args.r, args.delta)
        set_reports.append({"set": label, "r": args.r, "delta": args.delta,
                            "max_density": res.max_density,
                            "witness": list(res.witness), "ok": res.ok})
    report = {"lambda": lam, "sets": set_reports}
    if args.z_alpha is not None:
        pair = admissible_pair(args.delta)
        ok, witnesses = z_alpha_member(f, args.z_alpha, pair, args.c0,
                                       sets=sets if lam == pair.lam else None)
        report["z_alpha"] = {"alpha": args.z_alpha, "c0": args.c0, "ok": ok,
                             "witnesses": [list(wv) for wv in witnesses]}
    outputs.append(_write_json(outdir / "sparseness_report.json", report))
    return [args.field], outputs


def cmd_verify(args, outdir: Path) -> tuple:
    _require_finite(args, "p", "alphas", "rho")
    if any(math.isnan(theta) for theta in args.thetas):  # inf is a theta
        raise ParameterError(f"--thetas must not be nan, got {args.thetas}")
    modes = tuple(str(args.modes).split(","))
    if not set(modes) <= {"curl", "identity"}:
        raise ParameterError(f"--modes names only curl and identity, got {args.modes}")
    if args.seeds < 0:
        raise ParameterError(f"--seeds must be >= 0, got {args.seeds}")
    cfg = SweepConfig(lemma=args.lemma, n=args.n, deltas=args.deltas, scales=args.scales,
                      seeds=tuple(range(args.seeds)), kmax=args.kmax,
                      adversarial=args.adversarial, p=args.p, thetas=args.thetas,
                      alphas=args.alphas, rho=args.rho, modes=modes, densities=True)
    reports = sweep(cfg, threads=args.threads)
    summary = summarize(reports)
    names = ("premise_lhs", "premise_rhs", "premise_holds", "conclusion_holds", "marginal",
             "degenerate", "verdict")
    rows = [{**{c: getattr(r, c) for c in names}, "per_set_densities": list(r.per_set_densities),
             "params": r.params} for r in reports]
    out_json = _write_json(outdir / "verify_reports.json",
                           {"summary": dataclasses.asdict(summary), "reports": rows})
    columns = {c: [row[c] for row in rows] for c in names}
    columns.update({k: [row["params"][k] for row in rows] for k in ("delta", "r")})
    csv_path = write_series(outdir / "verify_reports.csv", columns)
    print(f"sweep: {summary.total} reports, {summary.premise_holding} premise-holding, "
          f"{summary.violations} violations")
    return [], [out_json, csv_path], (
        EXIT_OK if summary.violations == 0 and summary.marginal_violations == 0
        else EXIT_COMPUTE)


def cmd_simulate(args, outdir: Path) -> tuple:
    # it would make a non-finite field, which simulate rejects as bad data (exit 3)
    if not math.isfinite(args.amplitude):
        raise ParameterError(f"amplitude must be finite, got {args.amplitude}")
    cfg = SolverConfig(n=args.n, dt=args.dt, t_end=args.t_end, ic=args.ic,
                       ic_params={"amplitude": args.amplitude, "kmax": args.kmax},
                       snapshot_every=args.snapshot_every, seed=args.seed)
    # the run overwrites the directory's snapshots as it goes: an earlier
    # run's manifest would describe files it no longer holds
    (outdir / "manifest.json").unlink(missing_ok=True)
    before = sum(BLOCK_TRANSFORMS.values())
    traj = simulate(cfg, out=outdir)
    args._profile = {"steps": len(traj.series["t"]) - 1,
                     "block_transforms": sum(BLOCK_TRANSFORMS.values()) - before}
    print(f"simulated {args.ic} to t={args.t_end} ({len(traj.snapshots)} snapshots)")
    return [], traj.files


def cmd_criterion(args, outdir: Path) -> tuple:
    traj = load_trajectory(args.traj)
    spec = CriterionSpec(alpha=args.alpha, beta=args.beta, nu_w=args.nu_w, p=args.p,
                         theta=args.theta, c=args.c, c0=args.c0, eps0=args.eps0,
                         field_mode=args.field_mode, window_mode=args.window_mode,
                         reference=args.reference)
    if args.at is not None:
        times = list(args.at)
    elif args.escape is not None:
        times = detect_escape_times(traj.series, args.escape)
        if not times:
            print("no escape times detected (decaying flow); use --at")
    else:
        times = [float(traj.series["t"][0])]
    evaluated = list(zip(times, evaluate_criteria(traj, times, spec)))
    reports = [{
        "t_ref": t, "s_star": rep.s_star, "lhs": rep.lhs, "rhs": rep.rhs,
        "exponent": rep.exponent, "satisfied": rep.satisfied,
        "scale_window": list(rep.scale_window),
        "witness_center": list(rep.witness[0]),
        "witness_r": rep.witness[1] if rep.witness[1] is not None else "none",
        "eta_clipped": rep.eta_clipped, "window": list(rep.window),
    } for t, rep in evaluated]
    out_json = _write_json(outdir / "criterion_report.json", {"reports": reports})
    rows = [(t, *row) for t, rep in evaluated for row in rep.rows]
    names = ("t_ref", "s", "eta", "criterion_lhs", "criterion_rhs", "satisfied")
    csv_path = write_series(outdir / "criterion.csv",
                            {c: [row[k] for row in rows] for k, c in enumerate(names)})
    # merged time series: criterion columns filled at window snapshots, blank
    # elsewhere (a row's time is its series time: both step * dt, read exactly)
    by_time = {row[0]: row for _, rep in evaluated for row in rep.rows}
    matches = [by_time.get(t) for t in traj.series["t"].tolist()]
    columns = {c: traj.series[c] for c in SERIES_COLUMNS}
    for k, name in enumerate(("eta", "criterion_lhs", "criterion_rhs", "satisfied"), start=1):
        columns[name] = [None if row is None else row[k] for row in matches]
    series_path = write_series(outdir / "series_with_criterion.csv", columns)
    return [], [out_json, csv_path, series_path]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(parser, argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    outdir, fresh = Path(args.out), False
    try:
        handler = {
            "norm": cmd_norm,
            "sparseness": cmd_sparseness,
            "verify": cmd_verify,
            "simulate": cmd_simulate,
            "criterion": cmd_criterion,
        }[args.command]
        t0, fresh = time.time(), not outdir.exists()
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"--out {args.out}: {exc.strerror}") from exc
        inputs, outputs, *code = handler(args, outdir)
        _write_manifest(outdir, args, inputs, outputs, t0)
        return code[0] if code else EXIT_OK
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FieldFileError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SchedulingError as exc:
        print(f"scheduling error: {exc}", file=sys.stderr)
        return EXIT_SCHEDULING
    except (ParameterError, argparse.ArgumentTypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, SolverInstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (OverflowError, FloatingPointError) as exc:  # an in-range exponent's power
        print(f"error: float64 overflow: {exc.args[-1]}", file=sys.stderr)
        return EXIT_COMPUTE
    finally:  # a failed run leaves no empty directory of its own behind
        if fresh and outdir.is_dir() and not any(outdir.iterdir()):
            outdir.rmdir()


if __name__ == "__main__":
    sys.exit(main())
