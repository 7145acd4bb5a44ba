"""Benchmark of the morrey-sparse toolkit.

Run from the repository root:

    python3 bench/run.py --workload l2_sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs the same workload and seed twice in one process: first
untraced for half the time, then, with the span wrappers of ``tracing.py``
installed, the same ops again; it checks that both passes give identical
outputs and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the details (environment, the workload's own metrics, digests).
Both are also written to ``.bench_out/``.  The program is imported from
``src/`` of the working directory; without it the run exits with code 2.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("l2_sweep", "solver_n64", "criterion_cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "MORREY_SPARSE_THREADS")
#: setup measurements per run: this process plus fresh child processes
SETUP_PROBES = 2


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program() -> float:
    """Import the program from ./src; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "morrey_sparse" / "__init__.py").is_file():
        print(f"bench: no program source at {src / 'morrey_sparse'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import morrey_sparse  # noqa: F401
    from morrey_sparse import cli, fields, grid, morrey, nse, sparseness, verify  # noqa: F401

    if Path(morrey_sparse.__file__).resolve().parent != (src / "morrey_sparse").resolve():
        print(f"bench: imported morrey_sparse from {morrey_sparse.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return time.perf_counter() - _T_START


def _environment(seed: int) -> dict:
    import hashlib

    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = read(idx / "size")
    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "numpy.fft (pocketfft); scipy.fft backend "
                       + _scipy_fft_backend(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _machine_probe_ms() -> float:
    """Median of 5 timings of a fixed numpy 64^3 3-vector FFT pair: program-free,
    so a shift between runs shows the machine's speed, not the program's."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((3, 64, 64, 64))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.fft.irfftn(np.fft.rfftn(a, axes=(-3, -2, -1)), s=a.shape[1:], axes=(-3, -2, -1))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _scipy_fft_backend() -> str:
    import scipy.fft

    return f"{scipy.fft.rfftn.__module__} (workers={scipy.fft.get_workers()})"


class Runner:
    def __init__(self, args):
        from workloads import WORKLOADS

        self.args = args
        self.work = WORKLOADS[args.workload](args.size, OUT / f"work-{os.getpid()}")
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.work.setup(self.args.seed)
        return time.perf_counter() - t0

    def _one(self, i: int, tracer=None):
        """Run op i (timed), then its output checks (untimed)."""
        self.attempted += 1
        prepare = getattr(self.work, "prepare", None)
        ctx = (tracer.recording(i, f"op.{self.work.name}") if tracer is not None
               else contextlib.nullcontext())
        try:
            if prepare is not None:
                prepare(i)
            with ctx:
                t0 = time.perf_counter()
                out = self.work.run_op(i)
                wall = time.perf_counter() - t0
        except Exception:  # an op that raises counts as failed; the run goes on
            self._fail(i, traceback.format_exc(limit=3))
            return None
        if tracer is None:
            try:
                fails = self.work.check_op(i, out)
            except Exception:
                fails = [traceback.format_exc(limit=3)]
            if fails:
                self._fail(i, "; ".join(fails))
                return None
        return out, wall

    def _fail(self, i: int, msg: str) -> None:
        self.failed += 1
        self.failures.append(f"op {i}: {msg}")

    def measure(self, seconds: float):
        """Closed loop for ``seconds``; returns the per-op samples."""
        s = {"units": 0.0, "busy_s": 0.0, "latency_s": [], "outputs": [], "ops": [],
             "fingerprints": []}
        t_end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < t_end or not s["ops"]:
            res = self._one(i)
            if res is not None:
                out, wall = res
                s["units"] += self.work.units(out)
                s["busy_s"] += wall
                s["latency_s"].append(self.work.latency_s(out, wall))
                s["outputs"].append(self.work.record(out))
                s["fingerprints"].append(self.work.fingerprint(out))
                s["ops"].append(i)
            elif self.failed > 3 and not s["ops"]:
                break
            i += 1
        return s

    def workload_metrics(self, s) -> dict:
        named = self.work.summary(s)
        named["failed_ratio"] = {"value": self.failed / self.attempted, "unit": "ratio"}
        return named


def _setup_probe(args) -> None:
    """Child process: import, input generation and warm-up, then exit."""
    import_s = _import_program()
    runner = Runner(args)
    setup_s = import_s + runner.setup()
    print(json.dumps({"setup_s": setup_s}))


def _probe_setups(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def run_untraced(args, import_s: float):
    runner = Runner(args)
    setup_main = import_s + runner.setup()
    s = runner.measure(args.seconds)
    try:
        runner.failures += runner.work.finish()
    except Exception:
        runner.failures.append(traceback.format_exc(limit=3))
    named = runner.workload_metrics(s) if s["ops"] else {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work_metric = runner.work.work_metric
    latency = s["latency_s"]
    del runner.work, s
    setups = [setup_main] + _probe_setups(args)
    metrics = {}
    if named:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "work_per_s": {"value": named[work_metric]["value"], "unit": "1/s"},
            "op_ms_mean": {"value": statistics.fmean(latency) * 1e3, "unit": "ms"},
        }
    detail = {"setup_s_samples": setups, "workload_metrics": named,
              "work_per_s_is": work_metric, "op_samples": len(latency)}
    return runner, metrics, detail


def run_traced(args, import_s: float):
    import layers
    from tracing import Tracer

    runner = Runner(args)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.recording(layers.SETUP_OP, "op.setup"):
            runner.setup()
    finally:
        tracer.uninstall()
    half = runner.measure(args.seconds / 2.0)
    try:
        runner.failures += runner.work.finish()
    except Exception:
        runner.failures.append(traceback.format_exc(limit=3))
    tracer.install()
    try:
        cache0 = tracer.cache_info() if tracer.cache_info else None
        traced_lat, mismatched = [], []
        for i, fp_a in zip(half["ops"], half["fingerprints"]):
            res = runner._one(i, tracer)
            if res is None:
                continue
            out_b, wall = res
            traced_lat.append(runner.work.latency_s(out_b, wall))
            if runner.work.fingerprint(out_b) != fp_a:
                mismatched.append(i)
        cache1 = tracer.cache_info() if tracer.cache_info else None
        calibrate = getattr(runner.work, "calibration_op", None)
        if calibrate is not None:
            with tracer.recording(layers.CALIBRATION_OP, f"op.{runner.work.name}"):
                calibrate()
    finally:
        tracer.uninstall()
    for i in mismatched:
        runner._fail(i, "traced output differs from the untraced output")
    cache_delta = None
    if cache0 is not None:
        cache_delta = (cache1.hits - cache0.hits, cache1.misses - cache0.misses)
    lat_a = statistics.median(half["latency_s"]) if half["latency_s"] else float("nan")
    lat_b = statistics.median(traced_lat) if traced_lat else float("nan")
    metrics, layer_detail = layers.per_layer(tracer, cache_delta, lat_a, lat_b)
    check = layers.consistency(tracer)
    if not check["ok"]:
        runner.failures.append(f"trace consistency: {check}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    named = runner.workload_metrics(half) if half["ops"] else {}
    detail = {"untraced_workload_metrics": named, "trace_consistency": check,
              "outputs_identical": not mismatched, "compared_ops": len(half["ops"]),
              "layers": layer_detail, "spans_file": str(spans_path.relative_to(ROOT))}
    return runner, metrics, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.pop("MORREY_SPARSE_THREADS", None)  # program defaults: one worker
    if args.setup_probe:
        _setup_probe(args)
        return 0
    import_s = _import_program()
    env = _environment(args.seed)
    probe_before = _machine_probe_ms()
    run = run_traced if args.trace else run_untraced
    runner, metrics, detail = run(args, import_s)
    env["machine_probe_ms"] = {"before": probe_before, "after": _machine_probe_ms()}
    shutil.rmtree(OUT / f"work-{os.getpid()}", ignore_errors=True)
    checks_ran = runner.attempted > 0 and bool(metrics)
    correct = checks_ran and runner.failed == 0 and not runner.failures
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "size": args.size, "environment": env,
              "failures": runner.failures[:20], **detail}
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1, default=str) + "\n")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
