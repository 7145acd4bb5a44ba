"""Run every workload over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed (one run at a
time) and one ``--trace 1`` run on the first seed, then writes, per
end-to-end metric, the samples, median, quartiles (``statistics.quantiles``
with n=4) and the interquartile range as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"samples": len(values), "median": med, "q1": q1, "q3": q3,
            "iqr_share_of_median": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    out = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results, walls, env = [], [], None
        for seed in seeds:
            t0 = time.perf_counter()
            detail, result = _run(workload, seed, args.seconds, 0)
            walls.append(time.perf_counter() - t0)
            env = env or detail["environment"]
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed} incorrect: {detail['failures']}")
            results.append(result)
            print(workload, seed, f"{walls[-1]:.1f}s",
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        entry = {"environment": env, "run_wall_s": summarise(walls),
                 "attempted": [r["attempted"] for r in results],
                 "metrics": {m: dict(summarise([r["metrics"][m]["value"] for r in results]),
                                     unit=results[0]["metrics"][m]["unit"])
                             for m in results[0]["metrics"]}}
        for m, s in entry["metrics"].items():
            print(f"{workload} {m}: median {s['median']:.4g} {s['unit']}, "
                  f"IQR/median {s['iqr_share_of_median']:.3f}", flush=True)
        detail, result = _run(workload, seeds[0], args.seconds, 1)
        entry["traced"] = {"seed": seeds[0], "correct": result["correct"],
                           "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                           "bases": detail["layers"]["bases"]}
        out["workloads"][workload] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
