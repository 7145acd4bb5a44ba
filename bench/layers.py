"""Per-layer metrics computed from the traced run's spans.

Counts, times and bytes are given per op of the traced pass (one check, one
simulate call or one CLI cycle), so they compare across commits however many
ops a run completes; ``fields.self_s`` is the set-up's field construction.
Each entry of :data:`METRICS` names the wrapped functions it needs.  When one
is no longer wrapped (renamed or removed by a refactor) the metric is
reported absent with the reason, never as zero.  ``design.json`` maps every
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SETUP_OP = "setup"
CALIBRATION_OP = "calibration"
CLI_COMMANDS = ("simulate", "criterion", "norm", "verify")
CACHE = "grid._ball_spectrum_cached.cache_info"
#: gm_norm calls with this many scale nodes carry the documented exact counts
GM_NODES = 32

#: (name, unit, better, wrapped names it needs)
METRICS = [
    ("grid.fft_transforms", "count/op", "lower", ()),
    ("grid.fft_s", "s/op", "lower", ()),
    ("grid.fft_bytes", "bytes/op", "lower", ()),
    ("grid.curl.calls", "count/op", "lower", ("grid.curl",)),
    ("grid.curl.self_s", "s/op", "lower", ("grid.curl",)),
    ("grid.sliding_ball_sum.calls", "count/op", "lower", ("grid.sliding_ball_sum",)),
    ("grid.sliding_ball_sum.self_s", "s/op", "lower", ("grid.sliding_ball_sum",)),
    ("grid.sliding_ball_power_multi.self_s", "s/op", "lower",
     ("grid.sliding_ball_power_multi",)),
    ("grid.ball_spectrum_hits", "count/op", "higher", (CACHE,)),
    ("grid.ball_spectrum_misses", "count/op", "lower", (CACHE,)),
    ("grid.ball_spectrum_hit_ratio", "ratio", "higher", (CACHE,)),
    ("grid.save_field.bytes", "bytes/op", "lower", ("grid.save_field",)),
    ("grid.save_field.self_s", "s/op", "lower", ("grid.save_field",)),
    ("grid.load_field.bytes", "bytes/op", "lower", ("grid.load_field",)),
    ("grid.load_field.self_s", "s/op", "lower", ("grid.load_field",)),
    ("fields.self_s", "s", "lower", ()),
    ("fields.op_self_s", "s/op", "lower", ()),
    ("sparseness.superlevel_sets.self_s", "s/op", "lower", ("sparseness.superlevel_sets",)),
    ("sparseness.semi_mixed.calls", "count/op", "lower", ("sparseness.semi_mixed",)),
    ("sparseness.semi_mixed.self_s", "s/op", "lower", ("sparseness.semi_mixed",)),
    ("verify.check_lemma_l2.calls", "count/op", "lower", ("verify.check_lemma_l2",)),
    ("verify.check_lemma_l2.self_s", "s/op", "lower", ("verify.check_lemma_l2",)),
    ("verify.check_lemma_l2.fft_per_call", "count", "lower", ("verify.check_lemma_l2",)),
    ("verify.conclusion_useful_ratio", "ratio", "higher",
     ("verify.check_lemma_l2", "sparseness.semi_mixed")),
    ("verify.sweep.self_s", "s/op", "lower", ("verify.sweep",)),
    ("verify.sweep_fields_built", "count/op", "lower", ("verify.sweep",)),
    ("morrey.gm_norm.calls", "count/op", "lower", ("morrey.gm_norm",)),
    ("morrey.gm_norm.self_s", "s/op", "lower", ("morrey.gm_norm",)),
    ("morrey.gm_norm.fft_per_call", "count", "lower", ("morrey.gm_norm", CACHE)),
    ("morrey.gm_norm.fft_per_cold_call", "count", "lower", ("morrey.gm_norm", CACHE)),
    ("nse.simulate.calls", "count/op", "lower", ("nse.simulate",)),
    ("nse.fft_per_step", "count", "lower", ("nse.simulate",)),
    ("nse.fft_s", "s/op", "lower", ()),
    ("nse.simulate.self_s", "s/op", "lower", ("nse.simulate",)),
    ("nse.evaluate_criterion.self_s", "s/op", "lower", ("nse.evaluate_criterion",)),
    ("nse.save_trajectory.self_s", "s/op", "lower", ("nse.save_trajectory",)),
    ("nse.load_trajectory.self_s", "s/op", "lower", ("nse.load_trajectory",)),
] + [(f"cli.{c}.{k}", "s/op", "lower", ("cli.main",))
     for k in ("wall_s", "self_s") for c in CLI_COMMANDS] + [
    ("trace.overhead_ratio", "ratio", "lower", ()),
    ("trace.spans", "count/op", "lower", ()),
]


def per_layer(tracer, cache_delta, latency_untraced, latency_traced):
    """Return ({metric: {"value", "unit"}}, details) for the traced pass."""
    an = tracer.analyse()
    spans = tracer.spans
    selfs, incl = an["self"], an["fft"]
    main = [sp for sp in spans if sp[2] not in (SETUP_OP, CALIBRATION_OP)]
    by_name = defaultdict(list)
    for sp in main:
        by_name[sp[3]].append(sp)
    n_ops = sum(1 for sp in main if sp[4] == "bench")
    per_op = 1.0 / n_ops if n_ops else 0.0

    def ancestor(sp, name):
        p = sp[1]
        while p is not None:
            if spans[p][3] == name:
                return spans[p]
            p = spans[p][1]
        return None

    def self_s(name):
        return sum(selfs[sp[0]] for sp in by_name[name]) * per_op

    def calls(name):
        return len(by_name[name]) * per_op

    fft_n, fft_s, fft_b = defaultdict(int), defaultdict(float), defaultdict(int)
    for sp in main:
        if sp[4] == "fft":
            fft_n[sp[7]["charged"]] += sp[7]["transforms"]
            fft_s[sp[7]["charged"]] += sp[6] - sp[5]
            fft_b[sp[7]["charged"]] += sp[7]["bytes"]

    details = {"ops": n_ops, "bases": {},
               "fft_by_layer": {k: {"transforms": fft_n[k], "s": fft_s[k],
                                    "computed_bytes": fft_b[k]} for k in sorted(fft_n)}}
    v: dict[str, float] = {
        "grid.fft_transforms": fft_n["grid"] * per_op,
        "grid.fft_s": fft_s["grid"] * per_op,
        "grid.fft_bytes": fft_b["grid"] * per_op,
        "grid.sliding_ball_power_multi.self_s": self_s("grid.sliding_ball_power_multi"),
        "fields.self_s": sum(selfs[sp[0]] for sp in spans
                             if sp[2] == SETUP_OP and sp[4] == "fields"),
        "fields.op_self_s": sum(selfs[sp[0]] for sp in main if sp[4] == "fields") * per_op,
        "sparseness.superlevel_sets.self_s": self_s("sparseness.superlevel_sets"),
        "nse.fft_s": fft_s["nse"] * per_op,
        "nse.fft_per_step": _fft_per_step(spans, incl, details),
        "trace.overhead_ratio": latency_traced / latency_untraced - 1.0,
        "trace.spans": len(main) * per_op,
    }
    for name in ("grid.curl", "grid.sliding_ball_sum", "sparseness.semi_mixed",
                 "verify.check_lemma_l2", "morrey.gm_norm", "nse.simulate"):
        v[f"{name}.calls"] = calls(name)
        v[f"{name}.self_s"] = self_s(name)
    for name in ("verify.sweep", "nse.evaluate_criterion", "nse.save_trajectory",
                 "nse.load_trajectory"):
        v[f"{name}.self_s"] = self_s(name)
    for name in ("grid.save_field", "grid.load_field"):
        v[f"{name}.bytes"] = sum((sp[7] or {}).get("bytes", 0) for sp in by_name[name]) * per_op
        v[f"{name}.self_s"] = self_s(name)
    details["bases"]["trace.overhead_ratio"] = {
        "untraced_op_s_p50": latency_untraced, "traced_op_s_p50": latency_traced}

    if cache_delta is not None:
        hits, misses = cache_delta
        v["grid.ball_spectrum_hits"] = hits * per_op
        v["grid.ball_spectrum_misses"] = misses * per_op
        v["grid.ball_spectrum_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        details["bases"]["grid.ball_spectrum_hit_ratio"] = {"lookups": hits + misses}

    checks = by_name["verify.check_lemma_l2"]
    v["verify.check_lemma_l2.fft_per_call"] = (
        sum(incl[sp[0]] for sp in checks) / len(checks) if checks else 0.0)
    useful = sum(1 for sp in checks if (sp[7] or {}).get("useful"))
    conclusions = sum(1 for sp in by_name["sparseness.semi_mixed"]
                      if ancestor(sp, "verify.check_lemma_l2")) / 6.0
    v["verify.conclusion_useful_ratio"] = useful / conclusions if conclusions else 0.0
    details["bases"]["verify.conclusion_useful_ratio"] = {
        "premise_holding_checks": useful, "checks_computing_conclusion": conclusions}
    built = sum(1 for sp in main if sp[4] == "fields"
                and (sp[1] is None or spans[sp[1]][4] != "fields")
                and ancestor(sp, "verify.sweep"))
    v["verify.sweep_fields_built"] = built * per_op

    gm32 = [sp for sp in by_name["morrey.gm_norm"] if (sp[7] or {}).get("nodes") == GM_NODES]
    warm = [incl[sp[0]] for sp in gm32 if sp[7].get("misses") == 0]
    cold = [incl[sp[0]] for sp in gm32 if sp[7].get("misses") == GM_NODES]
    v["morrey.gm_norm.fft_per_call"] = statistics.fmean(warm) if warm else 0.0
    v["morrey.gm_norm.fft_per_cold_call"] = statistics.fmean(cold) if cold else 0.0
    details["bases"]["morrey.gm_norm.fft_per_call"] = {
        "warm_32_node_calls": len(warm), "cold_32_node_calls": len(cold),
        "distinct_warm_counts": sorted(set(warm)), "distinct_cold_counts": sorted(set(cold))}

    wall, own = defaultdict(float), defaultdict(float)
    for sp in main:
        if sp[4] != "cli":
            continue
        root = sp if sp[3] == "cli.main" else ancestor(sp, "cli.main")
        if root is None:
            continue
        command = (root[7] or {}).get("command")
        own[command] += selfs[sp[0]]
        if sp is root:
            wall[command] += sp[6] - sp[5]
    for c in CLI_COMMANDS:
        v[f"cli.{c}.wall_s"] = wall[c] * per_op
        v[f"cli.{c}.self_s"] = own[c] * per_op

    metrics = {}
    for name, unit, _better, needs in METRICS:
        missing = [n for n in needs if n not in tracer.wrapped
                   and not (n == CACHE and cache_delta is not None)]
        if missing:
            metrics[name] = {"value": None, "unit": unit,
                             "absent": f"no longer present in the program: {', '.join(missing)}"}
        else:
            metrics[name] = {"value": v[name], "unit": unit}
    return metrics, details


def _fft_per_step(spans, incl, details) -> float:
    """Transforms per solver step, from simulate calls that differ only in
    step count: (F(k2) - F(k1)) / (k2 - k1) removes the per-call part."""
    by_steps: dict[int, set] = defaultdict(set)
    for sp in spans:
        if sp[3] == "nse.simulate" and sp[2] != SETUP_OP and sp[7]:
            by_steps[sp[7]["steps"]].add(incl[sp[0]])
    details["bases"]["nse.fft_per_step"] = {
        "transforms_per_call_by_steps": {str(k): sorted(s) for k, s in by_steps.items()}}
    if len(by_steps) < 2 or any(len(s) != 1 for s in by_steps.values()):
        return 0.0
    (k1, (f1,)), (k2, (f2,)) = sorted(by_steps.items())[-2:]
    return (f2 - f1) / (k2 - k1)


def consistency(tracer) -> dict:
    """Check that spans nest and that, for every op, the self times of its
    spans plus the op's uncovered remainder (the root span's own self time)
    add up to the op's wall time."""
    an = tracer.analyse()
    spans = tracer.spans
    nest_errors = 0
    for sp in spans:
        if sp[1] is not None:
            parent = spans[sp[1]]
            if not (parent[5] <= sp[5] <= sp[6] <= parent[6]):
                nest_errors += 1
    total_self = defaultdict(float)
    for sp in spans:
        total_self[sp[2]] += an["self"][sp[0]]
    worst, uncovered, walls = 0.0, 0.0, 0.0
    for sp in spans:
        if sp[4] == "bench":
            wall = sp[6] - sp[5]
            worst = max(worst, abs(total_self[sp[2]] - wall) / wall)
            uncovered += an["self"][sp[0]]
            walls += wall
    return {"nesting_errors": nest_errors, "max_relative_self_sum_residual": worst,
            "uncovered_s": uncovered, "op_wall_s": walls,
            "ok": nest_errors == 0 and worst <= 1e-9}
