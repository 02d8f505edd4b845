"""Helpers shared by the benchmark runner (run.py) and comparator (compare.py).

Standard library only. Apart from reading BENCHMARK.json at import,
everything here is pure and covered by test_benchlib.py; the process and
file handling lives in run.py.
"""

import hashlib
import json
import math
import pathlib
import re
import statistics

# The benchmark's definition: its workloads and metrics with their units,
# directions and (end-to-end only) bounds.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# End-to-end metrics, printed by untraced runs (--trace 0):
# name -> (unit, better, bound).
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in SPEC["end_to_end"]}
# Per-layer metrics, printed by traced runs (--trace 1): name -> (unit,
# better). Counts are per traced pass; "probe" values time standalone
# objects or a twin world; "est" values are probe x count estimates.
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}

# The seed a run uses when none is given, and the held-out seed that
# confirms a claim made while tuning on the default one.
DEFAULT_SEED = 1
HELDOUT_SEED = 424242
SEED_ALIASES = {"default": DEFAULT_SEED, "heldout": HELDOUT_SEED}

# Environment prefixes that change what the simulator does: World applies
# MANET_* knobs at construction and the repo's figure benches read REPRO_*.
REFUSED_ENV_PREFIXES = ("MANET_", "REPRO_")

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """True for a name of 1-64 characters from [A-Za-z0-9_.-] that starts
    with a letter or digit."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def refused_environment(environ):
    """Names of the variables in `environ` that would change the simulated
    scenarios, sorted; empty when the environment is clean."""
    return sorted(k for k in environ if k.startswith(REFUSED_ENV_PREFIXES))


def parse_seed(text):
    """An integer seed, or one of the aliases "default" and "heldout"."""
    if text in SEED_ALIASES:
        return SEED_ALIASES[text]
    seed = int(text)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile_with_support(values, q, min_beyond=10):
    """The nearest-rank q-th percentile (0 < q < 100) of `values`, with the
    sample count. The value is None unless at least `min_beyond` samples lie
    strictly above it, so a tail percentile is never read off a handful of
    samples. Returns (value or None, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q / 100.0 * n))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return (value if beyond >= min_beyond else None), n


# Per-scenario fields the output digest covers: the paper's metrics and the
# channel's frame counts.
FLOAT_FIELDS = ("re", "srb", "latency_s")
COUNT_FIELDS = ("tx", "delivered", "corrupted")
DIGEST_FIELDS = FLOAT_FIELDS + COUNT_FIELDS


def output_digest(scenarios):
    """SHA-256 over the labelled simulation outputs of one pass, in scenario
    order. Floats are hashed by their exact bit pattern (float.hex), so the
    digest changes when any output moves by one ulp and never depends on
    print formatting."""
    h = hashlib.sha256()
    for s in scenarios:
        parts = [s["label"]]
        parts += [float(s[f]).hex() for f in FLOAT_FIELDS]
        parts += [str(int(s[f])) for f in COUNT_FIELDS]
        h.update(("|".join(parts) + "\n").encode())
    return h.hexdigest()


def result_line(correct, attempted, failed, metrics):
    """The run's last stdout line: one JSON object. `metrics` maps name ->
    (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def summarize(lines, trace):
    """Turns perfbench_sim's JSON lines into the run's outcome.

    Returns a dict with: metrics (name -> (value, unit)), attempted, failed,
    failures (list of "pass N label: why"), digests (per pass, with the
    traced flag), correct, env (perfbench_sim's "end" line), tail (the
    scenario-time p90 with its sample count, or None), passes (untraced)
    and r_over_e."""
    scenarios = [r for r in lines if r["kind"] == "scenario"]
    passes = [r for r in lines if r["kind"] == "pass"]
    layers = [r for r in lines if r["kind"] == "layers"]
    ends = [r for r in lines if r["kind"] == "end"]
    if not scenarios or not passes or len(ends) != 1:
        raise ValueError("perfbench_sim output is incomplete")

    by_pass = {}
    for s in scenarios:
        by_pass.setdefault(s["pass"], []).append(s)
    failures = [f"pass {s['pass']} {s['label']}: {s['why']}"
                for s in scenarios if not s["ok"]]

    # Every pass of a run replays the same inputs, traced or not, so every
    # pass must produce the same outputs.
    digests = [(p, by_pass[p][0]["traced"], output_digest(by_pass[p]))
               for p in sorted(by_pass)]
    reference = by_pass[min(by_pass)]
    for p, traced, digest in digests[1:]:
        if digest == digests[0][2]:
            continue
        for s, ref in zip(by_pass[p], reference):
            if any(s[f] != ref[f] for f in DIGEST_FIELDS):
                failures.append(f"pass {p} {s['label']}: output differs from "
                                f"pass {digests[0][0]}"
                                f"{' (traced)' if traced else ''}")

    untraced = [p for p in passes if not p["traced"]]
    # One scenario's host time, from build to collected results.
    run_times = [(s["build_ns"] + s["begin_ns"] + s["run_ns"] +
                  s["collect_ns"]) / 1e6
                 for s in scenarios if not s["traced"]]
    tail = percentile_with_support(run_times, 90)

    if trace:
        if len(layers) != 1:
            raise ValueError("traced run printed no layer metrics")
        values = layers[0]["metrics"]
        if set(values) != set(PER_LAYER):
            raise ValueError("perfbench_sim layer metrics differ from "
                             "PER_LAYER: "
                             f"{sorted(set(values) ^ set(PER_LAYER))}")
        metrics = {n: (values[n], PER_LAYER[n][0]) for n in PER_LAYER}
    else:
        def mean(field):
            return sum(s[field] for s in reference) / len(reference)
        values = {
            "broadcasts_per_s": statistics.median(
                p["broadcasts"] / (p["run_ns"] / 1e9) for p in untraced),
            "setup_s": statistics.median(p["setup_ns"] / 1e9 for p in untraced),
            "cpu_s": statistics.median(p["cpu_ns"] / 1e9 for p in untraced),
            "scenario_ms_p50": statistics.median(run_times),
            "peak_rss_mb": ends[0]["peak_rss_kb"] / 1024.0,
            "re": mean("re"),
            "srb": mean("srb"),
            "bcast_latency_ms": mean("latency_s") * 1e3,
        }
        metrics = {n: (values[n], END_TO_END[n][0]) for n in END_TO_END}

    return {
        "metrics": metrics,
        "attempted": len(scenarios),
        "failed": len({f.split(":")[0] for f in failures}),
        "failures": failures,
        "digests": digests,
        "correct": not failures,
        "env": ends[0],
        "tail": tail,
        "passes": len(untraced),
        # Broadcasts whose receivers outnumber their initiation snapshot e
        # (allowed; see checkOutputs in simbench.cpp), in one pass.
        "r_over_e": sum(s["r_over_e"] for s in reference),
    }
