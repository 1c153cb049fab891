"""Every JSON document format the repo writes, and one checker for them.

Each document kind has a tag in its ``"schema"`` field (a Chrome trace has
none: a top-level ``traceEvents`` list marks it), a *spec* pinning its
shape, and an *invariant* function holding the rules that cross fields
and the acceptance bars a committed record must clear.  :func:`validate`
checks a document against both and returns one line per violation;
``python -m repro validate FILE...`` is its command line.

A spec is written in five forms:

* a type name: ``"str"``, ``"int"``, ``"number"``, ``"bool"`` or ``"any"``
  (a bool is never an ``int`` or a ``number``);
* ``{key: spec}``: an object that has these keys (other keys are allowed);
* ``{"key?": spec}``: the key is optional;
* ``[spec]``: a list whose items all match ``spec``;
* ``{"*": spec}``: a map whose values all match ``spec``.

Invariants run only on a document whose shape matches its spec, so they
read fields without re-checking types.  This module imports nothing else
from ``repro``; the producers import their tags from here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

ALGOS_SCHEMA = "repro.algos/v1"
AUTOTUNE_SCHEMA = "repro.autotune/v1"
CHAOS_FLEET_SCHEMA = "repro.chaos_fleet/v1"
CHAOS_SERVE_SCHEMA = "repro.chaos_serve/v1"
CHAOS_SERVE_BENCH_SCHEMA = "repro.chaos_serve_bench/v1"
DATAPARALLEL_SCHEMA = "repro.dataparallel/v1"
FASTPATH_SCHEMA = "repro.fastpath/v1"
FLEET_SCHEMA = "repro.fleet/v1"
FLIGHT_SCHEMA = "repro.flight/v1"
METRICS_SCHEMA = "repro.metrics/v1"
ORACLE_SCHEMA = "repro.oracle/v1"
PROFILE_SCHEMA = "repro.profile/v1"
SERVE_SCHEMA = "repro.serve/v1"
TELEMETRY_SCHEMA = "repro.telemetry/v1"

#: Fleet acceptance bars: throughput at 4 chips, p99 vs one chip, home hits.
MIN_SCALING_4CHIP = 3.0
MAX_P99_RATIO = 1.25
MIN_AFFINITY_HIT_RATE = 0.90
#: Overlapped-vs-serialized speedup every ablation row at >=16 nodes must clear.
MIN_OVERLAP_SPEEDUP = 1.2
#: Mild superlinear scaling (cache/batch effects) is fine; more is a bug.
MAX_EFFICIENCY = 1.25
#: How much faster than the full bus-protocol simulation mesh-fast must run.
MIN_FASTPATH_SPEEDUP = 5.0
#: Share of offered chaos-serve requests answered (served or typed rejection).
MIN_AVAILABILITY = 0.99
#: Batched-over-sequential serve throughput at a saturating arrival rate.
MIN_BATCHED_SPEEDUP = 3.0
#: Packed repeat-inference may be this much slower than unpacked (timer noise).
MAX_PACKED_RATIO = 1.10
#: Enabled telemetry's cost on the Table III schedule walk, in percent.
MAX_WALK_OVERHEAD_PCT = 50.0
#: Fusion-aware tuned conv->ReLU->pool step over the heuristic unfused one.
MIN_FUSED_SPEEDUP = 1.3
#: Batch-sharded 4-CG chip throughput over one CG (must exceed this).
MIN_SHARDING_SCALING = 2.5

_TYPES = {"str": str, "int": int, "number": (int, float), "bool": bool, "any": object}


def _check(value: Any, spec: Any, path: str, errors: List[str]) -> None:
    """Append one line per place ``value`` departs from ``spec``."""
    if isinstance(spec, str):
        wanted = spec
        ok = isinstance(value, _TYPES[spec]) and not (
            isinstance(value, bool) and spec in ("int", "number")
        )
    else:
        wanted = "list" if isinstance(spec, list) else "object"
        ok = isinstance(value, list if isinstance(spec, list) else dict)
    if not ok:
        errors.append(
            f"{path or 'document'}: expected {wanted}, got {type(value).__name__}"
        )
    elif isinstance(spec, list):
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]", errors)
    elif isinstance(spec, dict) and "*" in spec:
        for key, item in value.items():
            _check(item, spec["*"], f"{path}[{key!r}]", errors)
    elif isinstance(spec, dict):
        for key, sub in spec.items():
            name = key.rstrip("?")
            where = f"{path}.{name}" if path else name
            if name in value:
                _check(value[name], sub, where, errors)
            elif not key.endswith("?"):
                errors.append(f"{where}: required key is missing")


# Chrome trace_event object format: complete ("X") and metadata ("M")
# events, the subset the tracer emits and viewers require.
_TRACE = {
    "traceEvents": [
        {
            **dict.fromkeys(("name", "ph", "cat?"), "str"),
            **dict.fromkeys(("pid", "tid"), "int"),
            **dict.fromkeys(("ts?", "dur?"), "number"),
            "args?": {"*": "any"},
        }
    ]
}


def _trace_rules(doc: Dict[str, Any]) -> List[str]:
    errors: List[str] = []
    # The same (kind, pid, tid) declared with *different* labels: the viewer
    # silently keeps one.  Identical redeclarations are fine (merged traces).
    declared: Dict[Tuple[str, int, int], Tuple[int, Any]] = {}
    for i, event in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not event["name"]:
            errors.append(f"{where}.name: must not be empty")
        if event["ph"] == "X":
            for key in ("ts", "dur"):
                if key not in event:
                    errors.append(f"{where}.{key}: required by a complete event")
                elif event[key] < 0:
                    errors.append(f"{where}.{key}: must be >= 0, got {event[key]}")
        elif event["ph"] != "M":
            errors.append(f"{where}.ph: must be 'X' or 'M', got {event['ph']!r}")
        elif "args" not in event:
            errors.append(f"{where}.args: required by a metadata event")
        else:
            key = (event["name"], event["pid"], event["tid"])
            label = event["args"].get("name")
            first, first_label = declared.setdefault(key, (i, label))
            if first_label != label:
                errors.append(
                    f"{where}: metadata {key[0]!r} for pid={key[1]} tid={key[2]} "
                    f"conflicts with traceEvents[{first}] "
                    f"({first_label!r} != {label!r})"
                )
    return errors


# Oracle report, and the profile document that carries one.
_ALGORITHMS = ("direct", "im2col", "winograd")

_ORACLE = {
    "threshold": "number",
    "flagged": "int",
    "rows": [
        {
            "params": ["int"],
            **dict.fromkeys(("algorithm", "plan"), "str"),
            **dict.fromkeys(("measured_bytes", "bound_bytes"), "int"),
            **dict.fromkeys(("attainment", "gflops"), "number"),
            "flagged": "bool",
        }
    ],
}

_DRIFT = {"threshold": "number", "flagged": "int", "rows": [{"flagged": "bool"}]}

_PROFILE = {
    "params": "str",
    "chip_gflops": "number",
    "counters": {"*": "number"},
    "drift": _DRIFT,
    "oracle": _ORACLE,
}


def _tally(report: Dict[str, Any], where: str) -> List[str]:
    """A report's ``flagged`` count must match its flagged rows."""
    actual = sum(1 for row in report["rows"] if row["flagged"])
    if report["flagged"] == actual:
        return []
    return [
        f"{where}flagged: flagged count is {report['flagged']} but {actual} "
        f"row(s) are flagged"
    ]


def _oracle_rules(doc: Dict[str, Any], prefix: str = "") -> List[str]:
    """Oracle invariants; ``prefix`` places a section inside a larger document."""
    errors = _tally(doc, prefix)
    if doc["threshold"] <= 0:
        errors.append(
            f"{prefix}threshold: must be positive, got {doc['threshold']}"
        )
    if not doc["rows"]:
        errors.append(f"{prefix}rows: must be non-empty")
    # Every layer needs its direct baseline row: attainment of the lowered
    # families is only meaningful relative to it.
    shapes: Dict[Tuple[int, ...], set] = {}
    for i, row in enumerate(doc["rows"]):
        where, algorithm = f"{prefix}rows[{i}]", row["algorithm"]
        if len(row["params"]) != 5:
            errors.append(f"{where}.params: must be [ni, no, ro, kr, b]")
        if algorithm not in _ALGORITHMS:
            errors.append(f"{where}.algorithm: unknown algorithm {algorithm!r}")
        for key in ("measured_bytes", "bound_bytes", "attainment"):
            if row[key] <= 0:
                errors.append(f"{where}.{key}: must be positive, got {row[key]}")
        if row["attainment"] > 0 and row["measured_bytes"] > 0:
            expect = row["bound_bytes"] / row["measured_bytes"]
            if abs(row["attainment"] - expect) > 1e-9 * max(1.0, expect):
                errors.append(
                    f"{where}.attainment: {row['attainment']} != "
                    f"bound/measured {expect}"
                )
        shapes.setdefault(tuple(row["params"]), set()).add(algorithm)
    for shape, algorithms in shapes.items():
        if "direct" not in algorithms:
            errors.append(
                f"{prefix}rows: shape {list(shape)} has no direct baseline row"
            )
    return errors


def _profile_rules(doc: Dict[str, Any]) -> List[str]:
    errors = _tally(doc["drift"], "drift.")
    errors += _oracle_rules(doc["oracle"], "oracle.")
    if not doc["params"]:
        errors.append("params: must not be empty")
    if doc["chip_gflops"] < 0:
        errors.append(f"chip_gflops: must be >= 0, got {doc['chip_gflops']}")
    return errors


# Metrics snapshot and flight-recorder dump.
_METRICS = {
    "counters": {"*": "number"},
    "histograms": {
        "*": {
            "count": "int",
            **dict.fromkeys(
                ("sum", "min", "max", "mean", "p50", "p90", "p99"), "number"
            ),
            "zero_count?": "int",
            "buckets": {"*": "int"},
        }
    },
    "gauges": {"*": dict.fromkeys(("value", "min", "max", "updates"), "number")},
    "series": {"*": {"capacity": "int", "points": [["number"]]}},
}


def _metrics_rules(doc: Dict[str, Any]) -> List[str]:
    errors: List[str] = []
    for name, h in doc["histograms"].items():
        where = f"histograms[{name!r}]"
        if h["count"] < 0:
            errors.append(f"{where}.count: is negative")
        total = sum(h["buckets"].values())
        expected = h["count"] - h.get("zero_count", 0)
        if total != expected:
            errors.append(
                f"{where}.buckets: bucket counts sum to {total}, expected {expected}"
            )
        if h["p99"] < h["p50"]:
            errors.append(f"{where}: p99 {h['p99']} below p50 {h['p50']}")
    for name, s in doc["series"].items():
        where, points, capacity = f"series[{name!r}]", s["points"], s["capacity"]
        if capacity < 1:
            errors.append(f"{where}.capacity: must be >= 1, got {capacity}")
        elif len(points) > capacity:
            errors.append(f"{where}: {len(points)} points exceed capacity {capacity}")
        for i, point in enumerate(points):
            if len(point) != 2:
                errors.append(f"{where}.points[{i}]: must be [t, value]")
                break
            if i and point[0] < points[i - 1][0]:
                errors.append(
                    f"{where}.points[{i}]: goes back in time "
                    f"({point[0]} < {points[i - 1][0]})"
                )
                break
    return errors


_FLIGHT = {
    **dict.fromkeys(("capacity", "recorded", "dropped"), "int"),
    "events": [
        {"seq": "int", "t_us": "number", "kind": "str", "args?": {"*": "any"}}
    ],
}

# Chaos-serve report.
_CHAOS_TALLIES = (
    "offered", "completed", "shed", "rejected", "deadline_misses", "errors",
    "wrong_answers", "breaker_opened", "breaker_half_opened", "breaker_closed",
    "retries", "hedges",
)

_CHAOS_SERVE = {
    **dict.fromkeys(("seed",) + _CHAOS_TALLIES, "int"),
    "availability": "number",
    "breaker_transitions": ["str"],
    **dict.fromkeys(("demotions", "fault_events"), {"*": "int"}),
    **dict.fromkeys(
        ("p50_ms_fault", "p99_ms_fault", "p50_ms_clean", "p99_ms_clean"), "number"
    ),
    "counters_balanced": "bool",
}


def _chaos_contract(doc: Dict[str, Any]) -> List[str]:
    """The bars every chaos run holds: no wrong answer, balanced counters."""
    errors: List[str] = []
    if doc["wrong_answers"]:
        errors.append(
            f"wrong_answers: {doc['wrong_answers']} wrong answers recorded; "
            f"the contract is zero"
        )
    if not doc["counters_balanced"]:
        errors.append("counters_balanced: counters did not balance")
    return errors


def _chaos_serve_rules(doc: Dict[str, Any]) -> List[str]:
    errors = [f"{key}: is negative" for key in _CHAOS_TALLIES if doc[key] < 0]
    if not 0.0 <= doc["availability"] <= 1.0:
        errors.append(f"availability: {doc['availability']} not in [0, 1]")
    elif doc["availability"] < MIN_AVAILABILITY:
        errors.append(
            f"availability: {doc['availability']} below {MIN_AVAILABILITY}"
        )
    answered = sum(
        doc[key] for key in ("completed", "shed", "rejected", "deadline_misses")
    )
    if answered > doc["offered"]:
        errors.append(f"offered: answered {answered} exceeds offered {doc['offered']}")
    errors += _chaos_contract(doc)
    for i, label in enumerate(doc["breaker_transitions"]):
        if "->" not in label:
            errors.append(f"breaker_transitions[{i}]: malformed transition {label!r}")
    return errors


def _chaos_serve_bench_rules(doc: Dict[str, Any]) -> List[str]:
    """The chaos-serve bars plus the bench's own: the breaker tripped.

    The bench offers enough requests under its fault rate that the breaker
    must open; a smoke run writes the plain chaos-serve tag and need not.
    """
    errors = _chaos_serve_rules(doc)
    if doc["breaker_opened"] < 1:
        errors.append("breaker_opened: 0 opens; the bench bar is at least 1")
    if not any(label.endswith("->open") for label in doc["breaker_transitions"]):
        errors.append("breaker_transitions: no transition into open recorded")
    return errors


# Chaos-fleet report: a home chip killed mid-run.
_CHAOS_FLEET = {
    **dict.fromkeys(
        (
            "seed", "chips", "killed_chip", "kill_at", "offered", "completed",
            "shed", "rejected", "deadline_misses", "errors", "wrong_answers",
            "failovers", "chip_deaths",
        ),
        "int",
    ),
    "availability": "number",
    "counters_balanced": "bool",
    "chip_states": {"*": "str"},
    "routing": {"*": "number"},
}


def _chaos_fleet_rules(doc: Dict[str, Any]) -> List[str]:
    errors = _chaos_contract(doc)
    if doc["failovers"] < 1:
        errors.append("failovers: chip loss produced no failover routing")
    if doc["errors"]:
        errors.append(f"errors: {doc['errors']} untyped errors")
    return errors


# Data-parallel report.
_SCALING_ROW = {"nodes": "int", "step_seconds": "number", "efficiency": "number"}

_DATAPARALLEL = {
    **dict.fromkeys(
        ("seed", "bucket_bytes", "global_batch", "steps", "nodes_executed", "jobs"),
        "int",
    ),
    "topology": "str",
    **dict.fromkeys(("overlap", "replicas_in_lockstep"), "bool"),
    **dict.fromkeys(("losses", "step_seconds"), ["number"]),
    **dict.fromkeys(
        (
            "final_loss", "final_accuracy", "throughput_samples_per_second",
            "comm_compute_ratio",
        ),
        "number",
    ),
    "comm_counters": {"*": "number"},
    "fault_events": ["str"],
    "parity": {
        "node_counts": ["int"],
        **dict.fromkeys(("global_batch", "grain", "steps"), "int"),
        **dict.fromkeys(
            ("bitwise_identical", "matches_plain_sgd", "replicas_in_lockstep"), "bool"
        ),
        "pairwise_vs_first": {"*": "bool"},
    },
    **dict.fromkeys(("weak_scaling", "strong_scaling"), [_SCALING_ROW]),
    "overlap_ablation": [
        {
            "nodes": "int",
            **dict.fromkeys(
                ("overlapped_seconds", "serialized_seconds", "speedup"), "number"
            ),
        }
    ],
}


def _dataparallel_rules(doc: Dict[str, Any]) -> List[str]:
    errors: List[str] = []
    if doc["nodes_executed"] < 1:
        errors.append(f"nodes_executed: must be >= 1, got {doc['nodes_executed']}")
    if len(doc["losses"]) != doc["steps"]:
        errors.append(
            f"losses: {len(doc['losses'])} recorded for {doc['steps']} steps"
        )
    if not doc["replicas_in_lockstep"]:
        errors.append("replicas_in_lockstep: replicas are not in bitwise lockstep")
    if doc["throughput_samples_per_second"] <= 0:
        errors.append("throughput_samples_per_second: must be positive")
    if not doc["parity"]["bitwise_identical"]:
        errors.append(
            "parity.bitwise_identical: false; N-node training does not "
            "reproduce single-node weights"
        )
    for name in ("weak_scaling", "strong_scaling", "overlap_ablation"):
        nodes = [row["nodes"] for row in doc[name]]
        if nodes != sorted(nodes):
            errors.append(f"{name}: rows are not sorted by ascending node count")
    for name in ("weak_scaling", "strong_scaling"):
        for i, row in enumerate(doc[name]):
            if not 0.0 < row["efficiency"] <= MAX_EFFICIENCY:
                errors.append(
                    f"{name}[{i}].efficiency: {row['efficiency']} outside "
                    f"(0, {MAX_EFFICIENCY}]"
                )
    for i, row in enumerate(doc["overlap_ablation"]):
        if row["nodes"] >= 16 and row["speedup"] < MIN_OVERLAP_SPEEDUP:
            errors.append(
                f"overlap_ablation[{i}].speedup: {row['speedup']:.3f} at "
                f"{row['nodes']} nodes, below the {MIN_OVERLAP_SPEEDUP}x bar"
            )
    counters = doc["comm_counters"]
    errors += [
        f"comm_counters[{key!r}]: is negative"
        for key, value in counters.items()
        if value < 0
    ]
    if doc["nodes_executed"] > 1 and counters.get("comm.link_bytes", 0) <= 0:
        errors.append("comm_counters: a multi-node run recorded no comm.link_bytes")
    return errors


# Fleet bench report.
_FLEET = {
    "rows": [
        {
            "chips": "int",
            **dict.fromkeys(
                (
                    "offered_rps", "throughput_rps", "p50_ms", "p99_ms",
                    "affinity_hit_rate", "mean_batch",
                ),
                "number",
            ),
        }
    ],
    **dict.fromkeys(("scaling_4chip", "p99_ratio_4v1", "affinity_hit_rate"), "number"),
    "real_fleet": {
        **dict.fromkeys(("chips", "requests", "completed", "wrong_answers"), "int"),
        **dict.fromkeys(("bit_identical", "counters_balanced"), "bool"),
        "affinity_hit_rate": "number",
    },
    "diurnal": {
        **dict.fromkeys(
            ("requests", "chips", "min_chips", "scale_ups", "scale_parks"), "int"
        ),
        **dict.fromkeys(("mean_active_chips", "p99_ms", "static_p99_ms"), "number"),
    },
}


def _fleet_rules(doc: Dict[str, Any]) -> List[str]:
    errors = [] if doc["rows"] else ["rows: must be non-empty"]
    previous = 0
    for i, row in enumerate(doc["rows"]):
        if row["chips"] <= previous:
            errors.append(f"rows[{i}].chips: not strictly increasing")
        previous = max(previous, row["chips"])
        if row["throughput_rps"] <= 0:
            errors.append(f"rows[{i}].throughput_rps: must be positive")
    if doc["scaling_4chip"] < MIN_SCALING_4CHIP:
        errors.append(
            f"scaling_4chip: {doc['scaling_4chip']:.2f} < {MIN_SCALING_4CHIP} "
            f"(fleet throughput at 4 chips)"
        )
    if doc["p99_ratio_4v1"] > MAX_P99_RATIO:
        errors.append(
            f"p99_ratio_4v1: {doc['p99_ratio_4v1']:.2f} > {MAX_P99_RATIO} "
            f"(p99 not matched across chip counts)"
        )
    real, diurnal = doc["real_fleet"], doc["diurnal"]
    for where, section in (("", doc), ("real_fleet.", real)):
        if section["affinity_hit_rate"] < MIN_AFFINITY_HIT_RATE:
            errors.append(
                f"{where}affinity_hit_rate: {section['affinity_hit_rate']:.3f} "
                f"< {MIN_AFFINITY_HIT_RATE}"
            )
    if real["wrong_answers"]:
        errors.append(
            f"real_fleet.wrong_answers: {real['wrong_answers']} wrong answer(s)"
        )
    if not real["bit_identical"]:
        errors.append(
            "real_fleet.bit_identical: outputs not bit-identical to the "
            "single-chip server"
        )
    if not real["counters_balanced"]:
        errors.append("real_fleet.counters_balanced: counters do not balance")
    if real["completed"] < 1:
        errors.append("real_fleet.completed: no request completed")
    if diurnal["scale_ups"] < 1:
        errors.append("diurnal.scale_ups: the autoscaler never scaled up")
    if diurnal["scale_parks"] < 1:
        errors.append("diurnal.scale_parks: the autoscaler never parked a chip")
    if not diurnal["min_chips"] <= diurnal["mean_active_chips"] <= diurnal["chips"]:
        errors.append(
            f"diurnal.mean_active_chips: {diurnal['mean_active_chips']:.2f} "
            f"outside [{diurnal['min_chips']}, {diurnal['chips']}]"
        )
    return errors


# Autotune bench record.
_AUTOTUNE = {
    "heuristic_vs_tuned": {
        **dict.fromkeys(("params", "tuned_plan"), "str"),
        **dict.fromkeys(("heuristic_gflops", "tuned_gflops", "speedup"), "number"),
        **dict.fromkeys(("candidates", "measured"), "int"),
    },
    "fused_vs_unfused": {
        **dict.fromkeys(("stack", "fused_plan"), "str"),
        **dict.fromkeys(
            ("unfused_heuristic_ms", "fused_tuned_ms", "speedup"), "number"
        ),
    },
    "batch_sharding": dict.fromkeys(
        ("one_cg_gflops", "four_cg_gflops", "scaling", "four_cg_peak_fraction"),
        "number",
    ),
    "plan_cache": {
        **dict.fromkeys(("cold_tune_seconds", "warm_hit_seconds"), "number"),
        **dict.fromkeys(
            ("cold_measured", "warm_measured", "hits", "misses", "stores"), "int"
        ),
    },
    "parity": {"params": "str", "tuned_plan": "str", "matches_reference": "bool"},
}


def _autotune_rules(doc: Dict[str, Any]) -> List[str]:
    tuned, warm = doc["heuristic_vs_tuned"], doc["plan_cache"]["warm_measured"]
    fused = doc["fused_vs_unfused"]["speedup"]
    scaling = doc["batch_sharding"]["scaling"]
    bars = [
        (tuned["tuned_gflops"] >= tuned["heuristic_gflops"],
         f"heuristic_vs_tuned.tuned_gflops: {tuned['tuned_gflops']} below the "
         f"heuristic's {tuned['heuristic_gflops']}"),
        (tuned["measured"] <= tuned["candidates"],
         f"heuristic_vs_tuned.measured: {tuned['measured']} exceeds "
         f"{tuned['candidates']} candidates"),
        (fused >= MIN_FUSED_SPEEDUP,
         f"fused_vs_unfused.speedup: {fused} below {MIN_FUSED_SPEEDUP}"),
        (scaling > MIN_SHARDING_SCALING,
         f"batch_sharding.scaling: {scaling} not above {MIN_SHARDING_SCALING}"),
        (warm == 0, f"plan_cache.warm_measured: {warm} measured on a warm hit"),
        (doc["parity"]["matches_reference"],
         "parity.matches_reference: the tuned plan misses the reference"),
    ]
    return [message for ok, message in bars if not ok]


# Fast-path bench record.
_FASTPATH = {
    "conv_forward": {
        "params": "str",
        "blocking": {"b_b": "int", "b_co": "int"},
        **dict.fromkeys(
            ("mesh_seconds", "mesh_fast_verify_seconds", "mesh_fast_seconds",
             "speedup"),
            "number",
        ),
        "bit_identical": "bool",
    },
    "fig7_subset": {
        "configs": "int",
        **dict.fromkeys(
            ("serial_seconds", "jobs4_seconds", "serial_configs_per_second",
             "jobs4_configs_per_second"),
            "number",
        ),
    },
    "train_step": {
        "batch": "int",
        **dict.fromkeys(("first_step_seconds", "steady_step_seconds"), "number"),
    },
}


def _fastpath_rules(doc: Dict[str, Any]) -> List[str]:
    forward = doc["conv_forward"]
    bars = [
        (forward["bit_identical"],
         "conv_forward.bit_identical: mesh-fast is not bit-identical to mesh"),
        (forward["speedup"] >= MIN_FASTPATH_SPEEDUP,
         f"conv_forward.speedup: {forward['speedup']} below "
         f"{MIN_FASTPATH_SPEEDUP}"),
    ]
    return [message for ok, message in bars if not ok]


# Serve bench record: dynamic batching, warm cache, packed filters.
_LOAD_REPORT = {
    "mode": "str",
    **dict.fromkeys(
        ("offered", "completed", "rejected", "deadline_misses", "errors"), "int"
    ),
    **dict.fromkeys(("wall_seconds", "rps"), "number"),
    "latency": {
        "count": "int",
        **dict.fromkeys(
            ("mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"), "number"
        ),
    },
}

_SERVE = {
    "throughput": {
        "layer": "str",
        **dict.fromkeys(("sequential", "batched"), _LOAD_REPORT),
        **dict.fromkeys(("speedup", "mean_batch"), "number"),
        "bit_identical_outputs": "bool",
    },
    "warm_cache": dict.fromkeys(
        (
            "warm_tuner_measurements", "steady_state_tuner_measurements",
            "warm_filter_packs", "steady_state_filter_packs",
            "restart_tuner_measurements", "restart_cache_hits",
        ),
        "int",
    ),
    "filter_pack": {
        "params": "str",
        **dict.fromkeys(("unpacked_seconds", "packed_seconds", "speedup"), "number"),
    },
}


def _serve_rules(doc: Dict[str, Any]) -> List[str]:
    throughput, warm, pack = doc["throughput"], doc["warm_cache"], doc["filter_pack"]
    batched = throughput["batched"]
    zero = (
        "steady_state_tuner_measurements", "steady_state_filter_packs",
        "restart_tuner_measurements",
    )
    bars = [
        (throughput["bit_identical_outputs"],
         "throughput.bit_identical_outputs: batched outputs differ from the "
         "per-request outputs"),
        (throughput["speedup"] >= MIN_BATCHED_SPEEDUP,
         f"throughput.speedup: {throughput['speedup']} below "
         f"{MIN_BATCHED_SPEEDUP}"),
        (batched["completed"] == batched["offered"],
         f"throughput.batched.completed: {batched['completed']} of "
         f"{batched['offered']} offered requests"),
        (warm["warm_tuner_measurements"] > 0,
         "warm_cache.warm_tuner_measurements: the warm-up measured nothing"),
        *((warm[key] == 0, f"warm_cache.{key}: {warm[key]}; the contract is zero")
          for key in zero),
        (pack["packed_seconds"] <= MAX_PACKED_RATIO * pack["unpacked_seconds"],
         f"filter_pack.packed_seconds: {pack['packed_seconds']} above "
         f"{MAX_PACKED_RATIO} x the unpacked {pack['unpacked_seconds']}"),
    ]
    return [message for ok, message in bars if not ok]


# Algorithm-zoo bench record: cross-family tuning of the Table III rows.
_ALGOS = {
    "rows": [
        {
            **dict.fromkeys(
                ("params", "direct_plan", "winner_algorithm", "winner_plan"), "str"
            ),
            **dict.fromkeys(
                ("direct_tuned_gflops", "winner_gflops", "speedup_vs_direct"),
                "number",
            ),
            "oracle_attainment": {"*": "number"},
        }
    ],
    "non_direct_winners": "int",
    "oracle": {"threshold": "number", "flagged": "int"},
}


def _algos_rules(doc: Dict[str, Any]) -> List[str]:
    errors: List[str] = []
    for i, row in enumerate(doc["rows"]):
        if row["winner_algorithm"] not in _ALGORITHMS:
            errors.append(
                f"rows[{i}].winner_algorithm: unknown algorithm "
                f"{row['winner_algorithm']!r}"
            )
        if row["winner_gflops"] < row["direct_tuned_gflops"]:
            errors.append(
                f"rows[{i}].winner_gflops: {row['winner_gflops']} below the "
                f"direct-tuned {row['direct_tuned_gflops']}"
            )
    winners, rows = doc["non_direct_winners"], len(doc["rows"])
    if not 1 <= winners <= rows:
        errors.append(f"non_direct_winners: {winners} not in [1, {rows}]")
    if doc["oracle"]["flagged"]:
        errors.append(
            f"oracle.flagged: {doc['oracle']['flagged']} layer(s) below the "
            f"attainment threshold"
        )
    return errors


# Telemetry bench record: overhead of an attached session, Table III drift.
_OVERHEAD = {
    "params": "str",
    **dict.fromkeys(
        ("disabled_seconds", "enabled_seconds", "enabled_overhead_pct"), "number"
    ),
}

_TELEMETRY = {
    **dict.fromkeys(("schedule_walk", "fast_path_forward"), _OVERHEAD),
    "metrics_flight": {
        **dict.fromkeys(("ops", "disabled_bytes_allocated"), "int"),
        **dict.fromkeys(("observe_ns", "sample_ns", "flight_record_ns"), "number"),
    },
    "table3_drift": _DRIFT,
}


def _telemetry_rules(doc: Dict[str, Any]) -> List[str]:
    errors = _tally(doc["table3_drift"], "table3_drift.")
    allocated = doc["metrics_flight"]["disabled_bytes_allocated"]
    if allocated > 0:
        errors.append(
            f"metrics_flight.disabled_bytes_allocated: the disabled sinks "
            f"allocated {allocated} bytes"
        )
    overhead = doc["schedule_walk"]["enabled_overhead_pct"]
    if overhead >= MAX_WALK_OVERHEAD_PCT:
        errors.append(
            f"schedule_walk.enabled_overhead_pct: {overhead} not below "
            f"{MAX_WALK_OVERHEAD_PCT}"
        )
    return errors


#: Tag -> (spec, invariants).
KINDS: Dict[str, Tuple[Any, Callable[[Dict[str, Any]], List[str]]]] = {
    ALGOS_SCHEMA: (_ALGOS, _algos_rules),
    AUTOTUNE_SCHEMA: (_AUTOTUNE, _autotune_rules),
    CHAOS_FLEET_SCHEMA: (_CHAOS_FLEET, _chaos_fleet_rules),
    CHAOS_SERVE_SCHEMA: (_CHAOS_SERVE, _chaos_serve_rules),
    CHAOS_SERVE_BENCH_SCHEMA: (_CHAOS_SERVE, _chaos_serve_bench_rules),
    DATAPARALLEL_SCHEMA: (_DATAPARALLEL, _dataparallel_rules),
    FASTPATH_SCHEMA: (_FASTPATH, _fastpath_rules),
    FLEET_SCHEMA: (_FLEET, _fleet_rules),
    FLIGHT_SCHEMA: (_FLIGHT, lambda doc: []),
    METRICS_SCHEMA: (_METRICS, _metrics_rules),
    ORACLE_SCHEMA: (_ORACLE, _oracle_rules),
    PROFILE_SCHEMA: (_PROFILE, _profile_rules),
    SERVE_SCHEMA: (_SERVE, _serve_rules),
    TELEMETRY_SCHEMA: (_TELEMETRY, _telemetry_rules),
}


def validate(doc: Any) -> List[str]:
    """Every violation of ``doc``'s spec and invariants; empty = valid.

    The kind comes from ``doc["schema"]``; an untagged object with a
    ``traceEvents`` key is a Chrome trace.  Malformed input of any shape
    is reported, never raised.
    """
    if not isinstance(doc, dict):
        return [f"document: expected object, got {type(doc).__name__}"]
    if "schema" not in doc and "traceEvents" in doc:
        spec, rules = _TRACE, _trace_rules
    elif doc.get("schema") in KINDS:
        spec, rules = KINDS[doc["schema"]]
    else:
        return [
            f"schema: unknown tag {doc.get('schema')!r}; known tags: "
            f"{', '.join(KINDS)} (a Chrome trace has none, only a top-level "
            f"traceEvents list)"
        ]
    errors: List[str] = []
    _check(doc, spec, "", errors)
    return errors or rules(doc)
