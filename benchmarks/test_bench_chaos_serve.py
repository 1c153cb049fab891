"""Chaos-serve bench: availability and parity under seeded fault injection.

Records, into ``benchmarks/BENCH_chaos_serve.json``, one chaos-serve run
under the default seeded dma+cpe fault plan (~45% of staged batch DMAs
hang, two CPEs fenced):

* availability — every offered request answered with a served result or a
  typed rejection (shed / queue-full / deadline);
* the zero-wrong-answer parity audit — every served output bit-identical
  to the fault-free sequential reference;
* the breaker's open -> half-open -> closed transition trail, the
  retry/hedge/demotion taxonomy, and p99 latency with vs without faults.

Acceptance bars asserted here: zero wrong answers, the breaker actually
cycled (>= 1 open), and the written record passes its schema,
``repro.chaos_serve_bench/v1``, which the CI chaos stage checks
(``python -m repro validate``): the chaos-serve bars, availability >= 99%
(``MIN_AVAILABILITY``) among them, plus at least one breaker open.
"""

import json
import os

from repro.common.schema import CHAOS_SERVE_BENCH_SCHEMA, MIN_AVAILABILITY, validate
from repro.faults import default_chaos_serve_faults, run_chaos_serve

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_chaos_serve.json"
)

N_REQUESTS = 96
RATE_RPS = 2000.0


def _chaos(record):
    report = run_chaos_serve(
        fault_spec=default_chaos_serve_faults(),
        n_requests=N_REQUESTS,
        rate_rps=RATE_RPS,
    )
    payload = {**report.as_dict(), "schema": CHAOS_SERVE_BENCH_SCHEMA}

    assert report.wrong_answers == 0, (
        f"{report.wrong_answers} served answers differed from the "
        f"fault-free reference — the zero-wrong-answer contract is broken"
    )
    assert report.counters_balanced, "serve counters did not balance"
    assert report.breaker_opened >= 1, (
        "the breaker never tripped under a ~45% per-attempt failure rate"
    )
    violations = validate(payload)
    assert violations == [], f"schema violations: {violations}"

    record.update(payload)
    record["acceptance"] = {
        "availability_bar": f">= {MIN_AVAILABILITY} under seeded dma+cpe faults",
        "wrong_answers_bar": "== 0 (bit-identical or typed rejection)",
        "breaker_bar": ">= 1 open transition recorded",
    }


def test_bench_chaos_serve(benchmark):
    record = {}
    benchmark.pedantic(_chaos, args=(record,), rounds=1, iterations=1)
    with open(RESULTS_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print()
    print(json.dumps(record, indent=2))
    benchmark.extra_info.update(record)
