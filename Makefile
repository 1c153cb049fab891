PYTHONPATH := src
export PYTHONPATH

.PHONY: test faults tune zoo profile serve fleet chaos scale metrics bench-smoke bench-pairs verify

test:
	python -m pytest -x -q

faults:
	python -m pytest -x -q -m faults tests/faults

tune:
	python -m pytest -x -q -m tune tests/tune

zoo:
	python -m pytest -x -q -m zoo tests/tune

profile:
	python -m repro profile --ni 32 --no 32 --out 16 --batch 16 \
	    --tiles 8 --guarded --trace-out /tmp/repro-profile-trace.json \
	    --json-out /tmp/repro-profile.json
	python -m repro validate /tmp/repro-profile-trace.json \
	    /tmp/repro-profile.json

serve:
	python -m pytest -x -q -m serve tests/serve
	python -m repro serve --smoke

fleet:
	python -m repro serve --chips 4 --smoke
	python -m repro serve --chips 3 --chaos --requests 48 --smoke \
	    --json-out /tmp/repro-chaos-fleet.json \
	    --flight-out /tmp/repro-chaos-fleet-flight.json
	python -m repro validate /tmp/repro-chaos-fleet.json \
	    /tmp/repro-chaos-fleet-flight.json benchmarks/BENCH_fleet.json

chaos:
	python -m repro serve --chaos --smoke --json-out /tmp/repro-chaos.json \
	    --flight-out /tmp/repro-flight.json
	python -m repro validate /tmp/repro-chaos.json /tmp/repro-flight.json \
	    benchmarks/BENCH_chaos_serve.json

scale:
	python -m pytest -x -q -m scale tests/scale
	python -m repro train --nodes 3 --smoke --json-out /tmp/repro-scale.json
	python -m repro validate /tmp/repro-scale.json \
	    benchmarks/BENCH_dataparallel.json

metrics:
	python -m repro metrics --smoke --requests 48 \
	    --json-out /tmp/repro-metrics.json
	python -m repro validate /tmp/repro-metrics.json

bench-smoke:
	python3 -m pytest swbench/tests -q

# Paired benchmark runs of this checkout against PARENT (see the script).
PARENT ?= HEAD~1
WORKLOAD ?= sweep
PAIRS ?= 10
SECONDS ?= 30
bench-pairs:
	python3 scripts/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
	    --pairs $(PAIRS) --seconds $(SECONDS)

verify:
	sh scripts/verify.sh
