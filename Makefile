PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test chaos telemetry retrieval service verify drift stages coverage bench bench-perf bench-telemetry bench-retrieval bench-service bench-importance all

test:            ## fast tier-1 suite (verify/stages deselected)
	$(PYTEST) -x -q

chaos:           ## fault-injection suite (docs/resilience.md)
	$(PYTEST) -m chaos -q

telemetry:       ## observability-layer suite (docs/observability.md)
	$(PYTEST) -m telemetry -q

retrieval:       ## ANN retrieval / warm-start suite (docs/performance.md)
	$(PYTEST) -m retrieval -q

service:         ## sharded multi-tenant service suite (docs/service.md)
	$(PYTEST) -m service -q

verify:          ## invariant + property + differential suites (docs/testing.md)
	$(PYTEST) -m verify -q

drift:           ## task-switch / adversarial-drift battery (docs/testing.md)
	$(PYTEST) -m "drift or chaos" -q tests/verify/test_switch_properties.py tests/verify/test_switch_oracle.py tests/faults/test_switch_chaos.py tests/experiments/test_ext_drift.py

stages:          ## knob-importance / stage-scoped tuning battery (docs/testing.md)
	$(PYTEST) -m "stages or chaos" -q tests/sparksim/test_stage_battery.py tests/verify/test_pruned_oracle.py tests/verify/test_pruned_lockstep.py tests/verify/test_properties_importance.py tests/faults/test_importance_chaos.py tests/experiments/test_stage_experiments.py

coverage:        ## line-coverage summary for src/repro (stdlib tracer; slow)
	PYTHONPATH=src python tools/line_coverage.py $(COVERAGE_ARGS)

bench:           ## pytest-benchmark harness
	$(PYTEST) benchmarks/ --benchmark-only

bench-perf:      ## perf micro-benchmarks + regression guards -> BENCH_perf.json
	$(PYTEST) benchmarks/bench_perf_gp_update.py benchmarks/bench_perf_scoring.py benchmarks/bench_perf_batch.py benchmarks/bench_perf_lockstep.py benchmarks/bench_perf_telemetry.py benchmarks/bench_perf_retrieval.py -q

bench-telemetry: ## telemetry overhead bench -> telemetry section of BENCH_perf.json
	$(PYTEST) benchmarks/bench_perf_telemetry.py -q

bench-retrieval: ## ANN index bench (full scale) -> retrieval section of BENCH_perf.json
	$(PYTEST) benchmarks/bench_perf_retrieval.py -q

bench-service:   ## fleet-scale service bench (full scale) -> BENCH_service.json
	REPRO_BENCH_FULL=1 $(PYTEST) benchmarks/bench_perf_service.py -q

bench-importance: ## sensitivity-sweep + pruning benches -> importance section of BENCH_perf.json
	$(PYTEST) benchmarks/bench_perf_importance.py -q

all: test telemetry service verify
