# Developer entry points. `make test` is the tier-1 gate CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-cluster test-memory test-scheduler test-daemon test-telemetry test-insights bench bench-fast lint examples example-sweep clean

test:
	$(PYTHON) -m pytest -x -q

# Multi-rank distributed replay subsystem: unit/integration tests, the
# vectorized == scalar suite (fleet-shared programs included), plus a
# 4-rank DDP smoke replay through the public facade.
test-cluster:
	$(PYTHON) -m pytest tests/test_cluster_replay.py tests/test_collective_costmodel.py tests/test_vectorized_equivalence.py -q
	$(PYTHON) examples/cluster_straggler.py

# Device-memory simulation subsystem: allocator/lifetime/timeline tests,
# the allocator property suite, and a CLI smoke run of memory-report.
test-memory:
	$(PYTHON) -m pytest tests/test_memory_subsystem.py tests/test_property_memory.py -q
	$(PYTHON) -m repro memory-report --help > /dev/null

# Event-driven cluster scheduler: the hypothesis property suite (the
# scheduler's contract since the threaded oracle retired) and the
# 1024-rank fleet-throughput benchmark.
test-scheduler:
	$(PYTHON) -m pytest tests/test_property_scheduler.py benchmarks/test_cluster_scale.py -q

# Replay daemon: job queue / REST API / pause-resume-snapshot tests, the
# serialize round-trip suite, the persisted-shape fuzz suite, and a CLI
# smoke run of `repro serve`.
test-daemon:
	$(PYTHON) -m pytest tests/test_daemon.py tests/test_serialize_payloads.py tests/test_property_persisted_shapes.py -q
	$(PYTHON) -m repro serve --help > /dev/null

# Telemetry subsystem: tracer/metrics/export tests, the byte-identical
# disabled-fast-path suite, the replay profiler (ProfileHook) with the
# vectorized == scalar equivalence suite, and CLI smoke runs of
# `repro profile` and replay-dist --trace-out.
test-telemetry:
	$(PYTHON) -m pytest tests/test_telemetry.py tests/test_telemetry_fastpath.py tests/test_profiling.py tests/test_vectorized_equivalence.py -q
	$(PYTHON) -m repro profile --help > /dev/null
	$(PYTHON) -m repro replay-dist --help > /dev/null

# Insights subsystem: critical-path / diff / regression analyses, the
# structured-logging satellite, and a CLI smoke run of `repro analyze`.
test-insights:
	$(PYTHON) -m pytest tests/test_insights.py -q
	$(PYTHON) -m repro analyze --help > /dev/null

# After the benchmarks refresh BENCH_replay_throughput.json, the
# regression watchdog checks it against the recorded trajectory
# (BENCH_history.jsonl, appended with --record) and fails the target on
# a perf drop.
bench:
	$(PYTHON) -m pytest benchmarks/ -q
	$(PYTHON) -m repro analyze regressions --record

# Just the replay-engine throughput benchmark: refreshes
# BENCH_replay_throughput.json at the repo root in a few seconds.
bench-fast:
	$(PYTHON) -m pytest benchmarks/test_bench_trajectory.py benchmarks/test_replay_throughput.py -q
	$(PYTHON) -m repro analyze regressions --record

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -m repro --version
	$(PYTHON) scripts/check_deprecated_usage.py

# The examples that replay through repro.api sessions directly (quickstart
# also regenerates examples/generated/; each about 0.5-1 s) and the batch
# sweep over a process pool (about 1.5 s), run end to end so an API or
# backend change cannot break them unseen.
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/scaled_down_rm.py
	$(PYTHON) examples/subtrace_and_custom_ops.py
	$(PYTHON) examples/cross_platform_evaluation.py
	$(PYTHON) examples/batch_sweep.py

example-sweep:
	$(PYTHON) examples/batch_sweep.py

clean:
	rm -rf .pytest_cache .benchmarks examples/trace_repo
	find . -name __pycache__ -type d -exec rm -rf {} +
