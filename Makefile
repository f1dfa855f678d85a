PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test sweep sweep-fast fsck analyze \
	lint-persist lint-time obs-report fleet-smoke concurrent-smoke \
	elision-report perfbench-test

# The CI gate: the full static analyzer, the tier-1 suite, a strided
# smoke pass of every crash sweep (including the fleet fail-over and
# concurrent-gang layers), the end-to-end fleet and gang smokes, the
# flush-elision gates, then the benchmark's own tests.
check: analyze test sweep-fast fleet-smoke concurrent-smoke elision-report \
	perfbench-test

# Per-bench clflush/sfence deltas for the allocation buffers + flush-
# elision certificate (DESIGN.md §17): re-runs the fig17 and TPC-C
# elision legs at CI sizes, enforces the pinned gates (reduction beats
# the -16.2% coalescing baseline, SHA-256-identical images, hazard- and
# fsck-clean) and checks analysis-baseline.json covers the canonical
# trace's ESP401/402 fingerprints.  Writes ELISION_REPORT.json.
elision-report:
	$(PYTHON) -m repro.bench.elision_report

# End-to-end fleet smoke: 2 shards, contended traffic, one fail-over,
# reload from the durable directory, fsck on every heap.
fleet-smoke:
	$(PYTHON) -m repro.fleet.smoke

# End-to-end gang smoke: a 2-mutator contended KV run on the lock-free
# durable map — hazard-clean trace, crash, recover, durable
# linearizability check, fsck.
concurrent-smoke:
	$(PYTHON) -c "from repro.workloads.concurrent_kv import main; \
	raise SystemExit(main())"

# The full analyzer: AST source lint (ESP3xx) over src/ and examples/,
# persistent-closure analysis (ESP1xx) of the BasicTest DBPersistable
# schema, and the static interprocedural persist-order verifier
# (ESP5xx) over the durable subsystems, baseline-filtered with the
# justified-exception file.  Exit 1 on any non-baselined finding —
# this is what makes `make check` fail on new hazards.
analyze:
	$(PYTHON) -m repro.analysis --closure-schema --static-order \
	  --assumptions analysis-assumptions.json \
	  --baseline analysis-baseline.json

# Tier-1: the full unit/integration suite (exhaustive sweeps deselected).
test:
	$(PYTHON) -m pytest

# The benchmark's own tests (perfbench/tests, outside tier-1's
# testpaths): statistics, workload mixes, and traced runs that wrap the
# NvmDevice/AddressSpace methods and must charge what untraced runs do.
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests

# Exhaustive crash sweeps: every layer x every fault mode, every
# injection point until the workload outruns the bomb.
sweep:
	$(PYTHON) -m repro.faults.sweep_all

# Strided smoke pass of the same sweeps (seconds, not minutes).
sweep-fast:
	$(PYTHON) -m repro.faults.sweep_all --fast

# The sweep-marked pytest variants (same walks, pytest reporting).
sweep-pytest:
	$(PYTHON) -m pytest -m sweep

# No raw clflush/fence outside repro/nvm and repro/faults: all flush
# traffic must route through repro.nvm.persist.PersistDomain.
# (Alias for the ESP301/ESP302 rules of the unified analyzer.)
lint-persist:
	$(PYTHON) -m repro.analysis --rules ESP301,ESP302

# No wall-clock reads outside repro/nvm/clock.py and repro/obs: every
# timestamp must come from the simulated Clock.
# (Alias for the ESP303 rule of the unified analyzer.)
lint-time:
	$(PYTHON) -m repro.analysis --rules ESP303

# Run the traced fig17 bench, then render its obs section as tables.
obs-report:
	$(PYTHON) -m repro.bench.fig17_basictest_breakdown
	$(PYTHON) -m repro.obs.report BENCH_fig17.json
