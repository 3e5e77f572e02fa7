# Convenience targets for the reproduction.

.PHONY: install test doctest lint docs-check validate-configs bench \
	bench-quick bench-paper bench-diff bench-serve figures clean

install:
	python setup.py develop

test: docs-check lint validate-configs doctest
	pytest tests/

# Simulation-correctness static analyzer (see docs/static-analysis.md).
# Fails on any finding.
lint:
	PYTHONPATH=src python -m repro.cli lint src/repro tools examples

# Runnable examples embedded in the reference docstrings.
doctest:
	PYTHONPATH=src python -m pytest --doctest-modules -q \
		src/repro/simmpi/engine.py src/repro/core/framework.py \
		src/repro/obs/metrics.py src/repro/experiments/spec/loader.py

# The shipped YAML experiment specs must load clean
# (see docs/configuration.md).
validate-configs:
	PYTHONPATH=src python -m repro.cli validate-config configs

# Every intra-repo Markdown link in README.md and docs/ must resolve,
# and the rule table in docs/static-analysis.md must match the registry
# (regenerate with: python tools/check_rule_docs.py --write).
docs-check:
	python tools/check_docs_links.py
	PYTHONPATH=src python tools/check_rule_docs.py

# Simulator wall-clock suite; refreshes the committed baseline
# BENCH_simperf.json (see docs/performance.md).
bench:
	PYTHONPATH=src python tools/bench_sim.py --write

# CI guard: quick points only, fail when the fast-path wall-clock
# regresses >2x against the committed baseline.
bench-quick:
	PYTHONPATH=src python tools/bench_sim.py --quick --check

# Paper-scale exact-skeleton points (n = 34560 at the paper's rank
# counts on Marconi A3) under the same 2x regression guard; merges the
# points into BENCH_simperf.json without touching the others.
bench-paper:
	PYTHONPATH=src python tools/bench_sim.py --skeleton --check --write

# Serving-layer load test: spawns the campaign daemon on an ephemeral
# port and drives the §5 grid through it (cold fill, warm hit-path
# percentiles, single-flight dedup, /batch speedup).  Checks the 2x
# regression guard against the committed BENCH_serve.json, then merges
# this run's section into it (see docs/serving.md).
bench-serve:
	PYTHONPATH=src python tools/loadtest.py --check --write

# Per-point speedup deltas of the working-tree BENCH_simperf.json
# against the committed (HEAD) one.  On branches whose HEAD predates
# the baseline file there is nothing to diff against — skip cleanly
# instead of surfacing git's pathspec error.
bench-diff:
	@if git cat-file -e HEAD:BENCH_simperf.json 2>/dev/null; then \
		git show HEAD:BENCH_simperf.json > .bench_base.json; \
		python tools/bench_compare.py .bench_base.json BENCH_simperf.json; \
		rm -f .bench_base.json; \
	else \
		echo "no baseline at HEAD, skipping"; \
	fi

# Regenerate every table/figure series into benchmarks/results/
figures:
	pytest benchmarks/ --benchmark-only
	@ls benchmarks/results/

clean:
	rm -rf build src/repro.egg-info .pytest_benchmark .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
