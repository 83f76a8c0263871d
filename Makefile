# Convenience targets for the TENET reproduction.

.PHONY: install test bench bench-compare examples report serve \
    snapshot serve-warm serve-cluster load-smoke session-smoke clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Quick perf record of the current tree (schema-versioned JSON; see
# docs/benchmarking.md).  Full profile: python -m repro.cli bench
bench:
	PYTHONPATH=src python -m repro.cli bench --quick --output BENCH_local.json

# Quick run + regression gate against the committed baseline.
bench-compare: bench
	PYTHONPATH=src python -m repro.cli bench compare \
	    benchmarks/results/BENCH_baseline.json BENCH_local.json

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f; echo; done

report:
	python -m repro.cli report reproduction_report.md --scale 1.0

# Launch the JSON-over-HTTP linking service against the seed synthetic
# world (endpoints: /link /batch /metrics /healthz).
serve:
	PYTHONPATH=src python -m repro.cli serve --host 127.0.0.1 --port 8080

# Build (and verify) the default full-scale snapshot into ./snapshots —
# the one-time cold build that `serve-warm` and `bench --snapshot`
# reuse.  See docs/snapshots.md.
snapshot:
	PYTHONPATH=src python -m repro.cli snapshot build snapshots
	PYTHONPATH=src python -m repro.cli snapshot verify snapshots

# Same service, warm-started from the ./snapshots store (built on first
# use if absent); the snapshot identity is surfaced on /metrics.
serve-warm:
	PYTHONPATH=src python -m repro.cli serve --host 127.0.0.1 --port 8080 \
	    --snapshot snapshots

# Multi-process sharded serving: 2 linker worker processes behind the
# front end, all warm-started from one shared ./snapshots artifact
# (mmap-shared embeddings).  See docs/serving.md, "Cluster mode".
serve-cluster:
	PYTHONPATH=src python -m repro.cli serve --host 127.0.0.1 --port 8080 \
	    --cluster --workers 2 --snapshot snapshots

# Local mirror of the CI load-smoke job: boot the server with overload
# guards on, drive the open-loop load generator past worker capacity,
# and assert the overload SLOs (only 200/429, Retry-After on every 429,
# bounded p99).  See docs/benchmarking.md.
load-smoke:
	@PYTHONPATH=src sh -ec ' \
	python -m repro.cli serve --port 8765 --workers 2 \
	    --max-queue 16 --batch-max-queue 64 --degrade-queue 8 \
	    --rate-limit 200 --rate-limit-burst 50 >/dev/null 2>&1 & \
	pid=$$!; trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 60); do \
	    python -c "import urllib.request as u; u.urlopen(\"http://127.0.0.1:8765/healthz\", timeout=1)" \
	        2>/dev/null && break; sleep 1; \
	done; \
	python -m repro.cli bench load --url http://127.0.0.1:8765 \
	    --mode open --qps 40 --duration 5 --concurrency 8 --clients 4 \
	    --max-p99 10 --output load-local.json'

# Local mirror of the CI session-smoke job: boot the server with
# sessions on, run the scripted stream + conversation smoke (byte
# parity over the wire, lifecycle round-trips, status codes), then gate
# the quick bench's session pass on byte parity with one-shot linking.
# See docs/sessions.md.
session-smoke:
	@PYTHONPATH=src sh -ec ' \
	python -m repro.cli serve --port 8766 --workers 2 --sessions \
	    >/dev/null 2>&1 & \
	pid=$$!; trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 60); do \
	    python -c "import urllib.request as u; u.urlopen(\"http://127.0.0.1:8766/healthz\", timeout=1)" \
	        2>/dev/null && break; sleep 1; \
	done; \
	python -m repro.bench.session_smoke --url http://127.0.0.1:8766; \
	python -m repro.cli bench --quick --session \
	    --output session-local.json'

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results/*.txt \
	    src/repro.egg-info test_output.txt bench_output.txt \
	    BENCH_local.json load-local.json session-local.json
