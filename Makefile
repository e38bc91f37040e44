# Convenience targets; plain pytest/python work equally well.

.PHONY: install test bench bench-service bench-cluster bench-telemetry bench-replay bench-tuner bench-native bench-conflict-free bench-report examples experiments serve serve-cluster cluster-smoke telemetry-smoke tune-demo docs-check clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

bench-service:
	PYTHONPATH=src python -m repro.service bench --out benchmarks/out/service.txt

bench-cluster:
	PYTHONPATH=src pytest benchmarks/bench_cluster.py -q

bench-telemetry:
	PYTHONPATH=src pytest benchmarks/bench_telemetry.py -q

bench-replay:
	PYTHONPATH=src pytest benchmarks/bench_trace_replay.py -q

bench-tuner:
	PYTHONPATH=src pytest benchmarks/bench_tuner.py -q

bench-native:
	PYTHONPATH=src pytest benchmarks/bench_native.py -q

bench-conflict-free:
	PYTHONPATH=src pytest benchmarks/bench_conflict_free.py -q

bench-report:
	python tools/bench_report.py

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null || exit 1; done

experiments:
	PYTHONPATH=src python -m repro.experiments all --jobs auto -o benchmarks/out --json

serve:
	PYTHONPATH=src python -m repro.service serve

serve-cluster:
	PYTHONPATH=src python -m repro.cluster serve

cluster-smoke:
	PYTHONPATH=src python tools/cluster_smoke.py

telemetry-smoke:
	PYTHONPATH=src python tools/telemetry_smoke.py

tune-demo:
	PYTHONPATH=src python -m repro.tuner transpose
	PYTHONPATH=src python -m repro.tuner sum
	PYTHONPATH=src python -m repro.tuner sort
	PYTHONPATH=src python -m repro.tuner permutation
	PYTHONPATH=src python -m repro.tuner gather

docs-check:
	PYTHONPATH=src python tools/check_doc_snippets.py docs/TUTORIAL.md docs/PERFORMANCE.md docs/SERVICE.md docs/INTERNALS.md docs/TUNER.md docs/STORAGE.md docs/CLUSTER.md docs/TELEMETRY.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_benchmarks .benchmarks benchmarks/.benchmarks benchmarks/.store
	find . -name __pycache__ -type d -exec rm -rf {} +
