# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make check` is the full local gate.
#
# ruff and mypy are optional locally — `repro check` skips a tool that
# is not installed and says so (CI installs both, so nothing slips
# through). simlint and the tests need only the standard library +
# numpy/pytest.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint typecheck test test-sanitize profile help

help:
	@echo "make check          - aggregate gate: simlint + ruff + mypy"
	@echo "make lint           - simlint only (dependency-free)"
	@echo "make typecheck      - strict mypy profile from pyproject.toml"
	@echo "make test           - tier-1 test suite"
	@echo "make test-sanitize  - tier-1 suite with REPRO_SIM_SANITIZE=1"
	@echo "make profile        - self-profile a small figure (hotspots + flamegraph)"

check:
	$(PYTHON) -m repro check src tests

lint:
	$(PYTHON) -m repro lint src tests

typecheck:
	mypy --config-file pyproject.toml

test:
	$(PYTHON) -m pytest -x -q

test-sanitize:
	REPRO_SIM_SANITIZE=1 $(PYTHON) -m pytest -x -q

profile:
	$(PYTHON) -m repro profile fig14b --scale 0.1 \
		--profile-out profile.speedscope.json --collapsed profile.folded
