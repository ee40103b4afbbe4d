#!/usr/bin/env bash
# CI entrypoint: the exact checks a PR must pass, in fail-fast order.
#
#   scripts/ci.sh                 # full run: lint --deep, shims, tier-1 pytest,
#                                 # chaos smoke, perfbench self-tests
#   CI_JOBS=8 scripts/ci.sh       # parallel lint fan-out
#   CI_SKIP_TESTS=1 scripts/ci.sh # lint + shims only (used by the ci.sh test
#                                 # itself, which already runs under pytest)
#
# Documented in README.md; tests/test_flowcheck.py asserts this script
# stays executable and green.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "ci: reprolint (--deep, whole-program flow rules)"
python -m repro.analysis lint --deep --jobs "${CI_JOBS:-4}"

echo "ci: doc + instrumentation shims"
python scripts/check_docs.py
python scripts/check_instrumentation.py

if [ -z "${CI_SKIP_TESTS:-}" ]; then
    echo "ci: tier-1 pytest"
    python -m pytest -x -q

    echo "ci: chaos smoke (one sharded cell under kill/stall/message faults)"
    python -m repro.analysis chaos --quick --events 300 --no-journal --strict

    echo "ci: perfbench self-tests (every workload, untraced and traced)"
    python3 -m pytest perfbench -q
fi

echo "ci: OK"
