#!/usr/bin/env bash
# Build and run every benchmark workload: perf/run.sh [--seed S] [--trace].
# Same flags as perf/run.py, which does the work.
exec python3 "$(dirname "$0")/run.py" "$@"
