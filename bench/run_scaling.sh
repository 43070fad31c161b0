#!/bin/sh
# Thread-scaling tripwire: replay a cluster cap trace serially and at
# hardware_concurrency threads, and fail if the parallel replay is
# slower than the serial one (speedup < 1.0).  On a single-core host
# the check is vacuous.
#
# Usage: bench/run_scaling.sh [build-dir]   (default: build)
set -eu

build_dir="${1:-build}"
bench="$build_dir/bench/bench_scaling"

if [ ! -x "$bench" ]; then
    echo "run_scaling: $bench not built (cmake --build $build_dir)" >&2
    exit 2
fi

# PSM_THREADS would pin every width to the same pool size and make the
# serial-vs-parallel comparison meaningless.
unset PSM_THREADS || true

exec "$bench" --check --quick
