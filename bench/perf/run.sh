#!/usr/bin/env bash
# Builds perf.exe from source and measures one workload:
#   bash bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the root of the repository.  The build stays inside the
# repository (_build, no shared dune cache); its output goes to stderr
# so the last line on stdout is the result.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe bench "$@"
