#!/usr/bin/env bash
# The one command: builds xontoload (which builds xontoserve from this
# checkout), runs every workload end to end and then traced, prints every
# metric by name and unit, and writes bench/out/result.json.
#
#   bench/run.sh                 one untraced + one traced run per workload
#   bench/run.sh -n 5            five untraced runs per workload, plus their spread
#   bench/run.sh -seed 7         another corpus and other request streams
#   bench/run.sh -o base.json    keep the result for `xontoload compare base.json new.json`
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p bench/out/bin
go build -o bench/out/bin/xontoload ./bench/cmd/xontoload
exec bench/out/bin/xontoload all "$@"
