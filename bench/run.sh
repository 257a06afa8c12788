#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload megaclients --seed 7 --seconds 15 --trace 0
#   bash bench/run.sh -out result.json              # every workload
#   bash bench/run.sh compare a.json b.json
#
# The Go build cache, temporary files, Go's configuration and telemetry
# directory and the binary all stay under .bench_build/ in the current
# directory, so a run reads and writes nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

(cd bench && go build -o "$out/acmbench" .)
exec "$out/acmbench" "$@"
