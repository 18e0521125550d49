#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-shared --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
