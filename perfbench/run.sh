#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays under
# .bench_build/ in the checkout, and the build never touches the network.
# The build is pure Go (no cgo), does not stamp version-control state, and
# ignores any user-level Go configuration, so it needs nothing from the
# environment but a Go toolchain.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi
unset GOROOT GOBIN GOOS GOARCH GOAMD64 GOEXPERIMENT GODEBUG GOGC GOMEMLIMIT
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOSUMDB=off \
	GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .); then
	echo "perfbench: building the benchmark failed; run.sh must be run from the repository root" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
