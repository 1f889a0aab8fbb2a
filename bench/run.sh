#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark binary:
#
#   bash bench/run.sh --workload lifecycle_wal --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare --parent a.json --change b.json
#
# The build cache, the binary and the benchmark's scratch files all live in
# .bench_build/ under the current directory, so nothing is read from or
# written to the user's home directory and nothing is fetched from the
# network. The commit checked out is stamped into the binary, so every
# result records what it measured.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

# The ceiling keeps git from finding a repository above the root.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || true)
if [ -z "$commit" ]; then
	commit=unknown
	echo "bench/run.sh: $root is not a git checkout; results record commit \"unknown\"" >&2
fi

go build -C "$root/bench" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/melody-bench" .
exec "$build/melody-bench" "$@"
