#!/bin/sh
# Tier-1 gate, runnable without make: vet, build, full test suite, and
# the race detector over the concurrent data-plane packages.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (the packages in scripts/race-packages)"
# shellcheck disable=SC2046 # one word per package
go test -race $(cat scripts/race-packages)

echo "OK"
