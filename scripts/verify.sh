#!/bin/sh
# Full verification gate: build, vet, tests, race detector.
# Run from the repository root (or via `make verify`).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt check"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:"
    echo "$fmt"
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test -timeout 120s ./...

echo "==> perfbench module: vet + tests (root ./... skips the nested module)"
(cd perfbench && go vet ./... && go test -timeout 120s ./...)

echo "==> go test -count=2 ./internal/collector"
go test -timeout 120s -count=2 ./internal/collector

echo "==> go test -race ./..."
go test -race -timeout 120s ./...

echo "==> go test -race -count=2 ./internal/telemetry (concurrent writers vs snapshot readers)"
go test -race -timeout 120s -count=2 ./internal/telemetry

echo "==> chaos suite under -race (seeded; replay failures with -chaos.seed)"
go test -race -timeout 300s -count=1 -run TestChaosLifecycle ./remos -chaos.seed=1 -chaos.events=60

echo "==> replication chaos under -race (feed blackhole, fence, resync)"
go test -race -timeout 300s -count=1 -run 'TestChaosReplicaPartition|TestReplicaFailoverEndToEnd' ./remos -chaos.seed=1

echo "==> ha stage: lease/promotion determinism + leader-failover chaos under -race"
go test -race -timeout 120s -count=1 ./internal/ha
go test -race -timeout 300s -count=1 -run TestChaosLeaderFailover ./remos -chaos.seed=1

echo "==> federation stage: generators + 3-region federation (summaries, fencing, dark region, watch peers) under -race"
go test -race -timeout 300s -count=1 ./internal/topogen ./internal/federation
go test -race -timeout 300s -count=1 -run 'TestFederationThousandNodeAcceptance|TestScaleStudy' ./internal/experiments

echo "==> matrix stage: wire op + admission + fencing under -race, kernel equivalence"
go test -race -timeout 300s -count=1 -run 'TestMatrix' ./remos ./internal/core

echo "==> loadgen smoke: 2 replicas, mixed workload, latency + error gates"
go run ./cmd/remos-loadgen -selftest 2 -workers 8 -conns 4 -duration 3s \
    -matrix-frac 0.5 -matrix-size 8 -max-p999 250

echo "==> fuzz smoke (10s per target)"
go test -fuzz=FuzzDecode -fuzztime=10s -run '^$' ./internal/snmp
go test -fuzz='^FuzzReadFrame$' -fuzztime=10s -run '^$' ./internal/collector
go test -fuzz=FuzzReadMuxFrame -fuzztime=10s -run '^$' ./internal/collector
go test -fuzz=FuzzDecodeMatrixRequest -fuzztime=10s -run '^$' ./internal/collector
go test -fuzz='^FuzzRestoreCheckpoint$' -fuzztime=10s -run '^$' ./internal/collector
go test -fuzz=FuzzDecodeDelta -fuzztime=10s -run '^$' ./internal/replica

echo "verify: OK"
