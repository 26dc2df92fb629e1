#!/usr/bin/env bash
# Repo verification gate: build, gofmt, vet, steflint, tests, and the race
# detector on the parallel packages. CI (.github/workflows/ci.yml) runs
# these same steps; run this locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt: these files need formatting (run gofmt -w):"
  echo "$unformatted"
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> steflint (incl. idx-width and lifetime interprocedural certification)"
go run ./cmd/steflint ./...

echo "==> steflint -gates (compiler-diagnostic perf gates + asm shape assertions)"
go run ./cmd/steflint -gates

echo "==> go test ./..."
go test ./...

echo "==> go test -race (parallel packages + shared-plan concurrency + int32-boundary dims + dense update)"
go test -race . ./internal/par/ ./internal/sched/ ./internal/kernels/ ./internal/cpd/ ./internal/core/ ./internal/dense/

echo "==> perfbench self-tests (time-to-fit benchmark module: metric names/units, failure counting, span self time)"
(cd perfbench && go test ./...)

echo "==> arena storage seam (mmap round trip, corrupt-header fuzz seeds, heap-vs-arena solve parity, csf-backing self-check)"
go test -race -run 'Arena|CSFBacking' . ./internal/csf/ ./internal/lint/

echo "==> go test -race -tags shadowtrace (dynamic write-disjointness oracle)"
go test -race -tags shadowtrace ./internal/kernels/ ./internal/cpd/ ./internal/core/ .

echo "==> go test -race -tags lifetrace (dynamic lifetime oracle: PROT_NONE quarantine, workspace poisoning)"
go test -race -tags lifetrace ./...

echo "All checks passed."
