#!/bin/sh
# surface.sh — print the two size counts every change reports against
# ROADMAP item 7, counted the same way each time:
#
#   1. non-test Go lines outside bench/ and testdata/ directories;
#   2. command-line flags declared by lockillersim and lockillerbench.
#
# Report only: it prints and exits 0. `make surface` and CI's test job run it.
set -eu
cd "$(dirname "$0")/.."

lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' ! -path './bench/*' \
	! -path '*/testdata/*' -exec cat {} + | wc -l)
echo "surface: $lines non-test Go lines (outside bench/ and testdata/)"

total=0
per=""
for cmd in lockillersim lockillerbench; do
	n=$(cat cmd/$cmd/*.go | grep -cE '\bflag\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)\(' || true)
	total=$((total + n))
	per="$per${per:+, }$cmd $n"
done
echo "surface: $total CLI flags ($per)"
