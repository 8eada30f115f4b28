#!/usr/bin/env sh
# Bench regression gate for the sparse MNA time loop.
#
# Parses the flat JSON metric sink written by bench_mna_scaling (see
# common/json_sink.hpp; produced when CNTI_BENCH_JSON is set) and fails
# when the 1000-step transient on the 16 x 128 paper bus runs more MNA
# matrix stamps, sparse LU factorizations or solves than the ceilings.
#
# The bus is linear, so DC solves its g_min = 0 system directly on the
# transient's backend: the distinct matrices are the DC matrix and the
# trapezoidal companion matrix, 2 matrix stamps and 2 factorizations. Each
# of the 1,000 steps builds only its right-hand side and takes one solve,
# and DC one more, 1,001 solves. The counts are deterministic, so the gate
# does not depend on machine noise. An engine that re-stamps the matrix on
# every step runs 1,001 stamps here; one that refactors on every solve
# about 2,000 factorizations; one that iterates Newton twice per linear
# step about 2,000 solves.
#
# Usage: bench_gate.sh BENCH_bench_mna_scaling.json
set -eu

json="${1:?usage: bench_gate.sh BENCH_bench_mna_scaling.json}"

[ -f "$json" ] || { echo "bench JSON not found: $json"; exit 1; }

# gate METRIC CEILING WHAT: the metric must be in 1..CEILING.
gate() {
  value="$(sed -n \
    "s/.*\"$1\": *\([0-9.eE+-]*\).*/\1/p" \
    "$json" | head -1)"
  [ -n "$value" ] || {
    echo "$1 missing from $json"
    exit 1
  }
  awk -v c="$value" -v m="$2" 'BEGIN { exit !(c >= 1 && c <= m) }' || {
    echo "16x128 bus transient ran ${value} $3 (allowed 1..$2)"
    exit 1
  }
  echo "16x128 bus transient ran ${value} $3 <= $2 OK"
}

gate bus_matrix_stamps_16x128 2 "matrix stamps"
gate bus_factorizations_16x128 2 "LU factorizations"
gate bus_solves_16x128 1001 "LU solves"
