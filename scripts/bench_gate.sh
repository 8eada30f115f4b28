#!/usr/bin/env sh
# Bench regression gate for the sparse MNA time loop.
#
# Parses the flat JSON metric sink written by bench_mna_scaling (see
# common/json_sink.hpp; produced when CNTI_BENCH_JSON is set) and fails
# when the 1000-step transient on the 16 x 128 paper bus runs more sparse
# LU factorizations than the ceiling.
#
# The bus is linear, so its matrices are the four DC g_min stages plus one
# trapezoidal companion matrix (assembled once in recording order and then
# in stamp order, so up to two bit patterns): 6 distinct matrices. The
# sparse backend factors each distinct matrix once, so the count is
# deterministic and the gate does not depend on machine noise. An engine
# that refactors on every solve runs about 2,000 here.
#
# Usage: bench_gate.sh BENCH_bench_mna_scaling.json
set -eu

json="${1:?usage: bench_gate.sh BENCH_bench_mna_scaling.json}"
ceiling=6

[ -f "$json" ] || { echo "bench JSON not found: $json"; exit 1; }

count="$(sed -n \
  's/.*"bus_factorizations_16x128": *\([0-9.eE+-]*\).*/\1/p' \
  "$json" | head -1)"
[ -n "$count" ] || {
  echo "bus_factorizations_16x128 missing from $json"
  exit 1
}

awk -v c="$count" -v m="$ceiling" 'BEGIN { exit !(c >= 1 && c <= m) }' || {
  echo "16x128 bus transient ran ${count} LU factorizations (allowed 1..${ceiling})"
  exit 1
}
echo "16x128 bus transient ran ${count} LU factorizations <= ${ceiling} OK"
