#!/usr/bin/env sh
# Bench regression gates on the flat JSON metric sinks the benches write
# when CNTI_BENCH_JSON is set (see common/json_sink.hpp). The file name
# selects the gate set; every gated value is deterministic, so machine
# noise cannot flake them.
#
# BENCH_bench_mna_scaling.json — the sparse MNA time loop. Fails when the
# 1000-step transient on the 16 x 128 paper bus runs more MNA matrix
# stamps, sparse LU factorizations or solves than the ceilings. The bus is
# linear, so DC solves its g_min = 0 system directly on the transient's
# backend: the distinct matrices are the DC matrix and the trapezoidal
# companion matrix, 2 matrix stamps and 2 factorizations. Each of the
# 1,000 steps builds only its right-hand side and takes one solve, and DC
# one more, 1,001 solves. An engine that re-stamps the matrix on every step
# runs 1,001 stamps here; one that refactors on every solve about 2,000
# factorizations; one that iterates Newton twice per linear step about
# 2,000 solves.
#
# BENCH_bench_statistical_si.json — the parametrized ROM behind the
# statistical sign-off. Its order, on the study's 4 x 8 bus and on the
# 16 x 128 paper bus, must stay at or under 96 states (the old merged
# corner basis ran 160 on the 16 x 128 bus), and its worst relative noise
# and delay error against full sparse MNA at 20 interior points must stay
# within the ROM error budget, 1e-4.
#
# Usage: bench_gate.sh BENCH_<bench>.json
set -eu

json="${1:?usage: bench_gate.sh BENCH_<bench>.json}"

[ -f "$json" ] || { echo "bench JSON not found: $json"; exit 1; }

# value METRIC: the metric's number, or a failure when it is missing.
value() {
  v="$(sed -n "s/.*\"$1\": *\([0-9.eE+-]*\).*/\1/p" "$json" | head -1)"
  [ -n "$v" ] || {
    echo "$1 missing from $json" >&2
    exit 1
  }
  echo "$v"
}

# gate METRIC CEILING WHAT: the metric must be in 1..CEILING.
gate() {
  v="$(value "$1")"
  awk -v c="$v" -v m="$2" 'BEGIN { exit !(c >= 1 && c <= m) }' || {
    echo "16x128 bus transient ran ${v} $3 (allowed 1..$2)"
    exit 1
  }
  echo "16x128 bus transient ran ${v} $3 <= $2 OK"
}

# gate_max METRIC CEILING WHAT: the metric must be in 0..CEILING (an error
# or an order may legitimately be small; only its ceiling is gated).
gate_max() {
  v="$(value "$1")"
  awk -v c="$v" -v m="$2" 'BEGIN { exit !(c >= 0 && c <= m) }' || {
    echo "$3 is ${v} (allowed 0..$2)"
    exit 1
  }
  echo "$3 is ${v} <= $2 OK"
}

case "$(basename "$json")" in
  BENCH_bench_mna_scaling.json)
    gate bus_matrix_stamps_16x128 2 "matrix stamps"
    gate bus_factorizations_16x128 2 "LU factorizations"
    gate bus_solves_16x128 1001 "LU solves"
    ;;
  BENCH_bench_statistical_si.json)
    for bus in "" _16x128; do
      gate_max "prom_order$bus" 96 "parametrized ROM order${bus}"
      gate_max "prom_max_noise_rel_err$bus" 1e-4 \
        "parametrized ROM noise error${bus}"
      gate_max "prom_max_delay_rel_err$bus" 1e-4 \
        "parametrized ROM delay error${bus}"
    done
    ;;
  *)
    echo "no gates defined for $json"
    exit 1
    ;;
esac
