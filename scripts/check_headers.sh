#!/usr/bin/env bash
# Verify that every public header under src/ is self-contained: each must
# compile on its own as the first include of a translation unit. Headers
# are compiled in parallel, one compiler per core; the report is printed
# in sorted header order.
set -u
cd "$(dirname "$0")/.."
export CXX="${CXX:-c++}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export tmp

# Checks one header; on failure leaves its report in $tmp/<id>.fail.
check_one() {
  h="$1"
  id="$(printf '%s' "$h" | tr '/.' '__')"
  printf '#include "%s"\nint main() { return 0; }\n' "${h#src/}" > "$tmp/$id.cpp"
  if ! "$CXX" -std=c++20 -Isrc -fsyntax-only "$tmp/$id.cpp" 2> "$tmp/$id.err"; then
    {
      echo "NOT SELF-CONTAINED: $h"
      sed -n 1,5p "$tmp/$id.err"
    } > "$tmp/$id.fail"
  fi
}
export -f check_one

find src -name '*.hpp' | sort > "$tmp/headers"
xargs -P "$(nproc)" -I{} bash -c 'check_one "$1"' _ {} < "$tmp/headers"

fail=0
while read -r h; do
  id="$(printf '%s' "$h" | tr '/.' '__')"
  if [ -f "$tmp/$id.fail" ]; then
    cat "$tmp/$id.fail"
    fail=1
  fi
done < "$tmp/headers"

if [ "$fail" -eq 0 ]; then
  echo "all headers self-contained"
fi
exit "$fail"
