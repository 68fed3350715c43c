#!/usr/bin/env bash
# Recount first-party Rust lines per crate the way CODE_SIZE.md defines
# them, print one `| crate | non-test | test |` row per crate plus the
# total, and exit 1 when the "after" columns of CODE_SIZE.md's crate table
# disagree with the tree. Run from the repository root:
#
#   tools/check_code_size.sh
set -euo pipefail

recount() {
  local c name tst total_s=0 total_t=0
  for c in . crates/* dsn-benchmark; do
    set -- $(find "$c/src" -name '*.rs' | sort | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} {if(t) u++; else s++} END{print s+0, u+0}')
    tst=$(( $2 + $(find "$c/tests" -name '*.rs' 2>/dev/null | xargs -r cat | wc -l) ))
    name=${c#crates/}
    [ "$name" = . ] && name="dsn (root package)"
    echo "$name|$1|$tst"
    total_s=$(( total_s + $1 ))
    total_t=$(( total_t + tst ))
  done
  echo "total|$total_s|$total_t"
}

# The crate table's rows as `name|non-test after|test after`.
committed() {
  awk -F'|' '
    /^\| crate \|/ { on = 1; next }
    on && /^\|---/ { next }
    on && /^\|/ {
      for (i = 2; i <= 7; i++) { gsub(/\*|^ +| +$/, "", $i) }
      print $2 "|" $4 "|" $7
      next
    }
    on { exit }
  ' CODE_SIZE.md
}

actual=$(recount)
echo "$actual" | awk -F'|' '{print "| " $1 " | " $2 " | " $3 " |"}'
if ! diff <(committed | sort) <(echo "$actual" | sort) >&2; then
  echo "CODE_SIZE.md's crate table disagrees with the tree (< table, > tree);" \
    "refresh its \"after\" columns" >&2
  exit 1
fi
