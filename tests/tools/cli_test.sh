#!/usr/bin/env bash
# End-to-end check of tsss_cli on one generated dataset indexed twice: as a
# single engine and as a 3-shard index. Every command that opens an index
# must work on both kinds, and the two must print the same answers.
#
#   usage: cli_test.sh <path/to/tsss_cli> <path/to/bench_schema_check>
set -euo pipefail

cli=$1
check=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$cli" generate --out "$work/market.csv" --companies 8 --values 200 >/dev/null
"$cli" build --data "$work/market.csv" --index "$work/single" \
  --window 32 --dim 4 --subtrail 1 >/dev/null
"$cli" build --data "$work/market.csv" --index "$work/sharded" \
  --window 32 --dim 4 --subtrail 1 --shards 3 >/dev/null

# The match table: every line after the summary line (which names the
# shard count on a sharded index).
table() {
  "$cli" "$@" | tail -n +2
}

for args in "query --series 0 --offset 5 --eps 0.5" \
            "query --pattern v --eps 2.0 --positive --limit 5" \
            "query --series HK3 --offset 40 --eps 1.0 --suppress 8" \
            "knn --series 3 --offset 20 --k 4" \
            "knn --pattern peak --k 12"; do
  read -r -a argv <<<"$args"
  single=$(table "${argv[@]}" --index "$work/single")
  sharded=$(table "${argv[@]}" --index "$work/sharded")
  if [[ "$single" != "$sharded" ]]; then
    diff <(echo "$single") <(echo "$sharded") >&2 || true
    fail "'$args': single and sharded match tables differ"
  fi
  if [[ $(wc -l <<<"$single") -lt 3 ]]; then
    fail "'$args': no matches printed"
  fi
done

for kind in single sharded; do
  idx="$work/$kind"

  knn=$("$cli" knn --index "$idx" --series 3 --offset 20 --k 4)
  if grep -q "(0 more)" <<<"$knn"; then
    fail "$kind: knn --k 4 printed a '(0 more)' trailer"
  fi

  "$cli" info --index "$idx" >"$work/info-$kind.txt" ||
    fail "$kind: info exited non-zero"
  grep -q "indexed windows  : 1352" "$work/info-$kind.txt" ||
    fail "$kind: info does not report the indexed windows"

  "$cli" stats --index "$idx" --format json >"$work/stats-$kind.json" ||
    fail "$kind: stats exited non-zero"
  grep -q '"tsss_service_latency":{"count":[1-9]' "$work/stats-$kind.json" ||
    fail "$kind: stats recorded no served queries"

  "$cli" explain --index "$idx" --series 0 --offset 5 --eps 0.5 \
    --format json --out "$work/explain-$kind.json" >/dev/null
  "$check" --schema explain "$work/explain-$kind.json"
  # The cost section must agree with the io rows it repeats: a changed
  # pages_hit is rejected.
  sed -E 's/"pages_hit":([0-9]+)/"pages_hit":\19/' "$work/explain-$kind.json" \
    >"$work/explain-$kind-bad.json"
  if cmp -s "$work/explain-$kind.json" "$work/explain-$kind-bad.json"; then
    fail "$kind: explain JSON has no cost.pages_hit to change"
  fi
  if "$check" --schema explain "$work/explain-$kind-bad.json" 2>/dev/null; then
    fail "$kind: schema check accepted a cost.pages_hit != io.index_page_hits"
  fi

  inspect_schema=inspect
  [[ $kind == sharded ]] && inspect_schema=inspect_sharded
  "$cli" inspect --index "$idx" --format json \
    --out "$work/inspect-$kind.json" >/dev/null
  "$check" --schema "$inspect_schema" "$work/inspect-$kind.json"

  "$cli" serve-bench --index "$idx" --queries 64 \
    --json-out "$work/serve-bench-$kind.json" >/dev/null
  "$check" "$work/serve-bench-$kind.json"
done

echo "cli_test: OK"
