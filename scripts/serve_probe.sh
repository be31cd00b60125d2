#!/usr/bin/env bash
# Print a fixed battery of query answers from `eclat serve --load SNAPSHOT`,
# so that two builds of the server can be compared answer for answer:
#
#   scripts/serve_probe.sh old/eclat snap.ecr > old.txt
#   scripts/serve_probe.sh new/eclat snap.ecr > new.txt
#   diff old.txt new.txt
#
# The battery: top-k at sizes 0-3; then, for the empty itemset, two absent
# itemsets and every itemset those top-k lists name: its support, its
# subsets and supersets at limits 1, 5 and 20, and its top 20 rules.
set -euo pipefail
bin="$1"
snap="$2"
tmpdir="$(mktemp -d)"
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$tmpdir"' EXIT

"$bin" serve --load "$snap" --port 0 --port-file "$tmpdir/port" > /dev/null &
pid=$!
for _ in $(seq 100); do [ -s "$tmpdir/port" ] && break; sleep 0.1; done
addr="127.0.0.1:$(cat "$tmpdir/port")"

for size in 0 1 2 3; do
    "$bin" query --addr "$addr" --topk 20 --size "$size"
done > "$tmpdir/topk"
cat "$tmpdir/topk"
probes="$(grep -o '{[0-9 ]*}' "$tmpdir/topk" | tr -d '{}' | tr ' ' ',' | sort -u)"
for itemset in "" 4294967295 0,4294967295 $probes; do
    for limit in 1 5 20; do
        "$bin" query --addr "$addr" --support-of "$itemset" --subsets-of "$itemset" \
            --supersets-of "$itemset" --rules-for "$itemset" --limit "$limit" --top 20
    done
done
