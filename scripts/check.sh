#!/usr/bin/env bash
# Full pre-merge gate: release build, tests, formatting, lints.
# Run from the workspace root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
# Every file a check writes goes under $tmpdir, so a passing run leaves
# the tree as it found it (the committed results/*.json are regenerated
# by scripts/bench_json.sh and the full-scale bench runs, not here).
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test --test stats_schema (stats JSON schema golden)"
cargo test -q --test stats_schema

echo "==> cargo test -p assoc-serve (serving layer: oracle + wire robustness)"
cargo test -q -p assoc-serve

echo "==> servload --smoke (one-shot TCP load generator)"
cargo run -q --release -p repro-bench --bin servload -- --smoke \
    --json="$tmpdir/servload_smoke.json"

echo "==> cargo test -p eclat-net (distributed runtime: oracle + robustness)"
cargo test -q -p eclat-net

echo "==> distbench --smoke (real loopback workers, checked against sequential)"
cargo run -q --release -p repro-bench --bin distbench -- --smoke \
    --json="$tmpdir/distbench_smoke.json"

echo "==> dmine --spawn-local 4 == mine (measured cluster vs sequential CLI)"
cargo run -q --release -p eclat-cli -- generate --out "$tmpdir/t10.ech" \
    --transactions 20000 --seed 7 > /dev/null
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 > "$tmpdir/mine.out"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 4 > "$tmpdir/dmine.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/dmine.out")

echo "==> mine --algorithm parallel == mine (every core on the greedy class shards)"
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --algorithm parallel > "$tmpdir/mine_parallel.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/mine_parallel.out")

echo "==> mine == mine --repr tidlist (default auto-density vs the paper's tid-list kernel)"
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --repr tidlist > "$tmpdir/mine_tidlist.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/mine_tidlist.out")

echo "==> mine == mine --algorithm apriori (an oracle sharing no code with the transform)"
# Apriori counts candidates on the horizontal layout and also prints the
# size-1 row; the size >= 2 rows and the top list must agree. T10: 2 621
# pairs over five 4 096-tid blocks. T20.I6 at 1.2 %: 58 pairs in 28
# classes, one of them dense enough for the bitmap arm.
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --algorithm apriori > "$tmpdir/mine_apriori.out"
diff <(tail -n +2 "$tmpdir/mine.out") \
    <(tail -n +2 "$tmpdir/mine_apriori.out" | grep -v '^  size  1:')
cargo run -q --release -p eclat-cli -- generate --out "$tmpdir/t20.ech" \
    --family t20i6 --transactions 20000 --seed 7 > /dev/null
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t20.ech" \
    --support 1.2 > "$tmpdir/t20_mine.out"
for algorithm in apriori parallel; do
    cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t20.ech" \
        --support 1.2 --algorithm "$algorithm" > "$tmpdir/t20_$algorithm.out"
    diff <(tail -n +2 "$tmpdir/t20_mine.out") \
        <(tail -n +2 "$tmpdir/t20_$algorithm.out" | grep -v '^  size  1:')
done
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t20.ech" \
    --support 1.2 --spawn-local 2 --threads 2 > "$tmpdir/t20_dmine.out"
diff <(tail -n +2 "$tmpdir/t20_mine.out") <(tail -n +2 "$tmpdir/t20_dmine.out")

echo "==> dmine --spawn-local 2 --threads 2 == mine (hybrid W x P workers)"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 > "$tmpdir/dmine_hybrid.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/dmine_hybrid.out")

echo "==> dmine --mem-budget 64k == mine (out-of-core workers, forced spill)"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 --mem-budget 64k \
    > "$tmpdir/dmine_spill.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/dmine_spill.out")

echo "==> dmine --repr bitmap / auto-density == mine (bitmap classes over the wire)"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 --repr bitmap \
    > "$tmpdir/dmine_bitmap.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/dmine_bitmap.out")
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 --repr auto-density \
    > "$tmpdir/dmine_autodensity.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/dmine_autodensity.out")

echo "==> dmine --trace: merged cluster timeline validates + converts to Chrome JSON"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 --trace "$tmpdir/run.jsonl" \
    > /dev/null
test ! -e "$tmpdir/run.jsonl.w0"   # partial worker files must be cleaned up
cargo run -q --release -p eclat-cli -- trace --input "$tmpdir/run.jsonl" \
    --chrome "$tmpdir/run.json" > "$tmpdir/trace.out"
grep -q "valid trace" "$tmpdir/trace.out"
grep -q "3 process(es)" "$tmpdir/trace.out"
grep -q '"traceEvents"' "$tmpdir/run.json"

echo "==> ablations --scale=tiny (incl. representation x density + tracing gates)"
cargo run -q --release -p repro-bench --bin ablations -- --scale=tiny \
    > "$tmpdir/ablations.out"
grep -q "tracing overhead" "$tmpdir/ablations.out"
grep -q "representation × density" "$tmpdir/ablations.out"
grep -q "dense-db bitmap win" "$tmpdir/ablations.out"

echo "==> stats_diff: measured dmine stats vs simulated cluster stats (same schema)"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --stats=json > "$tmpdir/dist_stats.json"
cargo run -q --release -p eclat-cli -- simulate --input "$tmpdir/t10.ech" \
    --support 0.25 --hosts 2 --procs 1 --stats=json > "$tmpdir/sim_stats.json"
# Exit 1 (differences reported) is the expected outcome; 2 would be a
# schema error.
./scripts/stats_diff "$tmpdir/dist_stats.json" "$tmpdir/sim_stats.json" \
    > /dev/null || test $? -eq 1

echo "==> simulate --algorithm hybrid --procs 1 == simulate (one driver, two partition sizes)"
# JSON, not the text report: the report rounds seconds to two decimals.
cargo run -q --release -p eclat-cli -- simulate --input "$tmpdir/t10.ech" \
    --support 0.25 --hosts 4 --procs 1 --stats=json > "$tmpdir/sim_flat.json"
cargo run -q --release -p eclat-cli -- simulate --input "$tmpdir/t10.ech" \
    --support 0.25 --hosts 4 --procs 1 --algorithm hybrid --stats=json \
    | sed 's/"variant":"hybrid"/"variant":"cluster"/' > "$tmpdir/sim_hybrid.json"
diff "$tmpdir/sim_flat.json" "$tmpdir/sim_hybrid.json"

echo "==> simulate == simulate --repr tidlist (the paper reproduction mines on tid-lists)"
cargo run -q --release -p eclat-cli -- simulate --input "$tmpdir/t10.ech" \
    --support 0.25 --hosts 4 --procs 1 --repr tidlist --stats=json \
    > "$tmpdir/sim_tidlist.json"
diff "$tmpdir/sim_flat.json" "$tmpdir/sim_tidlist.json"

echo "==> cargo test --test incremental_golden (incremental replay == full re-mine)"
cargo test -q --test incremental_golden

echo "==> stream --verify (batched incremental mine, checked per batch)"
cargo run -q --release -p eclat-cli -- stream --input "$tmpdir/t10.ech" \
    --support 1 --batch 5000 --verify --out "$tmpdir/live.snap" \
    > "$tmpdir/stream.out"
grep -q "\[verified\]" "$tmpdir/stream.out"
grep -q "streamed 20000 transactions in 4 batches" "$tmpdir/stream.out"

echo "==> stream -> serve --reload-secs (snapshot hot reload over loopback)"
cargo run -q --release -p eclat-cli -- serve --load "$tmpdir/live.snap" \
    --port 0 --port-file "$tmpdir/port" --serve-secs 6 --reload-secs 0.1 \
    > "$tmpdir/serve.out" &
serve_pid=$!
for _ in $(seq 50); do [ -s "$tmpdir/port" ] && break; sleep 0.1; done
test -s "$tmpdir/port"
# Re-streaming at a different support rewrites the snapshot in place
# (atomic rename); the poller must hot-swap it within a tick or two.
cargo run -q --release -p eclat-cli -- stream --input "$tmpdir/t10.ech" \
    --support 0.5 --batch 5000 --out "$tmpdir/live.snap" > /dev/null
sleep 1
cargo run -q --release -p eclat-cli -- query --addr "127.0.0.1:$(cat "$tmpdir/port")" \
    --server-stats > "$tmpdir/reload_stats.out"
# stream writes a snapshot per batch, so the poller may legitimately
# observe several generations — require at least one hot swap.
grep -Eq '"reloads":[1-9]' "$tmpdir/reload_stats.out"
wait "$serve_pid"
grep -Eq '[1-9][0-9]* reloads' "$tmpdir/serve.out"

echo "==> serve --input == serve --load of its mine --out snapshot (one mine-then-rules path)"
# Both boot paths mine and generate rules through the same full mine, so
# a fixed query list and the served counts must match byte for byte. The
# probes are the top pair (it heads mine's list: no superset outranks its
# own pairs) and the antecedent of the first rule `rules` prints.
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.5 --confidence 0.9 --out "$tmpdir/boot.snap" > "$tmpdir/boot_mine.out"
pair="$(sed -n '/^top by support/{n;p;q}' "$tmpdir/boot_mine.out" | tr -d '{}' \
    | awk '{print $1 "," $2}')"
cargo run -q --release -p eclat-cli -- rules --input "$tmpdir/t10.ech" \
    --support 0.5 --confidence 0.9 --top 1 > "$tmpdir/boot_rules.out"
ante="$(sed -n '2s/^ *{\([^}]*\)}.*/\1/p' "$tmpdir/boot_rules.out" | tr ' ' ',')"
cargo run -q --release -p eclat-cli -- serve --input "$tmpdir/t10.ech" \
    --support 0.5 --confidence 0.9 --port 0 --port-file "$tmpdir/port_input" \
    --serve-secs 10 > /dev/null &
input_pid=$!
cargo run -q --release -p eclat-cli -- serve --load "$tmpdir/boot.snap" \
    --port 0 --port-file "$tmpdir/port_load" --serve-secs 10 > /dev/null &
load_pid=$!
for boot in input load; do
    for _ in $(seq 50); do [ -s "$tmpdir/port_$boot" ] && break; sleep 0.1; done
    test -s "$tmpdir/port_$boot"
done
for boot in input load; do
    addr="127.0.0.1:$(cat "$tmpdir/port_$boot")"
    {
        cargo run -q --release -p eclat-cli -- query --addr "$addr" --topk 10
        cargo run -q --release -p eclat-cli -- query --addr "$addr" --topk 10 --size 2
        cargo run -q --release -p eclat-cli -- query --addr "$addr" \
            --subsets-of "$pair" --supersets-of "$pair" --limit 5
        cargo run -q --release -p eclat-cli -- query --addr "$addr" \
            --rules-for "$ante" --supersets-of "$ante" --limit 5
        cargo run -q --release -p eclat-cli -- query --addr "$addr" --server-stats \
            | grep -Eo '"(itemsets|rules|trie_nodes)":[0-9]+'
    } > "$tmpdir/boot_$boot.out"
done
wait "$input_pid"
wait "$load_pid"
grep -Eq '^[1-9][0-9]* rules for antecedent' "$tmpdir/boot_load.out"
grep -Eq '^([2-9]|[1-9][0-9]+) frequent supersets of' "$tmpdir/boot_load.out"
diff "$tmpdir/boot_input.out" "$tmpdir/boot_load.out"

echo "==> rules: a million-rule gate (count and head of the order on a tie-heavy set)"
# 11 259 itemsets at 0.5 % of 1 200 transactions give 1 169 806 rules
# with only 121 distinct (confidence, support) pairs, so the
# antecedent/consequent tie-breaks order almost all of them.
cargo run -q --release -p eclat-cli -- generate --out "$tmpdir/m1.ech" \
    --transactions 1200 --seed 3 > /dev/null
cargo run -q --release -p eclat-cli -- rules --input "$tmpdir/m1.ech" \
    --support 0.5 --confidence 0.3 --top 1 > "$tmpdir/m1_rules.out"
diff "$tmpdir/m1_rules.out" - <<'EOF'
1169806 rules at confidence >= 0.3 (from 11259 frequent itemsets)
  {144 577}                  => {940}              conf 1.000  sup     12  lift 36.36
EOF

echo "==> inflated headers: mine --input / serve --load exit 2 with a read error"
# 20-byte horizontal headers announcing 2^44 transactions or 2^32 - 1
# items, and a 24-byte v1 snapshot header announcing a 2^45-byte payload.
printf 'HLCE\x01\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x10\x00\x00' \
    > "$tmpdir/huge.ech"
printf 'HLCE\x01\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00' \
    > "$tmpdir/huge_items.ech"
printf 'RLCE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x20\x00\x00' \
    > "$tmpdir/huge.snap"
for db in huge huge_items; do
    status=0
    cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/$db.ech" \
        --support 0.5 2> "$tmpdir/${db}_mine.err" || status=$?
    test "$status" -eq 2
    grep -q "^error: read " "$tmpdir/${db}_mine.err"
done
status=0
cargo run -q --release -p eclat-cli -- serve --load "$tmpdir/huge.snap" \
    --port 0 --serve-secs 1 2> "$tmpdir/huge_serve.err" || status=$?
test "$status" -eq 2
grep -q "^error: read " "$tmpdir/huge_serve.err"

echo "==> hostile item id: eclat seq mines a lone u32::MAX item and verifies"
# A 36-byte .ecs: one sequence, one event, whose only item is u32::MAX.
# Per-item state is sized by the items that occur, never by their value.
printf 'SLCE\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\xff\xff\xff\xff' \
    > "$tmpdir/huge_item.ecs"
test "$(wc -c < "$tmpdir/huge_item.ecs")" -eq 36
cargo run -q --release -p eclat-cli -- seq --input "$tmpdir/huge_item.ecs" \
    --minsup 50 --verify > "$tmpdir/huge_item.out"
grep -q "\[verified\]" "$tmpdir/huge_item.out"

echo "==> streambench --smoke (incremental vs full re-mine, equality-asserted)"
cargo run -q --release -p repro-bench --bin streambench -- --smoke \
    --json="$tmpdir/streambench_smoke.json"

echo "==> cargo test -p eclat-seq (SPADE kernel: unit + golden + proptest oracle)"
cargo test -q -p eclat-seq

echo "==> eclat seq --verify (SPADE vs GSP-style reference on generated data)"
cargo run -q --release -p eclat-cli -- generate --out "$tmpdir/c10.ecs" \
    --sequences 500 --seed 11 > /dev/null
cargo run -q --release -p eclat-cli -- seq --input "$tmpdir/c10.ecs" \
    --minsup 6 --verify > "$tmpdir/seq.out"
grep -q "\[verified\]" "$tmpdir/seq.out"

echo "==> eclat seq: parallel policies byte-identical to serial"
cargo run -q --release -p eclat-cli -- seq --input "$tmpdir/c10.ecs" \
    --minsup 6 --policy rayon > "$tmpdir/seq_rayon.out"
cargo run -q --release -p eclat-cli -- seq --input "$tmpdir/c10.ecs" \
    --minsup 6 --policy threads:3 > "$tmpdir/seq_threads.out"
diff <(tail -n +2 "$tmpdir/seq.out") <(tail -n +2 "$tmpdir/seq_rayon.out")
diff <(tail -n +2 "$tmpdir/seq_rayon.out") <(tail -n +2 "$tmpdir/seq_threads.out")
# Bare `threads` is every core, like `rayon`.
cargo run -q --release -p eclat-cli -- seq --input "$tmpdir/c10.ecs" \
    --minsup 6 --policy threads > "$tmpdir/seq_threads_all.out"
diff <(tail -n +2 "$tmpdir/seq.out") <(tail -n +2 "$tmpdir/seq_threads_all.out")

echo "==> seqbench --smoke (SPADE policies + maxlen ablation, equality-asserted)"
cargo run -q --release -p repro-bench --bin seqbench -- --smoke \
    --json="$tmpdir/seqbench_smoke.json"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings -D clippy::undocumented_unsafe_blocks"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> all checks passed"
