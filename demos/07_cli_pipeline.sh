#!/bin/sh
# End-to-end pipeline through the command-line interface: train an agent,
# sparsify with it and with a baseline, score both, sweep |H|, and resume
# training on two copies of the run.
# Run from the repository root. Takes a couple of minutes.
set -e

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
echo "working in $OUT"

cat > "$OUT/config.yaml" <<EOF
schema_version: 1
dataset: data/karate.txt
seed: 0
out_dir: $OUT/run
objective:
  kind: pagerank
agent:
  emb_dim: 16
  hidden_dim: 32
  train_subgraph_len: 16
  batch_size: 16
  eps_decay_steps: 400
  t_max: 8
train:
  episodes: 100
evaluation:
  ratios: [0.5, 0.8]
  seeds: 4
  spsp_pairs: 256
  louvain_runs: 4
EOF

python3 -m prunerl.cli train --config "$OUT/config.yaml"

python3 -m prunerl.cli sparsify --dataset data/karate.txt --method agent \
    --checkpoint "$OUT/run/checkpoint.npz" --ratio 0.5 --out "$OUT/agent.txt"
python3 -m prunerl.cli sparsify --dataset data/karate.txt --method random_edge \
    --ratio 0.5 --out "$OUT/random.txt"

echo "agent:";  python3 -m prunerl.cli evaluate --dataset data/karate.txt \
    --sparsified "$OUT/agent.txt" --metric pagerank
echo "random:"; python3 -m prunerl.cli evaluate --dataset data/karate.txt \
    --sparsified "$OUT/random.txt" --metric pagerank

python3 -m prunerl.cli compare --config "$OUT/config.yaml" \
    --checkpoint "$OUT/run/checkpoint.npz" --out "$OUT/cmp"
cat "$OUT/cmp/compare_table.csv"

python3 -m prunerl.cli h-sweep --dataset data/karate.txt \
    --checkpoint "$OUT/run/checkpoint.npz" --ratio 0.5 \
    --subgraph-lens 8 16 32 64 --seeds 2

# resume two copies of the run for 5 more episodes each: the log keeps the
# first run's 100 rows under its one header and appends the new ones, and a
# resume depends on the checkpoint and the seed alone, so both copies end equal
cp -r "$OUT/run" "$OUT/resumed"
cp -r "$OUT/run" "$OUT/resumed_again"
sed 's/^  episodes: 100$/  episodes: 5/' "$OUT/config.yaml" > "$OUT/resume.yaml"
for RUN in resumed resumed_again; do
    python3 -m prunerl.cli train --config "$OUT/resume.yaml" --out "$OUT/$RUN" --resume
done
LOG="$OUT/resumed/training_log.csv"
test "$(grep -c '^episode,' "$LOG")" -eq 1
test "$(wc -l < "$LOG")" -eq 106
echo "resumed log: 1 header, 105 episode rows"
cmp "$LOG" "$OUT/resumed_again/training_log.csv"
cmp "$OUT/resumed/checkpoint.npz" "$OUT/resumed_again/checkpoint.npz"
echo "the second copy's resume wrote the same log and checkpoint"
