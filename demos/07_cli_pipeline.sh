#!/bin/sh
# End-to-end pipeline through the command-line interface: train an agent,
# sparsify with it and with a baseline, score both, and sweep |H|.
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
