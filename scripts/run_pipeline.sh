#!/usr/bin/env bash
# End-to-end demo over the toy workspace: template generation, corpus
# filtering/merging/postprocessing, pose stitching, curriculum schedule,
# tokenizer training, and self-evaluation.
#
# Usage: scripts/run_pipeline.sh [workspace_dir]
set -euo pipefail

WS="${1:-toy_workspace}"
SEED=7
PKG_DATA="$(python3 -c 'import signsynth, pathlib; print(pathlib.Path(signsynth.__file__).parent / "data")')"

if [ ! -d "$WS/lexicon" ]; then
    python3 scripts/make_toy_dataset.py --out "$WS" --seed "$SEED"
fi

echo "== gen: templates -> sentences"
signsynth --seed "$SEED" gen \
    --templates "$PKG_DATA/toy_templates.tsv" \
    --lexicon "$PKG_DATA/toy_slot_lexicon.jsonl" \
    --limit 40 \
    --out "$WS/template_sentences.jsonl" \
    --stats "$WS/template_stats.json"

echo "== filter: corpus -> vocabulary-matched sentences"
signsynth filter --in "$WS/corpus.txt" --text --vocab "$WS/vocab.txt" \
    --min-rate 0.9 --out "$WS/corpus_matched.jsonl"

echo "== merge: length matching"
signsynth --seed "$SEED" merge --in "$WS/corpus_matched.jsonl" \
    --max-len 8 --fraction 0.9 --group 3 --out "$WS/corpus_merged.jsonl"

echo "== postprocess: names and rare words"
signsynth postprocess --in "$WS/corpus_merged.jsonl" --names "$WS/names.txt" \
    --min-freq 3 --count-extra "$WS/template_sentences.jsonl" \
    --out "$WS/corpus_final.jsonl"

echo "== stitch: sentences + lexicon -> pose dataset"
signsynth --seed "$SEED" stitch --skip-oov \
    --manifest "$WS/template_sentences.jsonl" \
    --lexicon-dir "$WS/lexicon" \
    --out-dir "$WS/poses" \
    --out-manifest "$WS/stitched.jsonl" \
    --target-mean 40 --jitter 1,2,3

echo "== sample: curriculum schedule"
signsynth --seed "$SEED" sample --total-steps 2000 --real-size 500 \
    --synth-size 5000 --out "$WS/schedule.csv"

echo "== tokenize: BPE training and encoding"
signsynth tokenize train --in "$WS/stitched.jsonl" \
    --extra "$WS/corpus_final.jsonl" --vocab-size 200 --model "$WS/bpe.json"
signsynth tokenize encode --in "$WS/stitched.jsonl" --model "$WS/bpe.json" \
    --out "$WS/encoded.jsonl"

echo "== eval: self-evaluation sanity check (BLEU-4 = 100)"
python3 - "$WS" <<'PY'
import json, sys
from pathlib import Path
ws = Path(sys.argv[1])
rows = [json.loads(l) for l in (ws / "stitched.jsonl").read_text().splitlines()]
with open(ws / "pairs.jsonl", "w") as fh:
    for row in rows[:100]:
        text = " ".join(row["text"])
        fh.write(json.dumps({"id": row["id"], "candidate": text, "reference": text}) + "\n")
PY
signsynth eval --in "$WS/pairs.jsonl" --out "$WS/eval_report.json"

echo "== stats: dataset manifest statistics"
signsynth stats --manifest "$WS/stitched.jsonl" --out "$WS/dataset_stats.json" \
    --hist-csv "$WS/hist"

echo "pipeline complete; artifacts under $WS/"
