from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signsynth
from signsynth.io import write_manifest, write_raw_landmark_file
from signsynth.records import SentenceRecord
from signsynth.seeds import derive_seed, derive_seeds

from . import oracles
from .conftest import random_raw_frame
from .test_cli import build_lexicon_dir, data_path, workspace_tree


def run_python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """``python -c code *args`` in a fresh interpreter that imports this signsynth."""
    src = str(Path(signsynth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


class TestDeriveSeeds:
    @given(
        st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=8)),
        st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_derive_seed(self, prefix, ids):
        got = derive_seeds(prefix, ids)
        assert type(got) is list and all(type(key) is int and 0 <= key < 2**64 for key in got)
        assert got == [derive_seed(prefix, i) for i in ids]
        assert got == [oracles.derive_seed_reference(prefix, i) for i in ids]


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256 module",
)
def test_seeded_commands_do_not_load_openssl(tmp_path):
    # hashlib's OpenSSL binding maps libcrypto into the process; seeds and
    # stage names come from the interpreter's own modules instead.
    lex_dir = build_lexicon_dir(tmp_path)
    manifest, out = str(tmp_path / "m.jsonl"), str(tmp_path / "out")
    argvs = [
        ["--seed", "3", "gen", "--templates", data_path("toy_templates.tsv"),
         "--lexicon", data_path("toy_slot_lexicon.jsonl"), "--sample", "2", "--out", manifest],
        ["--seed", "3", "stitch", "--manifest", manifest,
         "--lexicon-dir", str(lex_dir), "--out-dir", out,
         "--out-manifest", str(tmp_path / "stitched.jsonl"), "--target-mean", "40", "--skip-oov"],
        ["--seed", "3", "sample", "--total-steps", "50", "--real-size", "5",
         "--synth-size", "7", "--out", str(tmp_path / "schedule.csv")],
    ]
    code = (
        "import json, sys; from signsynth.cli import cli\n"
        "codes = [cli(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, '_hashlib' in sys.modules)"
    )
    run = run_python(code, json.dumps(argvs))
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == "[0, 0, 0] False"
    assert any(Path(out).glob("*.psp"))


# Runs each argv of sys.argv[1] through cli(), after blocking numpy and orjson
# when sys.argv[2] is "blocked" (an import of a module whose sys.modules entry
# is None raises ImportError), and prints the exit codes and, before and after
# the commands, whether numpy and orjson are loaded.
_RUN_CLI = """
import json, sys
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = sys.modules["orjson"] = None
from signsynth.cli import cli
def loaded():
    return [sys.modules.get(name) is not None for name in ("numpy", "orjson")]
before = loaded()
codes = [cli(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, before, loaded()]))
"""

# Every command that handles no pose array, on the toy data, with paths
# relative to the workspace; then --help and a usage error.
_TEXT_COMMANDS = [
    ["--seed", "7", "gen", "--templates", data_path("toy_templates.tsv"),
     "--lexicon", data_path("toy_slot_lexicon.jsonl"), "--limit", "2",
     "--out", "sentences.jsonl", "--stats", "gen_stats.json"],
    ["filter", "--in", "corpus.txt", "--text", "--vocab", "vocab.txt", "--min-rate", "0.5",
     "--out", "matched.jsonl"],
    ["--seed", "7", "merge", "--in", "matched.jsonl", "--max-len", "8", "--group", "2",
     "--out", "merged.jsonl"],
    ["postprocess", "--in", "merged.jsonl", "--names", data_path("toy_names.txt"),
     "--min-freq", "2", "--count-extra", "sentences.jsonl", "--out", "final.jsonl"],
    ["--seed", "7", "sample", "--total-steps", "50", "--real-size", "10",
     "--synth-size", "20", "--out", "schedule.csv"],
    ["tokenize", "train", "--in", "sentences.jsonl", "--extra", "final.jsonl",
     "--vocab-size", "60", "--model", "bpe.json"],
    ["tokenize", "encode", "--in", "final.jsonl", "--model", "bpe.json", "--out", "encoded.jsonl"],
    ["eval", "--in", "pairs.jsonl", "--out", "eval.json"],
    ["stats", "--manifest", "final.jsonl", "--out", "stats.json", "--hist-csv", "hist"],
    ["--help"],
    ["tokenize"],
]


def text_workspace(root: Path) -> Path:
    root.mkdir()
    words = ["this", "boy", "can", "see", "that", "Mary", "zebra", "girl", "will"]
    (root / "corpus.txt").write_text("".join(
        " ".join(words[(i + j) % len(words)] for j in range(1 + i % 5)) + "\n"
        for i in range(30)
    ))
    (root / "vocab.txt").write_text("this\nboy\ncan\nsee\nthat\ngirl\nwill\n")
    (root / "pairs.jsonl").write_text("".join(
        json.dumps({"candidate": c, "reference": "this boy can see"}) + "\n"
        for c in ("this boy can see", "that boy can see", "the girl")
    ))
    return root


def test_text_commands_run_without_numpy_or_orjson(tmp_path):
    runs = {}
    for mode in ("blocked", "normal"):
        ws = text_workspace(tmp_path / mode)
        runs[mode] = run_python(_RUN_CLI, json.dumps(_TEXT_COMMANDS), mode, cwd=ws)
    blocked, normal = runs["blocked"], runs["normal"]
    codes = [0] * (len(_TEXT_COMMANDS) - 1) + [1]
    # Unblocked, the text commands still load neither module.
    assert json.loads(normal.stdout.splitlines()[-1]) == [codes, [False, False], [False, False]]
    assert json.loads(blocked.stdout.splitlines()[-1]) == [codes, [False, False], [False, False]]
    assert (blocked.stdout, blocked.stderr) == (normal.stdout, normal.stderr)
    assert workspace_tree(tmp_path / "blocked") == workspace_tree(tmp_path / "normal")
    assert (tmp_path / "normal" / "encoded.jsonl").stat().st_size > 0


@pytest.mark.parametrize("argv, after", [
    (["ingest", "--raw-dir", "raw", "--out-dir", "lexicon"], [True, True]),
    (["stitch", "--manifest", "m.jsonl", "--lexicon-dir", "lexicon", "--out-dir", "poses",
      "--out-manifest", "stitched.jsonl", "--target-mean", "20"], [True, False]),
], ids=["ingest", "stitch"])
def test_pose_commands_load_numpy(tmp_path, rng, argv, after):
    (tmp_path / "raw").mkdir()
    write_raw_landmark_file(tmp_path / "raw" / "boy.jsonl", [random_raw_frame(rng)] * 3)
    build_lexicon_dir(tmp_path, words=("boy", "can"))
    write_manifest(tmp_path / "m.jsonl", [SentenceRecord(id="s", text=("boy", "can"))])
    run = run_python(_RUN_CLI, json.dumps([argv]), "normal", cwd=tmp_path)
    assert run.stderr == ""
    # Only ingest decodes raw landmark lines, the one use of orjson.
    assert json.loads(run.stdout.splitlines()[-1]) == [[0], [False, False], after]
