from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signsynth
from signsynth.seeds import derive_seed, derive_seeds

from . import oracles
from .test_cli import build_lexicon_dir, data_path


class TestDeriveSeeds:
    @given(
        st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=8)),
        st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_derive_seed(self, prefix, ids):
        got = derive_seeds(prefix, ids)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(prefix, i) for i in ids]
        assert got.tolist() == [oracles.derive_seed_reference(prefix, i) for i in ids]


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
    src = str(Path(signsynth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == "[0, 0, 0] False"
    assert any(Path(out).glob("*.psp"))
