"""``parallel.map_chunks`` and the ``--jobs`` split of ingest and stitch."""

from __future__ import annotations

import errno
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signsynth
from signsynth import io, parallel
from signsynth.cli import cli
from signsynth.io import pose_set, read_pose_file, write_manifest, write_raw_landmark_file
from signsynth.pose import FRAME_DIM, PoseSequence
from signsynth.records import SentenceRecord

from . import test_golden
from .conftest import random_raw_frame
from .test_cli import build_lexicon_dir, workspace_tree


def unreaped_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # this process has no child left
        return False
    return True


@pytest.fixture(autouse=True)
def no_process_left():
    """Each test ends within 60 s, with every worker it forked reaped."""

    def expire(signum, frame):
        raise TimeoutError("test still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)  # a fork does not inherit it
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not unreaped_children()


@pytest.fixture
def cpus(monkeypatch):
    """``os.cpu_count()`` reads 8, so ``--jobs`` splits the work on any machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pid of every worker forked, recorded at ``os.fork``."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def square_with_pid(unit: int) -> tuple[int, int]:
    return os.getpid(), unit * unit


def fail_at(units: set[int]):
    def work(unit: int) -> int:
        if unit in units:
            raise ValueError(f"unit {unit} failed")
        return unit

    return work


class TestMapChunks:
    @pytest.mark.parametrize("n_units", [0, 1, 7])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_contiguous_chunks_give_the_serial_result(self, cpus, forks, jobs, n_units):
        results = parallel.map_chunks(square_with_pid, list(range(n_units)), jobs)
        assert [square for _, square in results] == [u * u for u in range(n_units)]
        pids = [pid for pid, _ in results]
        runs = [pid for i, pid in enumerate(pids) if i == 0 or pid != pids[i - 1]]
        assert len(runs) == len(set(runs)) == min(jobs, n_units)  # one chunk per process
        assert runs[:1] in ([], [os.getpid()])  # chunk 0 runs in the caller
        assert len(forks) == max(0, min(jobs, n_units) - 1)

    @pytest.mark.parametrize("cpu_count, n_forks", [(3, 2), (1, 0), (None, 0)])
    def test_workers_never_outnumber_the_cpus(self, monkeypatch, forks, cpu_count, n_forks):
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert parallel.map_chunks(fail_at(set()), list(range(6)), 100_000) == list(range(6))
        assert len(forks) == n_forks
        assert parallel.worker_count(100_000, 6) == n_forks + 1

    @pytest.mark.parametrize("failing, message", [
        ({3, 5, 7}, "unit 3 failed"),  # chunks 1, 2 and 3 fail: chunk 1's error
        ({1, 6}, "unit 1 failed"),  # the caller's own chunk fails first
        ({7}, "unit 7 failed"),
    ])
    def test_the_lowest_failing_chunk_error_is_raised(self, cpus, failing, message):
        serial = fail_at(failing)
        with pytest.raises(ValueError, match=message):
            [serial(u) for u in range(8)]
        with pytest.raises(ValueError, match=message):
            parallel.map_chunks(serial, list(range(8)), 4)
        assert not unreaped_children()

    def test_a_worker_that_dies_without_replying_is_an_error(self, cpus):
        def work(unit: int) -> int:
            if unit == 5:
                os._exit(3)
            return unit

        with pytest.raises(ChildProcessError, match="exited with code 3 before replying"):
            parallel.map_chunks(work, list(range(6)), 2)

    def test_a_worker_never_unwinds_the_callers_block(self, cpus, tmp_path):
        seq = PoseSequence(frames=np.zeros((2, FRAME_DIM)))

        def work(stem: str) -> str:
            if stem == "c":
                raise SystemExit(0)  # leaves the worker, and only the worker
            return write(stem, seq)

        with pytest.raises(ChildProcessError, match="code 1 before replying"):
            with pose_set(tmp_path / "out") as write:
                try:
                    parallel.map_chunks(work, ["a", "b", "c", "d"], 2)
                except ChildProcessError:
                    assert not unreaped_children()
                    # chunk 0's files are still staged: no worker removed the stage
                    staged = sorted(p.name for p in tmp_path.glob(".out.*.tmp/*.psp"))
                    assert staged == ["a.psp", "b.psp"]
                    raise
        assert list(tmp_path.iterdir()) == []


class TestPoseSetAcrossProcesses:
    def test_workers_files_are_published_with_the_callers(self, cpus, tmp_path):
        out = tmp_path / "out"
        seqs = {stem: PoseSequence(np.full((i + 1, FRAME_DIM), i), stem)
                for i, stem in enumerate("abcdefg")}
        with pose_set(out) as write:
            paths = parallel.map_chunks(lambda stem: write(stem, seqs[stem]), list(seqs), 3)
        assert paths == [str(out / f"{stem}.psp") for stem in seqs]
        assert sorted(p.name for p in out.iterdir()) == [f"{stem}.psp" for stem in seqs]
        for stem, seq in seqs.items():
            assert read_pose_file(out / f"{stem}.psp").frames.tobytes() == seq.frames.tobytes()

    def test_a_stem_written_in_two_processes_publishes_nothing(self, cpus, tmp_path):
        seq = PoseSequence(frames=np.zeros((1, FRAME_DIM)))
        with pytest.raises(FileExistsError) as caught:
            with pose_set(tmp_path / "out") as write:
                parallel.map_chunks(lambda stem: write(stem, seq), ["a", "b", "a"], 2)
        assert caught.value.errno == errno.EEXIST
        assert Path(caught.value.filename).name == "a.psp"
        assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_does_not_import_multiprocessing():
    src = str(Path(signsynth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, signsynth.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (0, "False\n")


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_ingest_digest_at_any_jobs(cpus, monkeypatch, tmp_path, jobs):
    monkeypatch.setattr(test_golden, "cli", lambda argv: cli(["--jobs", jobs, *argv]))
    test_golden.test_ingest_digest(tmp_path)


class TestStitchAtAnyJobs:
    def workspace(self, root: Path, records) -> Path:
        root.mkdir()
        build_lexicon_dir(root, words=("boy", "can", "see", "coat"))
        write_manifest(root / "sentences.jsonl", records)
        return root

    def stitch(self, root: Path, jobs: str, capfd) -> tuple[int, str, str]:
        """``stitch`` run in ``root`` with relative paths, so manifests compare."""
        cwd = os.getcwd()
        os.chdir(root)
        try:
            code = cli([
                "--seed", "5", "--jobs", jobs,
                "stitch", "--manifest", "sentences.jsonl", "--lexicon-dir", "lexicon",
                "--out-dir", "poses", "--out-manifest", "stitched.jsonl",
                "--target-mean", "20", "--word-order", "rwo", "--jitter", "1,2,3",
            ])
        finally:
            os.chdir(cwd)
        return (code, *capfd.readouterr())

    @pytest.mark.parametrize("n_records", [7, 1])
    def test_byte_identical_with_one_summary_line(self, cpus, tmp_path, capfd, n_records):
        records = [SentenceRecord(id=f"s{i}", text=("boy", "can", "see", "coat")[: 2 + i % 3])
                   for i in range(n_records)]
        trees = {}
        for jobs in ("1", "2", "3", "8"):
            root = self.workspace(tmp_path / jobs, records)
            code, out, err = self.stitch(root, jobs, capfd)
            assert (code, err) == (0, "")
            assert out.count("\n") == 1 and out.startswith(f"stitch: {n_records} sentences")
            trees[jobs] = (workspace_tree(root), out)
        assert len(trees["1"][0]) == 1 + 4 + 1 + 1 + n_records + 1  # dirs, files, poses
        assert all(tree == trees["1"] for tree in trees.values())

    @pytest.mark.parametrize("bad_id", ["../x", "x" * 300])
    def test_bad_id_in_the_last_chunk(self, cpus, tmp_path, capfd, bad_id):
        records = [SentenceRecord(id=f"s{i}", text=("boy", "see")) for i in range(5)]
        records.append(SentenceRecord(id=bad_id, text=("can", "see")))
        root = self.workspace(tmp_path / "ws", records)
        before = workspace_tree(root)
        results = {}
        for jobs in ("1", "2"):
            results[jobs] = self.stitch(root, jobs, capfd)
            assert workspace_tree(root) == before  # nothing published, no stage left
        assert results["1"] == results["2"] == (
            2, "", f"signsynth: data error: record id {bad_id!r} cannot be used as a file name\n"
        )


def test_bad_raw_file_in_the_last_chunk(cpus, tmp_path, rng, capfd):
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    for word in "abcde":
        write_raw_landmark_file(raw_dir / f"{word}.jsonl", [random_raw_frame(rng)])
    with open(raw_dir / "e.jsonl", "a") as fh:
        fh.write("{oops\n")
    before = workspace_tree(tmp_path)
    results = {}
    for jobs in ("1", "2", "3"):
        code = cli(["--jobs", jobs, "ingest", "--raw-dir", str(raw_dir),
                    "--out-dir", str(tmp_path / "lex")])
        results[jobs] = (code, *capfd.readouterr())
        assert workspace_tree(tmp_path) == before
    assert results["1"] == results["2"] == results["3"]
    assert results["1"][:2] == (2, "")
    assert f"{raw_dir / 'e.jsonl'}:2: invalid JSON" in results["1"][2]


def test_ingest_summary_is_printed_once(cpus, tmp_path, rng, capfd):
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    for word in "abcde":
        write_raw_landmark_file(raw_dir / f"{word}.jsonl",
                                [random_raw_frame(rng) for _ in range(3)])
    outs = set()
    for jobs in ("1", "3"):
        out_dir = tmp_path / "lex"
        assert cli(["--jobs", jobs, "ingest", "--raw-dir", str(raw_dir),
                    "--out-dir", str(out_dir)]) == 0
        out, err = capfd.readouterr()
        assert err == "" and out.count("ingest: 5 words") == 1 and out.count("\n") == 1
        outs.add(out)
        assert sorted(p.name for p in out_dir.iterdir()) == [f"{w}.psp" for w in "abcde"]
    assert len(outs) == 1
    assert set(io.load_sign_lexicon(tmp_path / "lex").clips) == set("abcde")
