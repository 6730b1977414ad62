"""Seeded stdout does not depend on the worker count or the chunk size.

Each command runs in-process through `cli.main` three times: at `--jobs 1`,
at `--jobs 2`, and at `--jobs 1` with `estimators.CHUNK_CELLS` shrunk so its
Monte Carlo trials go in at least three `trial_chunks`.  All three must
print the same bytes.  Every command here runs one grid point, so `--jobs 2`
starts no worker process.  `a5` draws its trials of either model one at a
time and takes no chunks; it is held to the same three runs.  A two-point
`a5-accuracy` config runs its points in one real pool of two workers, and
must write the bytes of its in-process run.
"""

import json

import pytest

import treecast.estimators as estimators
from treecast.cli import EXIT_OK, main

# argv, and the CHUNK_CELLS that splits its trials into at least 3 chunks
# (a chunk holds 1 + CHUNK_CELLS // n trials of n leaves).
COMMANDS = {
    "detect-majority": (
        ["detect", "--k", "2", "--d", "10", "--theta", "4/5", "--trials", "3000",
         "--estimator", "majority"],
        1024 * 900,
    ),
    "detect-linearized-bp": (
        ["detect", "--k", "3", "--d", "6", "--theta", "9/10", "--estimator", "linearized-bp"],
        729 * 300,
    ),
    "detect-bp-rounding": (
        ["detect", "--k", "2", "--d", "12", "--theta", "4/5", "--trials", "3000",
         "--estimator", "bp-rounding"],
        4096 * 900,
    ),
    "scan-noise-mc": (
        ["scan-noise", "--k", "2", "--theta", "4/5", "--d", "8", "--s", "1/10", "--trials", "3000"],
        256 * 900,
    ),
    "a5": (["a5", "--k", "4", "--d", "3", "--trials", "300"], None),
    "a5-pair3600": (["a5", "--model", "pair3600", "--k", "20", "--d", "2", "--trials", "100"], None),
}


def _stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == EXIT_OK, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_is_independent_of_jobs_and_chunks(capsys, monkeypatch, name):
    argv, chunk_cells = COMMANDS[name]
    one = _stdout(capsys, ["--jobs", "1", *argv])
    assert one
    assert _stdout(capsys, ["--jobs", "2", *argv]) == one

    chunks = []
    real = estimators.trial_chunks

    def counted(trials, n):
        for chunk in real(trials, n):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(estimators, "trial_chunks", counted)
    if chunk_cells is not None:
        monkeypatch.setattr(estimators, "CHUNK_CELLS", chunk_cells)
    assert _stdout(capsys, ["--jobs", "1", *argv]) == one
    assert len(chunks) >= 3 if chunk_cells is not None else not chunks


def test_a5_config_rows_are_independent_of_a_real_pool(tmp_path, capsys, monkeypatch):
    """Two grid points at jobs 2 start one pool of two workers."""
    import treecast.experiments as experiments

    pools = []

    class CountedPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
    outputs = []
    for jobs in (1, 2):
        config = tmp_path / f"a5-jobs{jobs}.json"
        config.write_text(json.dumps({
            "experiment": "a5-accuracy", "model": "pair3600", "trials": 100, "k": [4, 5],
            "d": [2], "jobs": jobs,
        }))
        outputs.append(_stdout(capsys, ["--config", str(config), "a5"]))
    assert outputs[0].count("\n") == 3
    assert outputs[1] == outputs[0]
    assert pools == [2]
