"""The check set of scripts/bench.py: a record it writes verifies, a moved
field is named, and the grid run still matches the committed
CHECKSET.json.  The grid run is a supra-72 dense detection, solved by
LAPACK, so another host's BLAS may move its bytes, soft labels or beta at
the rounding level; its labels and Q must not move."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checkset(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), *args],
                          capture_output=True, text=True)


def test_committed_grid_run_verifies():
    proc = checkset("verify", "--only", "grid")
    assert ": 1 files, " in proc.stdout, proc.stdout + proc.stderr
    for line in proc.stdout.splitlines():  # "moved    KEY: field, ...", "missing  KEY", ...
        assert not line.startswith(("missing", "new")), proc.stdout
        if line.startswith("moved"):
            assert not {"labels", "q_total"} & set(line.partition(": ")[2].split(", ")), line


def test_written_record_verifies_and_moves_are_named(tmp_path):
    record = tmp_path / "checkset.json"
    proc = checkset("write", "--only", "grid", "synth-33", "--file", str(record))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(record.read_text())
    document = data["documents"]["synth-33/result_mspec.txt"]
    assert set(document) == {"sha256", "soft_labels", "beta", "labels", "q_total"}
    assert checkset("verify", "--only", "grid", "synth-33",
                    "--file", str(record)).returncode == 0
    document.update(labels="0" * 64, q_total="1.0")
    del data["documents"]["grid/result_mspec.txt"]
    record.write_text(json.dumps(data))
    proc = checkset("verify", "--only", "grid", "synth-33", "--file", str(record))
    assert proc.returncode == 1
    assert "moved    synth-33/result_mspec.txt: labels, q_total\n" in proc.stdout
    assert "new      grid/result_mspec.txt\n" in proc.stdout


def test_options_of_the_other_use_are_refused():
    for args, error in ((["verify", "--against", "HEAD"], "--against goes with a ladder LABEL"),
                        (["label", "--only", "grid"], "--only and --file go with write")):
        proc = checkset(*args)
        assert proc.returncode == 2
        assert error in proc.stderr
