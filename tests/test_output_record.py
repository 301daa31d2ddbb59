"""The output record: every file ``tools/output_digest.py`` writes, checked
against the hashes in ``tools/output_digest.sha256``.

The files are written by the tool's own ``cli_runs`` and ``api_runs``, so the
record has one writer.  The hashes of the outputs hold for one build of
Python, numpy and its OpenBLAS; on any other build the exit codes and stderr
lines (the ``.exit`` files) are still checked, and the rest is reported as
not applicable.  The test never rewrites the record.
"""

import hashlib
import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
RECORDED_BUILD = ("3.11.7", "2.4.6", "scipy-openblas 0.3.31")


def _build():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return platform.python_version(), np.__version__, f"{blas['name']} {blas['version']}"


def test_outputs_match_the_record(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("DRNETS_THREADS", "1")
    tool.cli_runs(tmp_path)
    tool.api_runs(tmp_path)

    record = dict(line.split()[::-1] for line in
                  (TOOLS / "output_digest.sha256").read_text().splitlines())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(record)
    moved = sorted(name for name, digest in record.items()
                   if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != digest)
    assert {name: (tmp_path / name).read_text() for name in moved
            if name.endswith(".exit")} == {}
    build = _build()
    recorded = build[:2] == RECORDED_BUILD[:2] and build[2].startswith(RECORDED_BUILD[2])
    if not recorded:
        pytest.skip(f"exit codes and stderr match; output hashes not applicable on Python "
                    f"{build[0]}, numpy {build[1]}, {build[2]} (recorded on Python "
                    f"{RECORDED_BUILD[0]}, numpy {RECORDED_BUILD[1]}, {RECORDED_BUILD[2]})")
    assert moved == []
