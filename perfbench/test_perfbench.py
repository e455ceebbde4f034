"""Tests of the benchmark's own measurement code.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import _union, summarize  # noqa: E402

_CHILD = (
    "import resource, sys; sys.path.insert(0, sys.argv[1]); "
    "from hostinfo import peak_rss_mb; "
    "print(peak_rss_mb(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
)


def test_fat_parent_child_reports_its_own_peak() -> None:
    """A trivial child of a 300 MB parent reports its own small peak."""
    from hostinfo import peak_rss_mb

    ballast = bytearray(300 * 1024 * 1024)
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])  # touch every page
    parent = peak_rss_mb()
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(HERE)], capture_output=True, text=True, check=True
    )
    child_hwm, _child_maxrss = (float(v) for v in out.stdout.split())
    del ballast
    assert parent > 300
    assert child_hwm < 60, f"child VmHWM {child_hwm} MB inherited the parent's {parent} MB"


def test_union_and_self_time() -> None:
    # parent [0, 10] with overlapping async children [1, 4] and [3, 6],
    # and a grandchild [1, 2] inside the first child
    spans = [
        [1, None, "a", 0.0, 10.0, 0],
        [2, 1, "b", 1.0, 4.0, 0],
        [3, 1, "b", 3.0, 6.0, 0],
        [4, 2, "c", 1.0, 2.0, 5],
    ]
    assert _union([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)
    s = summarize(spans)
    assert s["a"]["self_s"] == pytest.approx(5.0)  # 10 - |[1, 6]|
    assert s["b"]["busy_s"] == pytest.approx(5.0)
    assert s["b"]["self_s"] == pytest.approx(2.0 + 3.0)
    assert s["c"]["count"] == 5


def test_benchmark_json_matches_catalogue() -> None:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]


def test_product_check_rejects_a_wrong_product() -> None:
    from workloads import check_product

    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((2, 6, 6))
    assert check_product(A, B, A @ B)
    assert not check_product(A, B, A @ B + 1e-3)
    assert not check_product(A, B, None)


def test_refuses_without_the_program(tmp_path: Path) -> None:
    """Only the benchmark's files present: non-zero exit, no result line."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-figs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
