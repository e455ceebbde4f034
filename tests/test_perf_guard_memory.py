"""The perf guard's memory section measures each child, not the guard.

On Linux ``getrusage(RUSAGE_SELF).ru_maxrss`` carries the parent's
high-water mark into a child across fork+exec, so a small run started
by a large ``perf_guard.py`` would report the guard's peak.  The
children read their own ``VmHWM`` instead; this test runs that reader in
a trivial child of a fat parent.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "perf_guard.py")


def _perf_guard():
    spec = importlib.util.spec_from_file_location("perf_guard_under_test", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _own_vm_hwm_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_memory_snippet_reports_the_childs_own_peak():
    guard = _perf_guard()
    assert "vm_hwm_kb()" in guard._MEMORY_SNIPPET
    assert "ru_maxrss" not in guard._MEMORY_SNIPPET

    ballast = bytearray(300 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    parent_kb = _own_vm_hwm_kb()
    out = subprocess.run(
        [sys.executable, "-c", guard._VM_HWM_READER + "print(vm_hwm_kb())"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    del ballast
    child_kb = int(out.stdout)
    assert parent_kb > 300 * 1024
    assert child_kb < 60 * 1024, (
        f"child VmHWM {child_kb} kB inherited the parent's {parent_kb} kB"
    )
