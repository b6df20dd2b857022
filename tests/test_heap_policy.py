"""Heap policy: a steady-state drop reuses the heap the drop before it freed.

The fault count runs in a fresh interpreter, since this test process has
allocated and freed memory in patterns of its own.  It needs the default
scenario: a small one stays below glibc's trim threshold and faults little
without the policy too.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import v2xalloc
from v2xalloc import harness

SRC = Path(v2xalloc.__file__).resolve().parent.parent
WARM_UP, DROPS = 3, 20
MAX_FAULTS_PER_DROP = 64   # about 1,250 when each drop gives its heap back

FAULTS = f"""
import json, resource
from v2xalloc import harness
from v2xalloc.config import ScenarioConfig
cfg = ScenarioConfig()
for i in range({WARM_UP}):
    harness.run_drop(cfg, i)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range({WARM_UP}, {WARM_UP + DROPS}):
    harness.run_drop(cfg, i)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
def test_steady_state_default_drops_fault_in_almost_nothing():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FAULTS], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    faults = json.loads(done.stdout.splitlines()[-1])
    assert faults / DROPS <= MAX_FAULTS_PER_DROP, f"{faults} minor faults in {DROPS} drops"


def _libc(accepts: bool):
    """A stand-in C library whose ``mallopt`` records its calls."""
    def mallopt(param: int, value: int) -> int:
        mallopt.calls.append((param, value))
        return int(accepts)
    mallopt.calls = []
    return SimpleNamespace(mallopt=mallopt)


def test_policy_sets_threshold_and_top_pad_to_one_size():
    libc = _libc(accepts=True)
    assert harness.keep_freed_heap(libc)
    size = harness.HEAP_KEEP_BYTES
    assert libc.mallopt.calls == [(harness.M_MMAP_THRESHOLD, size), (harness.M_TOP_PAD, size)]


def test_policy_is_a_no_op_without_mallopt():
    assert harness.keep_freed_heap(object()) is False
    # a libc that refuses the threshold is not asked for the pad
    libc = _libc(accepts=False)
    assert harness.keep_freed_heap(libc) is False
    assert libc.mallopt.calls == [(harness.M_MMAP_THRESHOLD, harness.HEAP_KEEP_BYTES)]
