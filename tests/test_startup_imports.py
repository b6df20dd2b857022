"""Start-up imports: a run loads only the modules it executes.

Each check runs in a fresh interpreter, since this test process has imported
everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import v2xalloc

SRC = Path(v2xalloc.__file__).resolve().parent.parent
# yaml serves only a config file; scipy and mpmath serve only the tests, as
# their references (the oracles need neither)
SCIPY = ("scipy", "scipy.special", "scipy.stats", "scipy.optimize")
FORBIDDEN = SCIPY + ("mpmath", "yaml", "v2xalloc.oracles")

RUN = """
import v2xalloc.cli, v2xalloc.harness
from v2xalloc.config import ScenarioConfig
cfg = ScenarioConfig()
v2xalloc.harness.run_drop(
    cfg.replace(num_cues=2, num_vues=2, sample_count=300, test_count=200), 0)
"""


def loaded(code: str, cwd: Path | None = None) -> list[str]:
    """Which of FORBIDDEN a fresh interpreter has imported after ``code``."""
    report = ("\nimport json, sys\n"
              f"print(json.dumps([m for m in {FORBIDDEN!r} if sys.modules.get(m)]))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + report], cwd=cwd, check=True,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(done.stdout.splitlines()[-1])


def test_a_run_loads_no_oracle_or_config_file_module():
    assert loaded(RUN) == []


def test_a_config_file_loads_yaml(tmp_path):
    (tmp_path / "scenario.yaml").write_text("sample_count: 300\n")
    code = "from v2xalloc.config import load_config\nload_config('scenario.yaml')"
    assert loaded(code, cwd=tmp_path) == ["yaml"]


def test_validate_loads_the_oracles():
    code = "from v2xalloc.cli import main\nassert main(['validate']) == 0"
    assert loaded(code) == ["v2xalloc.oracles"]


def test_validate_runs_with_mpmath_blocked():
    # a None entry in sys.modules makes `import mpmath` raise ImportError
    code = ("import contextlib, io, sys\n"
            "sys.modules['mpmath'] = None\n"
            "from v2xalloc import validate\n"
            "from v2xalloc.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    assert main(['validate']) == 0\n"
            "lines = out.getvalue().splitlines()\n"
            "assert len(lines) == len(validate.CHECKS) == 7\n"
            "assert all(line.startswith('[PASS] ') for line in lines), lines")
    assert loaded(code) == ["v2xalloc.oracles"]


def test_a_float_tie_in_k_star_loads_no_scipy():
    # Bin(n, 1/2) has CDF 1/2, exactly 1 - varsigma, at (n-1)/2 for odd n:
    # the in-package exact sum decides, and k* = (n+1)/2
    code = ("from v2xalloc.selflearn import calibration_index\n"
            "assert calibration_index(3, 0.5, 0.5) == 2\n"
            "assert calibration_index(7, 0.5, 0.5) == 4\n"
            "import v2xalloc.harness\n"
            "from v2xalloc.config import ScenarioConfig\n"
            "cfg = ScenarioConfig(num_cues=2, num_vues=2, sample_count=7, test_count=200,\n"
            "                     outage_prob=0.5, confidence=0.5)\n"
            "assert cfg.k_star == 4\n"
            "v2xalloc.harness.run_drop(cfg, 0)")
    assert loaded(code) == []
