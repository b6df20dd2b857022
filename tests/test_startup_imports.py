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
# mpmath serves only the oracles, yaml only a config file; scipy serves only
# k*'s float-tie band (scipy.special.bdtr) and the tests, as their reference
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
              f"print(json.dumps([m for m in {FORBIDDEN!r} if m in sys.modules]))")
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
    modules = loaded(code)
    assert "v2xalloc.oracles" in modules and not set(SCIPY) & set(modules)


def test_a_float_tie_in_k_star_loads_scipy_special():
    # Bin(3, 1/2) has CDF 1/2 at 1, exactly 1 - varsigma: scipy's bdtr decides
    code = ("from v2xalloc.selflearn import calibration_index\n"
            "assert calibration_index(300, 0.05, 0.05) == 292\n"
            "import sys\nassert 'scipy' not in sys.modules\n"
            "assert calibration_index(3, 0.5, 0.5) == 2")
    assert loaded(code) == ["scipy", "scipy.special"]
