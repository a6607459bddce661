"""The package needs numpy alone: it must import and run with scipy made
unimportable, even where scipy is installed."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError

from nbofdma.cli import main
from nbofdma.montecarlo import TrialPlan, estimate_ergodic_capacity
from nbofdma.sysmodel import CellConfig, MobilityModel, SystemConfig

est = estimate_ergodic_capacity(TrialPlan(trials=300, seed=1), SystemConfig(),
                                CellConfig(), MobilityModel(max_velocity_mps=100.0))
print("capacity", est.mean)
sys.exit(main(["check", "--trials", "256"]))
"""


def test_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "capacity" in result.stdout
    assert "FAIL" not in result.stdout
