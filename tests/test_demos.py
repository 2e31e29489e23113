"""Every demo, run as a script in a temporary directory."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # 03 writes ./out-triangle, so every demo runs in tmp_path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
