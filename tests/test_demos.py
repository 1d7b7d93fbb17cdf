"""Each demo runs to a clean exit on tiny arguments.

The demos drive the public API (agent protocol, env, evaluation) the way a
reader would; running them here catches a protocol change that breaks them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = [
    ("quickstart_episode.py", ["--steps", "12"]),
    ("link_budget_walkthrough.py", []),
    ("train_then_compare.py", ["--episodes", "1", "--eval-episodes", "1"]),
]


@pytest.mark.parametrize("script, args", DEMOS, ids=[name for name, _ in DEMOS])
def test_demo_exits_cleanly(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{script} printed nothing"
