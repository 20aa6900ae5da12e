"""Each demo script runs in a fresh interpreter and prints its golden text.

The golden text in tests/demo_output/ is the demo's stdout, byte for byte.
After an intended change to a demo's output, regenerate it with
`PYTHONPATH=src python demos/NAME.py > tests/demo_output/NAME.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_golden_output():
    goldens = sorted(p.stem for p in (ROOT / "tests" / "demo_output").glob("*.txt"))
    assert goldens == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_golden_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout == (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
