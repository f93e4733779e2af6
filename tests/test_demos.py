import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; a demo that prints something else fails
STDOUT_SHA256 = {
    "01_the_machine.py": "305c7ac23a901dccac43ee70de344283d961182cc0f9498c6e264955276e6f69",
    "02_three_counters.py": "d69a31a525c7d04733ea3431ca24b34ac1bfcea1b7b6a7b1cb6ba9899d59148c",
    "03_prefix_invariant.py": "cba6bc6e052a947ccabcf3e7618a71de7da1abae83573ef61f4bbf9b934eac7e",
    "04_lower_bound.py": "7eac25ad829f2ef847bb14200aa5d5192f117c0ec6fe18fdad85d240cef89e93",
}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.name], done.stdout.decode()
