import os
import subprocess
import sys
from pathlib import Path

import countones
from countones import adversary, fuzzing, programs, vm, words

MODULES = (adversary, fuzzing, programs, vm, words)


def test_top_level_exports_each_modules_all():
    joined = [name for module in MODULES for name in module.__all__]
    assert countones.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(countones, name) is getattr(module, name)


def test_importing_the_package_does_not_load_the_cli():
    src = Path(countones.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, countones; print('countones.cli' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
