"""What `import torhom` costs at start-up: the modules it must not load.
`dataclasses` brings `inspect`, `ast`, `dis` and `tokenize` with it;
`json` and `inspect` are imported only by the code that uses them, and
so is `torhom.checks`, which only `torhom check` runs."""

import os
import subprocess
import sys

import pytest

import torhom

SRC = os.path.dirname(os.path.dirname(os.path.abspath(torhom.__file__)))


@pytest.mark.parametrize("module, unwanted", [
    ("torhom", {"dataclasses", "inspect", "json"}),
    ("torhom.cli", {"dataclasses", "inspect", "torhom.checks"}),
])
def test_import_leaves_out(module, unwanted):
    # a fresh interpreter; modules that site set-up loads before the import do not count
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert module in added
    assert not added & unwanted, sorted(added & unwanted)
