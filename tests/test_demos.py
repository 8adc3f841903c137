import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
