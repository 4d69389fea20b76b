"""The example scripts in ``scripts/`` run to completion on small inputs.

``make_bundled_data.py`` is left out: it rewrites the bundled data files.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import daglm_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["unbiasing_demo.py", "--n", "500"],
        ["caschools_pipeline.py"],
        ["validation_study.py", "--replicates", "500", "--n", "200"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_0(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=daglm_env(), cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
