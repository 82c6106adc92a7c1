"""Each demo script's exit code, stdout and stderr against ``demos_golden.json``.

Every ``demos/*.py`` runs in a fresh interpreter with ``PYTHONPATH=src``, as
a reader would run it from the repository root.  Sweep timings ``[N ms]``
are masked and trailing newlines stripped.  After an intended output
change, rewrite the file with
    PYTHONPATH=src:tests python -c "import test_demos; test_demos.record_golden()"
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("demos_golden.json")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _demo_run(path: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    stdout = re.sub(r"\[\d+ ms\]", "[* ms]", done.stdout).rstrip("\n")
    return {"code": done.returncode, "stdout": stdout, "stderr": done.stderr.rstrip("\n")}


def record_golden() -> None:
    outputs = {path.name: _demo_run(path) for path in DEMOS}
    GOLDEN.write_text(json.dumps(outputs, indent=1, ensure_ascii=False) + "\n")


def test_demo_output_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    assert [path.name for path in DEMOS] == list(expected)
    for path in DEMOS:
        assert _demo_run(path) == expected[path.name], path.name
