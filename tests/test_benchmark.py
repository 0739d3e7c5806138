"""The benchmark's attention workload still runs and passes its checks.

``perfbench/run.py`` reads the attention layer's ``(out, maps)`` returns,
the map stacks and the MAC labels; this one-second run fails when any of
them changes shape or name.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_attention_workload_runs_correct():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attention",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
