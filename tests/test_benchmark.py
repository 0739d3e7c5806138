"""The benchmark's workloads still run and pass their checks.

``perfbench/run.py`` reads the attention layer's ``(out, maps)`` returns,
the map stacks and the MAC labels; its traced run patches
``ToyDiffusionModel.forward``, ``ModelBundle.velocity``,
``SgdState.apply`` and the scheduler's thread pool. These short runs fail
when any of them changes shape or name; all four workloads run, the
``sweep`` and ``train`` ones traced. The ``redundancy`` run also holds
``redundancy_score`` to the benchmark's own pairwise-JSD oracle at 1e-15
on the real vanilla and composed N=256 maps, and the ``train`` run holds
the batched train step's gradients to central differences.

Each run works on a copy of ``src/`` and the ``perfbench`` scripts, since
``run.py`` clears and rewrites ``perfbench/out/<workload>`` beside itself:
a run in the checkout would wipe the outputs of a benchmark running there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(tmp_path, workload, trace):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0


def test_attention_workload_runs_correct(tmp_path):
    run_workload(tmp_path, "attention", trace=0)


def test_redundancy_workload_runs_correct(tmp_path):
    run_workload(tmp_path, "redundancy", trace=0)


def test_traced_sweep_workload_runs_correct(tmp_path):
    run_workload(tmp_path, "sweep", trace=1)


def test_traced_train_workload_runs_correct(tmp_path):
    run_workload(tmp_path, "train", trace=1)
