"""The README's library tour runs against the library as it is."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md, Library tour", "exec"), namespace)
    assert 0.0 < namespace["score"] < math.log(2.0)
    assert namespace["report"].interaction == 4 * 16 * 64 * 16  # 4nNC
    assert namespace["z"].grad.shape == (64, 16)
