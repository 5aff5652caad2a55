"""The library example of README.md runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert block is not None, "README.md has no python block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    crv, res = namespace["crv"], namespace["res"]
    assert crv.residual < 1e-10
    assert abs(abs(res.lam) - 1.0) < 1e-12
