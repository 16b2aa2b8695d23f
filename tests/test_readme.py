"""The README's quick start runs as written against the current API."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_quick_start_runs():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(block, {})
    assert out.getvalue().splitlines()[0] == "TwoDominantOscillation"
