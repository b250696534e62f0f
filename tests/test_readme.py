import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    n, m_n = namespace["rows"][0]
    assert n == 512 and m_n == pytest.approx(0.0082498, abs=1e-7)
    assert capsys.readouterr().out.startswith("[(512, 0.00824")
