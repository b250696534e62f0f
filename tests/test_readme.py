import os
import pkgutil
import re
import shlex

import pytest

import eigmatch
from eigmatch.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _cli_commands() -> list[list[str]]:
    """Arguments of every ``eigmatch ...`` line in the README's shell blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", _readme(), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("eigmatch ")]


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _readme(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    n, m_n = namespace["rows"][0]
    assert n == 512 and m_n == pytest.approx(0.0082498, abs=1e-7)
    assert capsys.readouterr().out.startswith("[(512, 0.00824")


def test_readme_module_table_lists_exactly_the_package_modules():
    layout = _readme().split("## Library layout", 1)[1]
    listed = re.findall(r"^\| `eigmatch\.(\w+)`", layout, flags=re.M)
    assert sorted(listed) == sorted(info.name for info in pkgutil.iter_modules(eigmatch.__path__))


def test_readme_documents_cli_commands():
    assert len(_cli_commands()) >= 7  # at least one line per subcommand


@pytest.mark.parametrize("argv", _cli_commands(), ids=" ".join)
def test_readme_cli_command_runs(argv, tmp_path, capsys):
    output = tmp_path / "out.csv"
    try:
        code = main(["--output", str(output)] + argv)
    except SystemExit as exc:  # argparse refused the line
        code = exc.code
    assert code == 0, capsys.readouterr().err
    assert output.read_text().count("\n") >= 2  # header and at least one row
