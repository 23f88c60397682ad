"""Every ``python`` block and every ``holgate`` example of the README runs as written."""

import re
from pathlib import Path

import pytest

from hologate import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.DOTALL | re.MULTILINE)
# "holgate CMD --config FILE --out DIR" lines of the command-line section
INVOCATIONS = re.findall(r"^holgate (\S+ --config \S+ --out \S+)$", TEXT, flags=re.MULTILINE)
# each command's paragraph ends in ":" before its JSON config, and the text
# up to the next code block names the files the command writes
EXAMPLES = {}
for match in re.finditer(r"^`([a-z-]+)` [^\n]*:\n\n```json\n(.*?)^```$", TEXT, flags=re.DOTALL | re.MULTILINE):
    after = TEXT[match.end():TEXT.index("```", match.end())]
    EXAMPLES[match[1]] = (match[2], re.findall(r"`(\w+\.(?:csv|json))`", after))


def test_readme_has_a_python_tour():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})
    capsys.readouterr()


def test_readme_documents_every_command():
    assert sorted(line.split()[0] for line in INVOCATIONS) == sorted(cli.COMMANDS)
    assert sorted(EXAMPLES) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_readme_cli_example_runs(invocation, tmp_path, monkeypatch, capsys):
    command, _, config_name, _, out = invocation.split()
    config, written = EXAMPLES[command]
    monkeypatch.chdir(tmp_path)
    Path(config_name).write_text(config)
    assert cli.main(invocation.split()) == 0
    capsys.readouterr()
    assert written and sorted(p.name for p in Path(out).iterdir()) == sorted(written)
