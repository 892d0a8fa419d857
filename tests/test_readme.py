"""README's examples run as written."""

import re
from pathlib import Path

from equicompress.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)


def test_readme_examples_run(tmp_path, capsys):
    python = blocks("python")
    assert python
    for code in python:
        exec(compile(code, "README.md", "exec"), {})

    actions = blocks("json")
    assert actions
    for i, text in enumerate(actions):
        path = tmp_path / f"action-{i}.json"
        path.write_text(text)
        assert main(["check-regular", "--action", str(path)]) == 0, text
    capsys.readouterr()
