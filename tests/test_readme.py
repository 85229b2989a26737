"""The README's python session runs as printed, and every line it marks
``# True`` evaluates to True; every ``kmchev`` command of its CLI block
exits 0 with some output."""
import shlex
from pathlib import Path

from kmchev.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(fence: str, after: str = "") -> list[str]:
    """The lines of the first block opened by fence after the text `after`."""
    text = README.read_text()
    start = text.index(fence + "\n", text.index(after)) + len(fence) + 1
    return text[start:text.index("```", start)].splitlines()


def test_readme_session():
    lines = readme_block("```python")
    checked = 0
    namespace: dict = {}
    for line in lines:
        code, _, comment = line.partition("#")
        if comment.strip() == "True":
            assert eval(code, namespace) is True, line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 3


def test_readme_cli_commands(capsys):
    commands = [line for line in readme_block("```sh", "## CLI") if line.startswith("kmchev ")]
    assert len(commands) == 8
    for line in commands:
        code = main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        assert out.strip(), line
