"""The README's python session runs as printed, and every line it marks
``# True`` evaluates to True."""
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_session() -> list[str]:
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)].splitlines()


def test_readme_session():
    lines = readme_session()
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
