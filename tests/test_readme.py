"""The README's library snippet runs as written."""

import os
import re
import warnings

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_readme_library_snippet_runs_without_warnings(capsys):
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[0].startswith("0.13600825625651192 [")
