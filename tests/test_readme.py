"""The README's examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_python_block(heading):
    """The first ```python block under the README's `## heading`."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    names = {}
    exec(compile(readme_python_block("Library quick start"), "README.md", "exec"), names)
    assert 0.0 < names["vf"].F < 1.0
    assert 0.0 < names["result"].revenue <= names["bound"]
