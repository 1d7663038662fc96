"""The README's examples run as written."""

import io
import json
import os
import re
import shlex

import pytest

from multiprice import cli
from multiprice.harness import CSV_SCHEMA_HEADER

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_section(heading):
    """The text under the README's `## heading`, up to the next one."""
    with open(README) as fh:
        text = fh.read()
    return text.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]


def readme_python_block(heading):
    """The first ```python block under the README's `## heading`."""
    return re.search(r"```python\n(.*?)```", readme_section(heading), re.S).group(1)


def readme_cli_commands():
    """The argv of each command of the first ```sh block under `## CLI`,
    the program name and the comment dropped."""
    block = re.search(r"```sh\n(.*?)```", readme_section("CLI"), re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "multiprice" for argv in commands if argv)
    return [argv[1:] for argv in commands if argv]


def shrunk(argv, instance):
    """A documented command made small: one trial and one day, the
    instance file the one given."""
    argv = ["--trials", "1"] + [instance if a == "instance.json" else a for a in argv]
    if "--days" in argv:
        argv[argv.index("--days") + 1] = "1"
    return argv


TINY_INSTANCE = {
    "setup": {"items": [{"k": 2, "prices": [10.0, 20.0]}, {"k": 1, "prices": [15.0]}]},
    "arrivals": {"kind": "deterministic", "willing": [[2, 1], [1, 0], [2, 1]]},
}


def test_library_quick_start_runs():
    names = {}
    exec(compile(readme_python_block("Library quick start"), "README.md", "exec"), names)
    assert 0.0 < names["vf"].F < 1.0
    assert 0.0 < names["result"].revenue <= names["bound"]


def test_cli_block_documents_every_subcommand():
    documented = {argv[0] for argv in readme_cli_commands()}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert documented == set(commands)


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_cli_command_runs(argv, tmp_path, capsys):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(TINY_INSTANCE))
    code = cli.main(shrunk(argv, str(instance)))
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    if out.startswith(CSV_SCHEMA_HEADER + "\n"):
        assert len(out.splitlines()) > 2  # the schema line, the columns and a row
    else:
        assert isinstance(json.load(io.StringIO(out)), dict)
