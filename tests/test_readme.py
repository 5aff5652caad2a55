"""The library example and the shell examples of README.md run against the
current API and command line."""

import re
import shlex
from pathlib import Path

from revtwist.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert block is not None, "README.md has no python block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    crv, res = namespace["crv"], namespace["res"]
    assert crv.residual < 1e-10
    assert abs(abs(res.lam) - 1.0) < 1e-12


def shell_commands():
    """Every command of the README's unlabelled code blocks, with backslash
    continuations joined."""
    commands = []
    for lang, block in re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.S | re.M):
        if not lang:
            commands += [c.strip() for c in block.replace("\\\n", " ").splitlines() if c.strip()]
    return commands


def test_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ran = []
    for command in shell_commands():
        argv = shlex.split(command)
        if argv[0] == "printf":
            # printf 'TEXT' > FILE, with \n escapes in TEXT
            text, redirect, path = argv[1:]
            assert redirect == ">", command
            Path(path).write_text(text.replace("\\n", "\n"))
        elif argv[0] == "revtwist":
            assert main(argv[1:]) == 0, command
            ran.append(argv[1])
    assert ran == ["curve", "majorant", "obstruct", "bishop", "surface"]
