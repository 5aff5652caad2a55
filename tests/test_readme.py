"""The library example and the shell examples of README.md run against the
current API and command line, and the examples write the artifacts pinned
under tests/artifacts byte for byte."""

import re
import shlex
from itertools import zip_longest
from pathlib import Path

import pytest

from revtwist.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
ARTIFACTS = Path(__file__).resolve().parent / "artifacts"
SUFFIX = {"curve": "csv", "surface": "csv", "normalize": "csv", "obstruct": "json"}


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


def first_difference(subcommand: str, got: bytes) -> str | None:
    """None when got equals the pinned artifact of the subcommand, else the
    file's name and its first differing line."""
    name = f"{subcommand}.{SUFFIX.get(subcommand, 'txt')}"
    want = (ARTIFACTS / name).read_bytes()
    if got == want:
        return None
    pairs = zip_longest(got.splitlines(True), want.splitlines(True), fillvalue=b"")
    k, (g, w) = next((k, p) for k, p in enumerate(pairs, 1) if p[0] != p[1])
    return f"{name} line {k}: got {g!r}, pinned {w!r}"


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # Every artifact is compared before the test fails, so one run names
    # each stale file.
    monkeypatch.chdir(tmp_path)
    ran, stale = [], []
    for command in shell_commands():
        argv = shlex.split(command)
        if argv[0] == "printf":
            # printf 'TEXT' > FILE, with \n escapes in TEXT
            text, redirect, path = argv[1:]
            assert redirect == ">", command
            Path(path).write_text(text.replace("\\n", "\n"))
        elif argv[0] == "revtwist":
            capsys.readouterr()
            assert main(argv[1:]) == 0, command
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            stale.append(first_difference(argv[1], Path(out).read_bytes() if out else
                                          capsys.readouterr().out.encode()))
            ran.append(argv[1])
    assert ran == ["curve", "majorant", "obstruct", "bishop", "surface", "normalize"]
    capsys.readouterr()
    assert main(["constants", "--alpha", "1", "--s", "1", "--n", "10"]) == 0
    stale.append(first_difference("constants", capsys.readouterr().out.encode()))
    stale = [line for line in stale if line is not None]
    if stale:
        pytest.fail("\n".join(stale))
