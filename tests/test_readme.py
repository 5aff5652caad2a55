"""The library example and the shell examples of README.md run against the
current API and command line, and the examples write the artifacts pinned
under tests/artifacts byte for byte.

Run as a script, `python tests/test_readme.py` runs the same examples
through the installed `revtwist` console script, each in a subprocess in
a temporary directory, and exits 1 if any artifact differs."""

import re
import shlex
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest

from revtwist.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
ARTIFACTS = Path(__file__).resolve().parent / "artifacts"
SUFFIX = {"curve": "csv", "surface": "csv", "normalize": "csv", "obstruct": "json"}
# Pinned besides the README's commands.
CONSTANTS = "revtwist constants --alpha 1 --s 1 --n 10"


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


def run_examples(run, cwd: Path) -> tuple[list[str], list[str]]:
    """Run the README's commands and then `CONSTANTS` in cwd: a printf line
    writes its file, and run(argv) runs a revtwist command and returns its
    stdout.  Returns the subcommands run and, for each stale artifact, its
    `first_difference`."""
    ran, stale = [], []
    for command in shell_commands() + [CONSTANTS]:
        argv = shlex.split(command)
        if argv[0] == "printf":
            # printf 'TEXT' > FILE, with \n escapes in TEXT
            text, redirect, path = argv[1:]
            assert redirect == ">", command
            (cwd / path).write_text(text.replace("\\n", "\n"))
        elif argv[0] == "revtwist":
            out = run(argv)
            if "--out" in argv:
                out = (cwd / argv[argv.index("--out") + 1]).read_bytes()
            stale.append(first_difference(argv[1], out))
            ran.append(argv[1])
    return ran, [line for line in stale if line is not None]


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # Every artifact is compared before the test fails, so one run names
    # each stale file.
    monkeypatch.chdir(tmp_path)

    def run(argv):
        capsys.readouterr()
        assert main(argv[1:]) == 0, argv
        return capsys.readouterr().out.encode()

    ran, stale = run_examples(run, tmp_path)
    assert ran == ["curve", "majorant", "obstruct", "bishop", "surface", "normalize", "constants"]
    if stale:
        pytest.fail("\n".join(stale))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ran, stale = run_examples(
            lambda argv: subprocess.run(argv, cwd=tmp, check=True, stdout=subprocess.PIPE).stdout,
            Path(tmp))
    print("\n".join(stale) or f"{len(ran)} artifacts match: {' '.join(ran)}")
    sys.exit(1 if stale else 0)
