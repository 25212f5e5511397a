import contextlib
import functools
import io
import json
import os
from pathlib import Path

import pytest

import sepprob
from sepprob.cli import main


@pytest.fixture(scope="session")
def child_env() -> dict:
    """This environment with the imported package's source first on
    PYTHONPATH, for tests that run the CLI in a fresh interpreter."""
    src = str(Path(sepprob.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="session")
def cli_run():
    """``cli_run(argv)`` gives the exit code and stdout of the CLI run
    in-process, cached by argv, so that each argv runs once per session."""

    @functools.cache
    def run(argv: tuple) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    return lambda argv: run(tuple(argv))


@pytest.fixture(scope="session")
def verify_all_42(cli_run):
    """Exit code and report of ``verify all --seed 42``, shared by the CLI
    and golden tests."""
    code, out = cli_run(["verify", "all", "--seed", "42"])
    return code, json.loads(out)
