import contextlib
import functools
import io
import json

import pytest

from sepprob.cli import main


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
