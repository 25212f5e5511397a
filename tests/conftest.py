import contextlib
import io
import json

import pytest

from sepprob.cli import main


@pytest.fixture(scope="session")
def verify_all_42():
    """Exit code and report of one ``verify all --seed 42`` run, shared by the
    CLI and golden tests."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all", "--seed", "42"])
    return code, json.loads(out.getvalue())
