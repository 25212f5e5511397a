"""``cli.parse_args`` builds only the named verb's parser; it must read every
command line as the whole parser of ``cli.build_parser`` does: the same
arguments for every golden argv, the same ``--help`` for every verb, and the
same exit code and output for usage errors.  Numpy-free."""

import argparse
import contextlib
import io

import pytest
from test_golden import ENTRIES, verb_paths

from sepprob import cli

GOLDEN_ARGVS = sorted({tuple(e["argv"]) for entries in ENTRIES.values() for e in entries})

# The top level, every verb and every sub-verb, each with --help.
HELP_ARGVS = sorted({(*path[:i], "--help") for path in verb_paths(cli.build_parser()) for i in range(len(path) + 1)})

SPEC = "0.45,0.27,0.18,0.10"
USAGE_ERRORS = [
    # TestUsage in test_cli.py
    (),
    ("frobnicate",),
    ("volumes", "--n", "4", "--bogus"),
    # a missing or unknown verb, sub-verb, argument or value
    ("integrate",),
    ("integrate", "--emit", "X"),
    ("integrate", "--emit", "prob", "extra"),
    ("sample",),
    ("sample", "bogus"),
    ("sample", "sep"),
    ("sample", "sep", "--n", "10", "--bogus"),
    ("sample", "conditioned", "--a", "0.2", "--n", "100", "--burn-in", "10"),
    ("verify", "everything"),
    # a value its type rejects
    ("volumes", "--n", "0"),
    ("sample", "sep", "--n", "1e6"),
    ("sample", "sep", "--n", "10", "--tol", "inf"),
    ("sample", "conditioned", "--a", "1.0", "--n", "100"),
    # mutually exclusive modes
    ("density", "--check-oracle", "--grid", "5"),
    ("marginal", "--spectrum", SPEC, "--samples", "1000", "--grid", "5"),
]


def outcome(parse, argv) -> tuple:
    """What parsing ``argv`` gives: its arguments less ``verb``, or the exit
    code; then what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = {key: value for key, value in vars(parse(list(argv))).items() if key != "verb"}
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


def whole_parser(argv):
    return cli.build_parser().parse_args(argv)


def differing(argvs) -> list:
    return [argv for argv in argvs if outcome(cli.parse_args, argv) != outcome(whole_parser, argv)]


def test_golden_argvs_parse_alike():
    assert differing(GOLDEN_ARGVS) == []


def test_a_verb_builds_only_its_own_parser(monkeypatch):
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("built the whole parser"))
    for argv in GOLDEN_ARGVS:
        cli.parse_args(list(argv))


def test_help_is_the_same_for_every_verb():
    assert differing(HELP_ARGVS) == []
    assert {outcome(cli.parse_args, argv)[0] for argv in HELP_ARGVS} == {0}


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "no-verb")
def test_usage_error_is_the_same(argv):
    got = outcome(cli.parse_args, argv)
    assert got == outcome(whole_parser, argv) and got[0] == 2 and got[2]


def test_an_argument_on_one_route_only_is_caught(monkeypatch):
    build = cli.build_parser

    def with_extra_argument():
        parser = build()
        verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        verbs.choices["integrate"].add_argument("--extra")
        return parser

    monkeypatch.setattr(cli, "build_parser", with_extra_argument)
    assert {argv[0] for argv in differing(GOLDEN_ARGVS)} == {"integrate"}
    assert differing(HELP_ARGVS) == [("integrate", "--help")]
