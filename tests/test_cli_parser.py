"""The verb-table parser of ``sgp.cli`` against the argparse parser it
replaced (``reference_parser.py``): equal values where argparse accepts a
command line, a usage error (exit 64, nothing on stdout) where it refuses."""

import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_parser import reference
from sgp.cli import _VERBS, _parse, run

ROOT = Path(__file__).resolve().parents[1]
HELP = ("-h", "--help")


def quiet_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_like_reference(argv):
    if any(token in HELP for token in argv):
        code, out, err = quiet_run(argv)
        assert (code, err) == (0, "") and out.startswith("usage: sgp"), argv
        return
    outcome, values = reference(argv)
    if outcome == "parsed":
        assert vars(_parse(argv)) == values, argv
    else:
        assert outcome == "refused", argv
        code, out, err = quiet_run(argv)
        assert (code, out) == (64, ""), argv
        assert json.loads(err)["error"]["name"] == "Usage", argv


# values for each kind of argument; none is a float, holds a space after a
# '-', or is "--", which argparse reads in ways the table parser leaves out
INTS = ["3", "0", "-2", "12"]
TEXTS = ["12..13", "3", "symmetric", "type:2,1", "gens:2,3", "-1", "-", "", "\u00b2", "g=16"]
PARAMS = ["g=16", "i=4", "N=2", "gamma=1", "htilde=gens:2,3", "x"]
# what a mutation inserts: unknown or misplaced options, surplus
# positionals, values no kind takes, and options left without a value
NOISE = ["--bogus", "-x", "-N", "--bogus=1", "--output", "--output=text", "--N", "--n",
         "--explain", "--explain=1", "--params", "--genus", "--emit=xml", "--N=\u0663",
         "--n=+2", "--gamma=x", "--parallelism=x", "info", "nope", "gens:2,3", "-1",
         "\u0663", "", "-", "xml"]


def _value(draw, kind):
    if isinstance(kind, tuple):
        return draw(st.sampled_from(kind))
    return draw(st.sampled_from(TEXTS if kind is str else INTS))


@st.composite
def command_lines(draw):
    """A command line over the grammar, valid before its mutations: --output
    before the verb, then the verb's positionals in order with its options
    interleaved, each as "--opt v" or "--opt=v", some repeated.  Up to three
    mutations then insert noise or delete a token."""
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        value = draw(st.sampled_from(["json", "text"]))
        argv += draw(st.sampled_from([["--output", value], [f"--output={value}"]]))
    verb = draw(st.sampled_from(list(_VERBS)))
    argv.append(verb)
    pieces, options = [], []
    for key, (kind, default) in _VERBS[verb][1].items():
        if kind is list:
            values = draw(st.lists(st.sampled_from(PARAMS + INTS), max_size=3))
            if key[0] == "-":
                options.append([key, *values])
            else:
                pieces.append(values)
        elif key[0] != "-":
            pieces.append([_value(draw, kind)])
        else:
            for _ in range(draw(st.integers(1 if default is ... else 0, 2))):
                value = _value(draw, kind)
                options.append([key] if kind is bool else draw(
                    st.sampled_from([[key, value], [f"{key}={value}"]])))
    for option in options:
        pieces.insert(draw(st.integers(0, len(pieces))), option)
    argv += [token for piece in pieces for token in piece]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and argv:
            del argv[min(at, len(argv) - 1)]
        else:
            argv.insert(at, draw(st.sampled_from(NOISE)))
    return argv


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_parser_matches_reference_on_generated_argv(argv):
    assert_like_reference(argv)


@settings(max_examples=200, deadline=None)
@given(command_lines(), st.sampled_from(HELP), st.integers(0, 20))
def test_help_anywhere_prints_usage(argv, token, where):
    argv.insert(min(where, len(argv)), token)
    assert_like_reference(argv)


# command lines that argparse takes and the table parser refuses on purpose:
# a prefix of an option, "--" ending the options, or a value that starts
# with "-" but is not an integer
DROPPED = [
    ["scan", "--gen", "3", "--predicate", "symmetric"],
    ["scan", "--genus", "3", "--pred", "symmetric"],
    ["scan", "--genus=3", "--predicate", "symmetric", "--par", "2"],
    ["--out", "text", "info", "gens:2,3"],
    ["obstruct", "gens:3,4", "--e"],
    ["family", "buchweitz", "--par", "g=16", "i=4"],
    ["info", "gens:2,3", "--he"],
    ["info", "--", "gens:2,3"],
    ["bounds", "eval", "rho3", "--", "2", "1"],
    ["obstruct", "--n", "3", "--", "gens:3,4"],
    ["bounds", "eval", "rho3", "-1.5", "1"],
    ["info", "-x y"],
]


@pytest.mark.parametrize("argv", DROPPED)
def test_prefixes_and_double_dash_are_refused(argv):
    assert reference(argv)[0] in ("parsed", "help")
    code, out, err = quiet_run(argv)
    assert (code, out) == (64, "")
    assert json.loads(err)["error"]["name"] == "Usage"


def documented_argv() -> list[list[str]]:
    """Every command line of the benchmark workloads (seeds 1..20), of the
    README's examples and of the CI smoke and hostile-input steps."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    seen: dict[tuple, None] = {}
    for workload in ("tree_scan", "tree_scan_par2", "query_mix"):
        for seed in range(1, 21):
            seen.update((tuple(argv), None) for _, argv in workloads.make_requests(workload, seed))
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("sgp "):
            seen[tuple(shlex.split(line)[1:])] = None
    for line in (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines():
        match = re.match(r"\s*(?:check|fast) \d+ ?(.*)", line)
        if match and "$(" not in line:
            seen[tuple(shlex.split(match.group(1)))] = None
    return [list(argv) for argv in seen]


def test_parser_matches_reference_on_documented_argv():
    corpus = documented_argv()
    assert len(corpus) > 3000
    for argv in corpus:
        if argv not in DROPPED:
            assert_like_reference(argv)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--output", "text", "-h"],
                                  *([verb, "--help"] for verb in _VERBS)])
def test_help_returns_zero_in_process(argv):
    # run returns, as its docstring promises, rather than raising SystemExit
    code, out, err = quiet_run(argv)
    assert (code, err) == (0, "")
    for verb, (_, spec) in _VERBS.items():
        assert f"usage: sgp {verb} " in out
        assert all(key in out for key in spec)


def test_module_help_exits_zero():
    proc = subprocess.run([sys.executable, "-m", "sgp.cli", "--help"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "usage: sgp scan --genus --predicate [--n] [--parallelism]" in proc.stdout


def test_import_leaves_argparse_unloaded():
    code = "import sys, sgp.cli; print('argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.split() == ["False"]
