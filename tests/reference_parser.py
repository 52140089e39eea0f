"""The argparse parser that ``sgp.cli`` used before its verb table, kept as
a test-only reference: the table parser must give the same values for every
command line this parser accepts, and refuse every one it refuses."""

import argparse
import contextlib
import functools
import io

from sgp.cli import _FAMILY_PARAMS, _ascii_int


class Refused(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise Refused(message)


@functools.cache
def reference_parser() -> _Parser:
    parser = _Parser(prog="sgp")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_info = sub.add_parser("info")
    p_info.add_argument("spec")

    p_classify = sub.add_parser("classify")
    p_classify.add_argument("spec")
    p_classify.add_argument("--N", type=_ascii_int, required=True)
    p_classify.add_argument("--gamma", type=_ascii_int, default=None)

    p_bounds = sub.add_parser("bounds")
    p_bounds.add_argument("action", choices=("eval",))
    p_bounds.add_argument("name")
    p_bounds.add_argument("args", nargs="*")

    p_obstruct = sub.add_parser("obstruct")
    p_obstruct.add_argument("spec")
    p_obstruct.add_argument("--n", type=_ascii_int, default=2)
    p_obstruct.add_argument("--explain", action="store_true")

    p_family = sub.add_parser("family")
    p_family.add_argument("name", choices=tuple(_FAMILY_PARAMS))
    p_family.add_argument("--params", nargs="*", default=[])
    p_family.add_argument("--emit", choices=("gaps", "gens"), default="gaps")

    p_scan = sub.add_parser("scan")
    p_scan.add_argument("--genus", required=True)
    p_scan.add_argument("--predicate", required=True)
    p_scan.add_argument("--n", type=_ascii_int, default=2)
    p_scan.add_argument("--parallelism", type=_ascii_int, default=1)

    p_project = sub.add_parser("project")
    p_project.add_argument("spec")
    p_project.add_argument("--N", type=_ascii_int, required=True)
    p_project.add_argument("--gamma", type=_ascii_int, default=None)
    return parser


def reference(argv: list[str]):
    """("parsed", the namespace's values), ("refused", None), or ("help",
    None) where argparse prints its help and exits 0."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "parsed", vars(reference_parser().parse_args(argv))
    except Refused:
        return "refused", None
    except SystemExit as exc:
        if exc.code != 0:  # argparse exits 0 only after printing help
            raise
        return "help", None
