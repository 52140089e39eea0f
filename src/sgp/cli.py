"""Command-line front end.

Verbs: info, classify, bounds, obstruct, family, scan, project.  Output is
JSON by default (--output text renders the same fields as key: value
lines).  Exit codes: 0 success, 2 domain/precondition failures (structured
error on stdout), 64 usage errors, 141 when stdout is closed before the
output is written (as a shell reports a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pickle
import signal
import sys
from typing import Any

from . import bounds as bounds_mod
from . import core as core_mod
from . import families as families_mod
from .classify import project_by_n, type_test, type_verdict
from .core import (DEFAULT_GENUS_CAP, NumericalSemigroup, descendants,
                   format_semigroup, natural_gamma, parse_semigroup)
from .errors import SemigroupError, UnknownPredicate, WorkerFailed
from .obstruction import (bc_test, gap_sum_profile, pair_sum_extras,
                          pairing_rules_out)

GAP_LIST_CAP = 512
EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_SIGPIPE = 141  # 128 + SIGPIPE, what a shell reports for a process it killed
# a scan shard's index on the task pipe is one 4-byte record, written by
# itself: POSIX makes a pipe write of at most PIPE_BUF (>= 512) bytes atomic,
# so a reader's 4-byte read never takes part of a record
_RECORD = 4


class _UsageError(Exception):
    pass


def _ascii_int(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits, else ValueError: bare
    int() also reads other scripts' digits, '+', '_' and whitespace."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_ascii_int.__name__ = "int"  # argparse reports "invalid int value: ..."


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise _UsageError(message)


def _gap_list(gaps: tuple[int, ...], genus: int) -> dict[str, Any]:
    payload: dict[str, Any] = {"gaps": list(gaps[:GAP_LIST_CAP])}
    if genus > GAP_LIST_CAP:
        payload["gaps_truncated"] = True
        payload["gaps_omitted"] = genus - GAP_LIST_CAP
    return payload


def _semigroup_json(H: NumericalSemigroup) -> dict[str, Any]:
    out: dict[str, Any] = {"genus": H.genus, "frobenius": H.frobenius,
                           "conductor": H.conductor}
    # only the gaps printed are decoded
    out.update(_gap_list(core_mod._bit_positions(H._gap_bits(), GAP_LIST_CAP), H.genus))
    out["min_gens"] = list(H.min_generators)
    return out


def _render_text(payload: Any, indent: str = "") -> str:
    lines = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, dict) or (
                    isinstance(value, list) and value and isinstance(value[0], dict)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_text(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {json.dumps(value)}")
    elif isinstance(payload, list):
        for value in payload:
            lines.append(_render_text(value, indent))
    else:
        lines.append(f"{indent}{json.dumps(payload)}")
    return "\n".join(lines)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: every ``run`` reuses it,
    and each ``parse_args`` fills a fresh namespace."""
    parser = _Parser(prog="sgp", description=__doc__)
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_info = sub.add_parser("info", help="summarize a semigroup")
    p_info.add_argument("spec")

    p_classify = sub.add_parser("classify", help="type-(N, gamma) verdict")
    p_classify.add_argument("spec")
    p_classify.add_argument("--N", type=_ascii_int, required=True)
    p_classify.add_argument("--gamma", type=_ascii_int, default=None,
                            help="defaults to the natural gamma for N")

    p_bounds = sub.add_parser("bounds", help="evaluate a named bound")
    p_bounds.add_argument("action", choices=("eval",))
    p_bounds.add_argument("name")
    p_bounds.add_argument("args", nargs="*")

    p_obstruct = sub.add_parser("obstruct", help="gap-sum profile")
    p_obstruct.add_argument("spec")
    p_obstruct.add_argument("--n", type=_ascii_int, default=2)
    p_obstruct.add_argument("--explain", action="store_true",
                            help="list the pairwise sums beyond the baseline")

    p_family = sub.add_parser("family", help="generate a family instance")
    p_family.add_argument("name", choices=("buchweitz", "cover", "sharp",
                                           "extremal", "spurious"))
    p_family.add_argument("--params", nargs="*", default=[], metavar="k=v")
    p_family.add_argument("--emit", choices=("gaps", "gens"), default="gaps")
    p_family.add_argument("--bump-g", action="store_true", dest="bump_g",
                          help="cover only: retry with g+1 when 2g-f is divisible by N")

    p_scan = sub.add_parser("scan", help="stream semigroups matching a predicate")
    p_scan.add_argument("--genus", required=True,
                        help="a single genus G or an inclusive range LO..HI")
    p_scan.add_argument("--predicate", required=True,
                        help="bc_fail | type:N,GAMMA | symmetric | quasi_symmetric | obstruction")
    p_scan.add_argument("--n", type=_ascii_int, default=2, help="sum length for bc_fail")
    p_scan.add_argument("--parallelism", type=_ascii_int, default=1)

    p_project = sub.add_parser("project", help="project a type-(N, gamma) semigroup")
    p_project.add_argument("spec")
    p_project.add_argument("--N", type=_ascii_int, required=True)
    p_project.add_argument("--gamma", type=_ascii_int, default=None)
    return parser


def _cmd_info(args) -> list[dict[str, Any]]:
    return [_semigroup_json(parse_semigroup(args.spec))]


def _cmd_classify(args) -> list[dict[str, Any]]:
    H = parse_semigroup(args.spec)
    gamma = args.gamma if args.gamma is not None else natural_gamma(H, args.N)
    v = type_verdict(H, args.N, gamma)
    return [{"N": v.N, "gamma": v.gamma, "cond_a": v.cond_a, "cond_b": v.cond_b,
             "cond_c": v.cond_c, "is_type": v.is_type, "gamma_N": v.gamma_n}]


def _bound_ints(tokens: list[str]) -> list[int]:
    try:
        return [_ascii_int(a) for a in tokens]
    except ValueError:
        raise _UsageError("bound arguments must be integers")


def _cmd_bounds(args) -> list[dict[str, Any]]:
    name = args.name
    if name == "coprime_lower":
        if len(args.args) != 2:
            raise _UsageError("coprime_lower takes a semigroup spec and N")
        H = parse_semigroup(args.args[0])
        n, = _bound_ints(args.args[1:])
        value = bounds_mod.coprime_lower_bound(H, n)
        report = bounds_mod.BoundReport("coprime_lower",
                                        (H.genus, natural_gamma(H, n), n), value,
                                        hypothesis_met=True)
    else:
        report = bounds_mod.evaluate(name, _bound_ints(args.args))
    return [{"name": report.name, "arguments": list(report.arguments),
             "value": report.value, "hypothesis_met": report.hypothesis_met}]


def _cmd_obstruct(args) -> list[dict[str, Any]]:
    H = parse_semigroup(args.spec)
    profile = gap_sum_profile(H, args.n)
    out: dict[str, Any] = {"n": profile.n, "cardinality": profile.cardinality,
                           "bound": profile.bc_bound, "passes_bc": profile.passes_bc,
                           "lambda": profile.excess}
    if args.explain:
        out["extra_sums"] = list(pair_sum_extras(H)) if args.n == 2 else None
    return [out]


def _parse_params(tokens: list[str]) -> dict[str, str]:
    params = {}
    for token in tokens:
        if "=" not in token:
            raise _UsageError(f"params must look like k=v, got {token!r}")
        key, value = token.split("=", 1)
        params[key] = value
    return params


def _int_param(params: dict[str, str], key: str) -> int:
    if key not in params:
        raise _UsageError(f"missing family parameter {key}")
    try:
        return _ascii_int(params[key])
    except ValueError:
        raise _UsageError(f"parameter {key} must be an integer, got {params[key]!r}")


def _cmd_family(args) -> list[dict[str, Any]]:
    params = _parse_params(args.params)
    name = args.name
    if name == "buchweitz":
        a = _int_param(params, "a") if "a" in params else None
        result = families_mod.buchweitz_family(_int_param(params, "g"),
                                               _int_param(params, "i"), a)
    elif name == "cover":
        if "htilde" not in params:
            raise _UsageError("cover needs htilde=<semigroup spec>")
        htilde = parse_semigroup(params["htilde"])
        n = _int_param(params, "N")
        g = _int_param(params, "g")
        f = _int_param(params, "f")
        # N = 0 divides nothing here; cover_family rejects it as not prime
        if args.bump_g and n and (2 * g - f) % n == 0:
            g += 1
        result = families_mod.cover_family(htilde, n, g, f)
    else:  # superelliptic_<name>, looked up on the module when called
        keys = {"sharp": ("N", "gamma", "g"), "extremal": ("N", "gamma"),
                "spurious": ("N", "gamma", "A", "t", "g")}[name]
        result = getattr(families_mod, f"superelliptic_{name}")(
            *[_int_param(params, key) for key in keys])
    H = result.semigroup
    return [{
        "family": result.family,
        "params": result.params,
        "semigroup": format_semigroup(H, args.emit),
        "genus": H.genus,
        "frobenius": H.frobenius,
        "claims": [{"name": c.name, "expected": _jsonable(c.expected),
                    "observed": _jsonable(c.observed), "holds": c.holds}
                   for c in result.claims],
        "diagnostics": {k: _jsonable(v) for k, v in result.diagnostics.items()},
    }]


def _jsonable(value: Any) -> Any:
    if isinstance(value, NumericalSemigroup):
        return format_semigroup(value)
    return value


def _parse_genus_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
    else:
        lo_text = hi_text = text
    if not (text.isascii() and lo_text.isdigit() and hi_text.isdigit()):
        raise _UsageError(f"bad genus range {text!r}")
    lo, hi = int(lo_text), int(hi_text)
    if lo > hi:
        raise _UsageError(f"bad genus range {text!r}")
    return lo, hi


def _predicate_fn(spec: str, n: int):
    if spec.startswith("type:"):
        body = spec[5:].split(",")
        if len(body) != 2:
            raise UnknownPredicate(f"bad type predicate {spec!r}")
        try:
            type_n, type_gamma = _ascii_int(body[0]), _ascii_int(body[1])
        except ValueError:
            raise UnknownPredicate(f"bad type predicate {spec!r}")
        return type_test(type_n, type_gamma)
    if spec == "bc_fail":
        return bc_test(n)
    if spec == "symmetric":
        return lambda H: H.genus >= 1 and H.frobenius == 2 * H.genus - 1
    if spec == "quasi_symmetric":
        return lambda H: H.genus >= 1 and H.frobenius == 2 * H.genus - 2
    if spec == "obstruction":
        return pairing_rules_out
    raise UnknownPredicate(f"unknown predicate {spec!r}")


def _scan_worker(shard: tuple[NumericalSemigroup, int], lo: int, predicate):
    """Scan one shard, a root and the genus its subtree stops at: the count
    of nodes of genus >= lo and the rows of those the predicate accepts."""
    root, hi = shard
    scanned = 0
    rows = []
    for H in descendants(root, hi):
        if H.genus < lo:
            continue
        scanned += 1
        if predicate(H):
            rows.append((H.genus, H.gaps, H.min_generators))
    return scanned, rows


def _pull_shards(tasks: int, shards: list, lo: int, predicate, done: list):
    """Scan each shard whose index is read from the pipe ``tasks`` until it
    runs dry, adding its (index, result) pair to ``done``.  Returns None, or
    the (index, exception) of the shard that raised, which ends the pull."""
    index = -1
    try:
        while record := os.read(tasks, _RECORD):
            index = int.from_bytes(record, "little")
            done.append((index, _scan_worker(shards[index], lo, predicate)))
    except Exception as exc:
        return index, exc
    return None


def _shard_worker(tasks: int, results: int, shards: list, lo: int, predicate) -> int:
    """The body of a forked scan helper: pull shards from ``tasks``, then
    write to ``results`` the pickled (done, failure) of the pull, with no
    pairs if a shard raised, so the helper exits at once.  Returns the exit
    status."""
    done: list = []
    failure = _pull_shards(tasks, shards, lo, predicate, done)
    with open(results, "wb") as out:
        out.write(pickle.dumps(([] if failure else done, failure)))
    return 0


def _pipe(ends: contextlib.ExitStack) -> list:
    """A new pipe's read and write ends as unbuffered files that ``ends`` closes."""
    return [ends.enter_context(open(fd, mode, buffering=0))
            for fd, mode in zip(os.pipe(), ("rb", "wb"))]


def _fork_shards(shards: list, lo: int, predicate, workers: int) -> list:
    """Scan ``shards`` on ``workers`` processes, this one and ``workers - 1``
    forked helpers, and return each shard's (scanned, rows) in shard order.

    Nothing is pickled to a helper: it inherits the shards and the
    predicate, and takes shard indices from one pipe until it is empty.
    The parent writes the indices with its write end non-blocking; an index
    that finds the pipe full it scans itself, so no write waits for a
    reader, and no read waits on a pipe it still holds open.  Once every
    index is handed out it closes the write end and pulls from the pipe as
    a helper does.  If a shard raised, the exception of the first such
    shard is raised here, as the serial scan would raise it: indices go out
    in order, so every lower one was taken.  A helper that dies without a
    result is ``WorkerFailed``.  Every helper is reaped before this returns
    or raises.
    """
    pending: dict[int, Any] = {}  # pid -> the read end of its result pipe
    done: list = []
    try:
        # each pipe end is an unbuffered file, closed once: early where a
        # process must not hold it, else when the stack unwinds
        with contextlib.ExitStack() as ends:
            tasks_r, tasks_w = _pipe(ends)
            for _ in range(workers - 1):
                result_r, result_w = _pipe(ends)
                pid = os.fork()
                if pid == 0:  # the helper leaves only by os._exit
                    status = 70  # EX_SOFTWARE, if the body itself fails
                    try:
                        tasks_w.close()  # else its own reads would never see the end
                        status = _shard_worker(tasks_r.fileno(), result_w.fileno(),
                                               shards, lo, predicate)
                    finally:
                        os._exit(status)
                result_w.close()
                pending[pid] = result_r
            failure = None
            os.set_blocking(tasks_w.fileno(), False)
            for i in range(len(shards)):
                if tasks_w.write(i.to_bytes(_RECORD, "little")) is None:  # pipe full
                    try:
                        done.append((i, _scan_worker(shards[i], lo, predicate)))
                    except Exception as exc:
                        failure = (i, exc)
                        break
            tasks_w.close()
            if failure is None:
                failure = _pull_shards(tasks_r.fileno(), shards, lo, predicate, done)
            failures = [failure] if failure else []
            for pid, result_r in list(pending.items()):
                data = result_r.read()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del pending[pid]
                if not data:
                    raise WorkerFailed(f"scan worker exited with status {status} "
                                       "before sending its result")
                helper_done, helper_failure = pickle.loads(data)
                done += helper_done
                if helper_failure is not None:
                    failures.append(helper_failure)
    finally:
        for pid in pending:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    parts = dict(done)
    return [parts[i] for i in range(len(shards))]


def _cmd_scan(args) -> list[dict[str, Any]]:
    lo, hi = _parse_genus_range(args.genus)
    raw = os.environ.get("SGP_GENUS_CAP", str(DEFAULT_GENUS_CAP))
    try:
        cap = _ascii_int(raw)
    except ValueError:
        raise _UsageError(f"SGP_GENUS_CAP must be an integer, got {raw!r}")
    shards = core_mod._genus_shards(lo, hi, cap)
    if args.parallelism < 1:
        raise _UsageError(f"--parallelism must be at least 1, got {args.parallelism}")
    predicate = _predicate_fn(args.predicate, args.n)  # fails fast on bad parameters
    workers = min(args.parallelism, os.cpu_count() or 1, len(shards))
    if workers > 1 and hasattr(os, "fork"):
        parts = _fork_shards(shards, lo, predicate, workers)
    else:
        parts = [_scan_worker(shard, lo, predicate) for shard in shards]
    scanned = sum(part_scanned for part_scanned, _ in parts)
    rows = sorted(row for _, part_rows in parts for row in part_rows)
    out = [{"genus": genus, **_gap_list(gaps, genus), "min_gens": list(min_gens)}
           for genus, gaps, min_gens in rows]
    out.append({"summary": True, "predicate": args.predicate, "genus": [lo, hi],
                "scanned": scanned, "matched": len(rows)})
    return out


def _cmd_project(args) -> list[dict[str, Any]]:
    H = parse_semigroup(args.spec)
    gamma = args.gamma if args.gamma is not None else natural_gamma(H, args.N)
    return [_semigroup_json(project_by_n(H, args.N, gamma))]


# each verb's handler returns the payloads it prints, in order
_VERBS = {"info": _cmd_info, "classify": _cmd_classify, "bounds": _cmd_bounds,
          "obstruct": _cmd_obstruct, "family": _cmd_family, "scan": _cmd_scan,
          "project": _cmd_project}


def run(argv: list[str]) -> int:
    """Run one command line and return its exit code; safe to call many
    times in one process."""
    try:
        args = _build_parser().parse_args(argv)
        for payload in _VERBS[args.verb](args):
            print(json.dumps(payload) if args.output == "json" else _render_text(payload))
        return EXIT_OK
    except (_UsageError, ValueError, SemigroupError) as exc:
        # domain errors go to stdout with exit 2; usage errors, including
        # an unknown predicate, go to stderr with exit 64
        domain = isinstance(exc, SemigroupError) and not isinstance(exc, UnknownPredicate)
        name = exc.name if isinstance(exc, SemigroupError) else "Usage"
        print(json.dumps({"error": {"name": name, "message": str(exc)}}),
              file=sys.stdout if domain else sys.stderr)
        return EXIT_DOMAIN if domain else EXIT_USAGE


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone, as in `sgp scan ... | head`: the output still
        # buffered goes to /dev/null, so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
