"""Command-line front end.

Verbs: info, classify, bounds, obstruct, family, scan, project.  Output is JSON
(--output text, before the verb, renders it as key: value lines).  After the
verb, --opt value or --opt=value go anywhere, the last repeat wins, and "-"
then digits is a number; -h/--help prints usage.  Prefixes (--pred) and "--"
are refused.  Exit codes: 0 success, 2 domain/precondition failures
(structured error on stdout), 64 usage errors, 141 when stdout is closed
before the output is written (as a shell reports a process killed by SIGPIPE).
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import sys
from types import SimpleNamespace
from typing import Any

from . import bounds as bounds_mod
from . import core as core_mod
from . import families as families_mod
from .classify import project_by_n, type_test, type_verdict
from .core import (SUMSET_CACHED_LEVELS, NumericalSemigroup, descendants, format_semigroup,
                   natural_gamma, parse_semigroup)
from .errors import PreconditionViolated, SemigroupError, UnknownPredicate, WorkerFailed
from .obstruction import bc_test, gap_sum_profile, pair_sum_extras

GAP_LIST_CAP = 512
EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_SIGPIPE = 141  # 128 + SIGPIPE, what a shell reports for a process it killed
# a scan shard's index on the task pipe; the at most 301 shards of a scan
# take 1,204 bytes, which one page of pipe buffer holds
_RECORD = 4


def _ascii_int(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits, else ValueError: bare
    int() also reads other scripts' digits, '+', '_' and whitespace."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _value(name: str, kind, text: str):
    """``text`` read by a kind of ``_VERBS``; a refusal names ``name``."""
    try:
        if isinstance(kind, tuple) and text not in kind:
            raise ValueError(f"invalid choice {text!r}")
        return text if isinstance(kind, tuple) else [text] if kind is list else kind(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}")


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


def _render_text(payload: dict[str, Any], indent: str = "") -> str:
    """``payload`` as key: value lines; a dict or list of dicts nests under
    its key, with an empty line between the dicts of a list."""
    lines = []
    for key, value in payload.items():
        nested = [value] if isinstance(value, dict) else value
        if isinstance(nested, list) and nested and isinstance(nested[0], dict):
            lines.append(f"{indent}{key}:")
            lines.append("\n\n".join(_render_text(item, indent + "  ") for item in nested))
        else:
            lines.append(f"{indent}{key}: {json.dumps(value)}")
    return "\n".join(lines)


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
        raise ValueError("bound arguments must be integers")


def _cmd_bounds(args) -> list[dict[str, Any]]:
    name = args.name
    if name == "coprime_lower":
        if len(args.args) != 2:
            raise ValueError("coprime_lower takes a semigroup spec and N")
        H = parse_semigroup(args.args[0])
        n, = _bound_ints(args.args[1:])
        if n < 2:
            raise PreconditionViolated(f"coprime_lower needs N >= 2, got {n}")
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


# each family's parameter names, in call order; buchweitz's a is optional
_FAMILY_PARAMS = {"buchweitz": ("g", "i", "a"), "cover": ("htilde", "N", "g", "f"),
                  "sharp": ("N", "gamma", "g"), "extremal": ("N", "gamma"),
                  "spurious": ("N", "gamma", "A", "t", "g")}


def _family_params(name: str, tokens: list[str]) -> list:
    """The ``k=v`` tokens as the family's arguments, in call order; htilde is a spec."""
    params: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"params must look like k=v, got {token!r}")
        key, value = token.split("=", 1)
        if key not in _FAMILY_PARAMS[name]:
            raise ValueError(f"unknown family parameter {key!r}")
        if key in params:
            raise ValueError(f"family parameter {key} given twice")
        params[key] = value
    values = []
    for key in _FAMILY_PARAMS[name]:
        if key in params:
            kind = parse_semigroup if key == "htilde" else _ascii_int
            values.append(_value(f"family parameter {key}", kind, params[key]))
        elif key != "a":
            raise ValueError(f"missing family parameter {key}")
    return values


def _cmd_family(args) -> list[dict[str, Any]]:
    name = args.name
    params = _family_params(name, args.params)
    if name == "cover":
        _, n, g, f = params
        # N = 0 divides nothing here; cover_family rejects it as not prime
        if args.bump_g and n and (2 * g - f) % n == 0:
            params[2] += 1
    # the constructor is looked up on the module when called
    result = getattr(families_mod, f"{name}_family" if name in ("buchweitz", "cover")
                     else f"superelliptic_{name}")(*params)
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
        raise ValueError(f"bad genus range {text!r}")
    lo, hi = int(lo_text), int(hi_text)
    if lo > hi:
        raise ValueError(f"bad genus range {text!r}")
    return lo, hi


def _predicate_fn(spec: str, n: int):
    """The scan predicate ``spec`` names, and the gap sumset levels it reads."""
    if spec.startswith("type:"):
        body = spec[5:].split(",")
        if len(body) != 2:
            raise UnknownPredicate(f"bad type predicate {spec!r}")
        try:
            type_n, type_gamma = _ascii_int(body[0]), _ascii_int(body[1])
        except ValueError:
            raise UnknownPredicate(f"bad type predicate {spec!r}")
        return type_test(type_n, type_gamma), 0
    if spec == "obstruction":  # the pairing obstruction is Buchweitz's count at n = 2
        spec, n = "bc_fail", 2
    if spec == "bc_fail":
        return bc_test(n), min(n, SUMSET_CACHED_LEVELS)
    if spec == "symmetric":
        return (lambda H: H.genus >= 1 and H.frobenius == 2 * H.genus - 1), 0
    if spec == "quasi_symmetric":
        return (lambda H: H.genus >= 1 and H.frobenius == 2 * H.genus - 2), 0
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
    predicate.  Before the first fork the parent writes every shard index
    to one pipe in one write, which the pipe buffer holds, and closes the
    write end; then it and each helper take indices until the pipe is
    empty.  Every index is in the pipe before anyone reads, so each 4-byte
    read takes one whole index.  If a shard raised, the exception of the
    first such shard is raised here, as the serial scan would raise it:
    indices are taken in order, so every lower one was taken.  A helper
    that dies without a result is ``WorkerFailed``.  Every helper is reaped
    before this returns or raises.
    """
    pending: dict[int, Any] = {}  # pid -> the read end of its result pipe
    done: list = []
    try:
        # each pipe end is an unbuffered file, closed once: early where a
        # process must not hold it, else when the stack unwinds
        with contextlib.ExitStack() as ends:
            tasks_r, tasks_w = _pipe(ends)
            tasks_w.write(b"".join(i.to_bytes(_RECORD, "little") for i in range(len(shards))))
            tasks_w.close()
            for _ in range(workers - 1):
                result_r, result_w = _pipe(ends)
                pid = os.fork()
                if pid == 0:  # the helper leaves only by os._exit
                    status = 70  # EX_SOFTWARE, if the body itself fails
                    try:
                        status = _shard_worker(tasks_r.fileno(), result_w.fileno(),
                                               shards, lo, predicate)
                    finally:
                        os._exit(status)
                result_w.close()
                pending[pid] = result_r
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
    # usage errors come before the genus cap, a domain error
    if args.parallelism < 1:
        raise ValueError(f"--parallelism must be at least 1, got {args.parallelism}")
    predicate, levels = _predicate_fn(args.predicate, args.n)  # fails fast on bad parameters
    shards = core_mod._genus_shards(lo, hi, levels)
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


# each verb's handler, which returns the payloads it prints, and its arguments
# {name: (kind, default)}: positionals in order, then --options; ... if required.
# A kind converts, or is a tuple of choices, bool (a flag) or list (a run of values)
_SPEC_N_GAMMA = {"spec": (str, ...), "--N": (_ascii_int, ...), "--gamma": (_ascii_int, None)}
_VERBS = {
    "info": (_cmd_info, {"spec": (str, ...)}),
    "classify": (_cmd_classify, _SPEC_N_GAMMA),
    "bounds": (_cmd_bounds, {"action": (("eval",), ...), "name": (str, ...), "args": (list, [])}),
    "obstruct": (_cmd_obstruct, {"spec": (str, ...), "--n": (_ascii_int, 2),
                                 "--explain": (bool, False)}),
    "family": (_cmd_family, {"name": (tuple(_FAMILY_PARAMS), ...), "--params": (list, []),
                             "--emit": (("gaps", "gens"), "gaps"), "--bump-g": (bool, False)}),
    "scan": (_cmd_scan, {"--genus": (str, ...), "--predicate": (str, ...),
                         "--n": (_ascii_int, 2), "--parallelism": (_ascii_int, 1)}),
    "project": (_cmd_project, _SPEC_N_GAMMA),
}


def _is_option(token: str) -> bool:
    return len(token) > 1 and token[0] == "-" and not token[1:].isdecimal()


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read ``argv``, which holds no -h or --help, in one walk against
    ``_VERBS``: the values by name."""
    values: dict[str, Any] = {"--output": "json"}
    spec = {"verb": (tuple(_VERBS), ...), "--output": (("json", "text"), "json")}
    gather = None  # a list argument's values, which take the positionals that follow
    for token in (tokens := iter(argv)):
        opt, eq, text = token.partition("=")
        name = next((key for key in spec if key[0] != "-" and key not in values), None)
        if not _is_option(token) and gather is not None:
            gather.append(token)
        elif not _is_option(token) and name:
            values[name] = _value(name, spec[name][0], token)
            gather = values[name] if spec[name][0] is list else None
            if name == "verb":
                spec = _VERBS[token][1]
        elif opt not in spec or opt[0] != "-" or (spec[opt][0] is bool and eq):
            raise ValueError(f"unrecognized argument {token!r}")
        else:
            kind, gather = spec[opt][0], None
            if kind is list and not eq:
                values[opt] = gather = []
            elif kind is bool:
                values[opt] = True
            elif not eq and _is_option(text := next(tokens, "--")):
                raise ValueError(f"{opt}: expected one argument")
            else:
                values[opt] = _value(opt, kind, text)
    missing = [key for key, (kind, default) in spec.items()
               if values.setdefault(key, [] if kind is list else default) is ...]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**{key.lstrip("-").replace("-", "_"): v for key, v in values.items()})


def _usage() -> str:
    """The module docstring and each verb's usage line, read from ``_VERBS``."""
    return "\n".join([f"usage: sgp [-h] [--output json|text] VERB ...\n{__doc__ or ''}"] + [
        f"usage: sgp {verb} " + " ".join(key if default is ... else f"[{key}]"
                                         for key, (_, default) in spec.items())
        for verb, (_, spec) in _VERBS.items()])


def run(argv: list[str]) -> int:
    """Run one command line and return its exit code; safe to call many
    times in one process."""
    try:
        if "-h" in argv or "--help" in argv:
            print(_usage())
            return EXIT_OK
        args = _parse(argv)
        payloads = _VERBS[args.verb][0](args)
        if args.output == "json":
            for payload in payloads:
                print(json.dumps(payload))
        else:  # an empty line between payloads
            print(*map(_render_text, payloads), sep="\n\n")
        return EXIT_OK
    except (ValueError, SemigroupError) as exc:
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
