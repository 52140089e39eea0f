"""Checks every output of a request against the reference in ``oracle.py``.

An output is one emitted JSON line: a scan row, a scan summary or a query
response.  A request that raised or exited with a code other than 0
counts as one failed output.  Failures come in two classes:

- ``wrong``: an output disagrees with the reference on something that
  mathematics fixes (a gap set, a count, a closed form, an exit code).
  Any of these makes the run incorrect.
- ``unsound``: a ``not_weierstrass`` verdict that the reference cannot
  certify, because #G_2 <= 3(g-1).  These are counted against the pass
  ratio but are not pinned: the verdict logic is expected to change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import oracle as O

NOT_WEIERSTRASS = "not_weierstrass"


@dataclass
class Tally:
    outputs: int = 0
    failed: int = 0  # outputs that are wrong or unsound, each counted once
    wrong: int = 0  # failed checks; one output can fail several
    unsound: int = 0
    verdicts: int = 0  # not_weierstrass verdicts seen
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.outputs += other.outputs
        self.failed += other.failed
        self.wrong += other.wrong
        self.unsound += other.unsound
        self.verdicts += other.verdicts
        self.problems += other.problems[:max(0, 5 - len(self.problems))]

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.wrong += 1
            self.problems.append(what)
        return ok

    def verdict(self, S: O.Sg) -> bool:
        self.verdicts += 1
        if O.not_weierstrass_sound(S):
            return True
        self.unsound += 1
        return False


def check(kind: str, argv: list[str], rc, out: str, pinned: dict) -> Tally:
    tally = _check(kind, argv, rc, out, pinned)
    if kind == "scan":
        # each malformed or unsound row fails one check; the rest is the summary
        tally.failed = min(tally.outputs, tally.wrong + tally.unsound)
    else:
        tally.failed = 1 if tally.wrong or tally.unsound else 0
    return tally


def _check(kind: str, argv: list[str], rc, out: str, pinned: dict) -> Tally:
    tally = Tally()
    if rc != 0:
        tally.outputs = 1
        tally.expect(False, f"{argv[:3]} exited {rc!r}")
        return tally
    lines = out.splitlines()
    if kind == "scan":
        _check_scan(tally, argv, lines, pinned)
        return tally
    tally.outputs = 1
    try:
        payload = json.loads(out)
    except ValueError:
        tally.expect(False, f"{argv[:3]} printed non-JSON")
        return tally
    if not tally.expect(len(lines) == 1, f"{argv[:3]} printed {len(lines)} lines"):
        return tally
    expected = _CHECKERS[kind](tally, argv, payload)
    if expected is not None:
        tally.expect(payload == expected, f"{argv[:3]} differs from the reference")
    return tally


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_scan(tally: Tally, argv: list[str], lines: list[str], pinned: dict) -> None:
    lo, hi = map(int, _opt(argv, "--genus").split(".."))
    pred = _opt(argv, "--predicate")
    n = int(_opt(argv, "--n", 2))
    tally.outputs = len(lines)
    rows, summary = [json.loads(x) for x in lines[:-1]], json.loads(lines[-1])
    keys = []
    for row in rows:
        S = O.Sg(row["gaps"])
        keys.append((S.genus, tuple(S.gaps)))
        if not tally.expect(S.is_closed() and row == {"genus": S.genus, "gaps": S.gaps,
                                                        "min_gens": S.min_generators()}
                            and lo <= S.genus <= hi, f"scan row {S.gaps[:8]} malformed"):
            continue
        if pred == "obstruction":
            tally.verdict(S)
        elif pred == "symmetric":
            tally.expect(S.frobenius == 2 * S.genus - 1, f"{S.gaps} is not symmetric")
        elif pred == "bc_fail":
            tally.expect(O.bc_fail(S, n), f"{S.gaps} does not fail bc at n={n}")
        else:
            N, gamma = map(int, pred[5:].split(","))
            tally.expect(all(O.type_conditions(S, N, gamma)), f"{S.gaps} not of {pred}")
    tally.expect(keys == sorted(set(keys)), f"scan {pred} rows not sorted and distinct")
    expected = {"summary": True, "predicate": pred, "genus": [lo, hi],
                "scanned": sum(O.A007323[lo:hi + 1]), "matched": len(rows)}
    if pred == "symmetric":
        expected["matched"] = sum(pinned["symmetric"][lo:hi + 1])
    elif pred == "bc_fail":
        expected["matched"] = sum(pinned["bc_fail"][str(n)][lo:hi + 1])
    tally.expect(summary == expected, f"scan {pred} summary {summary} != {expected}")


def _info(tally, argv, payload):
    return O.semigroup_json(O.parse_spec(argv[1]))


def _classify(tally, argv, payload):
    S = O.parse_spec(argv[1])
    N = int(_opt(argv, "--N"))
    gamma = int(_opt(argv, "--gamma", O.natural_gamma(S, N)))
    a, b, c = O.type_conditions(S, N, gamma)
    return {"N": N, "gamma": gamma, "cond_a": a, "cond_b": b, "cond_c": c,
            "is_type": a and b and c, "gamma_N": O.natural_gamma(S, N)}


def _project(tally, argv, payload):
    S = O.parse_spec(argv[1])
    N = int(_opt(argv, "--N"))
    return O.semigroup_json(O.project(S, N, O.natural_gamma(S, N)))


def _obstruct(tally, argv, payload):
    S = O.parse_spec(argv[1])
    n = int(_opt(argv, "--n", 2))
    card = O.sumset_count(S, n)
    g, ell = S.genus, S.frobenius
    if S.is_hyperelliptic():
        tally.expect(card == n * (g - 1) + 1, "hyperelliptic closed form")
    out = {"n": n, "cardinality": card, "bound": (2 * n - 1) * (g - 1),
           "passes_bc": card <= (2 * n - 1) * (g - 1),
           "lambda": card - (ell - 1) - g if n == 2 and ell <= 2 * g - 2 else None}
    if "--explain" in argv:
        out["extra_sums"] = O.pair_sum_extras(S) if n == 2 else None
    return out


def _bounds(tally, argv, payload):
    name, args = argv[2], argv[3:]
    if name == "coprime_lower":
        S, N = O.parse_spec(args[0]), int(args[1])
        return {"name": name, "arguments": [S.genus, O.natural_gamma(S, N), N],
                "value": O.coprime_lower(S, N), "hypothesis_met": True}
    ints = [int(a) for a in args]
    return {"name": name, "arguments": ints, "value": O.BOUNDS[name](*ints),
            "hypothesis_met": None}


def _family(tally, argv, payload):
    name = argv[1]
    params = dict(p.split("=", 1) for p in argv[argv.index("--params") + 1:])
    S = O.parse_spec(payload["semigroup"])
    tally.expect(S.is_closed(), f"family {name} output is not a semigroup")
    tally.expect(payload["genus"] == S.genus and payload["frobenius"] == S.frobenius,
                 f"family {name} genus/frobenius disagree with its gaps")
    tally.expect(all(c["holds"] and c["expected"] == c["observed"]
                     for c in payload["claims"]), f"family {name} has a failing claim")
    if NOT_WEIERSTRASS in json.dumps(payload["claims"]):
        tally.verdict(S)
    p = {k: v if k == "htilde" else int(v) for k, v in params.items()}
    if name == "buchweitz":
        card = O.sumset_count(S, 2)
        d = payload["diagnostics"]
        tally.expect(S.genus == p["g"] and S.frobenius == 2 * p["g"] - 2 * p["i"] + 1
                     and d["pair_sum_cardinality"] == card
                     and d["pair_sum_bound"] == 3 * (S.genus - 1)
                     and d["fails_pair_sum_bound"] == (card > 3 * (S.genus - 1)),
                     f"buchweitz {params} disagrees with the reference")
    elif name == "cover":
        Ht = O.parse_spec(p["htilde"])
        N, g, f = p["N"], p["g"], p["f"]
        tally.expect(S.genus == g and S.frobenius == 2 * g - f
                     and all(O.type_conditions(S, N, Ht.genus))
                     and O.project(S, N, Ht.genus).gaps == Ht.gaps,
                     f"cover {params} disagrees with the reference")
    elif name == "sharp":
        N, gamma, g = p["N"], p["gamma"], p["g"]
        L = (2 * g - 2 * gamma * N) // (N - 1) + 1
        ref = O.Sg.from_generators([2 * N, L, (2 * gamma + 1) * N])
        tally.expect(S.gaps == ref.gaps and S.genus == g,
                     f"sharp {params} disagrees with the reference")
    elif name == "extremal":
        N, gamma = p["N"], p["gamma"]
        i1 = 2 * N * gamma + 2 * N - 1
        ref = O.Sg.from_generators([2 * N, i1])
        tally.expect(S.gaps == ref.gaps and S.genus == (2 * N - 1) * (i1 - 1) // 2
                     == O.BOUNDS["rho3"](N, gamma) and not all(O.type_conditions(S, N, gamma)),
                     f"extremal {params} disagrees with the reference")
    else:
        N, gamma, A, t, g = p["N"], p["gamma"], p["A"], p["t"], p["g"]
        rt = (A * N // t - A + gamma + 1) * t
        i1 = 2 * g // (rt - 1) + 1
        ref = O.Sg.from_generators([rt, i1])
        tally.expect(S.gaps == ref.gaps and S.genus == (rt - 1) * (i1 - 1) // 2 == g
                     and S.element_at(A - gamma) == A * N
                     and not O.divisor_condition(A, N, gamma),
                     f"spurious {params} disagrees with the reference")
    return None


_CHECKERS = {"info": _info, "classify": _classify, "project": _project,
             "obstruct": _obstruct, "bounds": _bounds, "family": _family}
