"""Reference answers for the benchmark, independent of ``sgp``.

Semigroups are held as plain Python sets of gaps, with the Apery set
modulo the multiplicity for membership tests and minimal generators.
Nothing here imports ``sgp`` or uses int bitsets, so the benchmark can
check the library's outputs against it.

Closed forms used as cross-checks:

- node counts per genus of the semigroup tree, OEIS A007323;
- ``<a, b>`` with gcd 1 has genus (a-1)(b-1)/2 and Frobenius ab-a-b;
- hyperelliptic ``<2, 2g+1>`` has #G_n = n(g-1)+1.

Regenerate the pinned scan counts with::

    python3 bench/oracle.py --regenerate
"""

from __future__ import annotations

import argparse
import json
import math
from functools import reduce
from pathlib import Path

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"
PINNED_MAX_GENUS = 18

# OEIS A007323: number of numerical semigroups of genus g, g = 0, 1, ...
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
           2857, 4806, 8045, 13467, 22464, 37396, 62194, 103246, 170963,
           282828, 467224)


class Sg:
    """A numerical semigroup given by its gap set (a Python set)."""

    def __init__(self, gaps):
        self.gapset = set(gaps)
        if self.gapset and min(self.gapset) < 1:
            raise ValueError("gaps must be positive")
        self.gaps = sorted(self.gapset)
        self.genus = len(self.gaps)
        self.frobenius = self.gaps[-1] if self.gaps else -1
        self.conductor = self.frobenius + 1
        m = 1
        while m in self.gapset:
            m += 1
        self.multiplicity = m
        # apery[r]: least element congruent to r modulo m
        apery = [0] * m
        for r in range(1, m):
            x = r
            while x in self.gapset:
                x += m
            apery[r] = x
        self.apery = apery

    @classmethod
    def from_generators(cls, gens):
        gens = sorted(set(gens))
        if not gens or gens[0] < 1 or reduce(math.gcd, gens) != 1:
            raise ValueError(f"bad generators {gens}")
        m = gens[0]
        # round-robin shortest paths over residues modulo m
        w = [0] + [None] * (m - 1)
        for g in gens[1:]:
            for start in range(math.gcd(g, m)):
                # walk each cycle of r -> r + g twice so every entry settles
                best = w[start]
                r = start
                for _ in range(2 * (m // math.gcd(g, m))):
                    nr = (r + g) % m
                    if best is not None:
                        cand = best + g
                        if w[nr] is None or cand < w[nr]:
                            w[nr] = cand
                    best = w[nr]
                    r = nr
        return cls(x for r in range(1, m) for x in range(r, w[r], m))

    def __contains__(self, x: int) -> bool:
        return x >= 0 and x not in self.gapset

    def is_closed(self) -> bool:
        """True iff the complement of ``gapset`` is closed under addition."""
        m, w = self.multiplicity, self.apery
        # every residue class is an element from its Apery element on
        for x in self.gaps:
            if x >= w[x % m]:
                return False
        if m * m <= 4_000_000:
            return all(w[r] + w[s] >= w[(r + s) % m]
                       for r in range(1, m) for s in range(r, m))
        # large multiplicity: few elements lie below F, so try their pairs
        ell = self.frobenius
        elems = [x for x in range(m, ell + 1) if x not in self.gapset]
        for i, a in enumerate(elems):
            if 2 * a > ell:
                break
            for b in elems[i:]:
                if a + b > ell:
                    break
                if a + b in self.gapset:
                    return False
        return True

    def element_at(self, i: int) -> int:
        """The i-th smallest element, element_at(0) == 0."""
        below = self.conductor - self.genus  # elements in [0, conductor)
        if i >= below:
            return i + self.genus
        return [x for x in range(self.conductor) if x not in self.gapset][i]

    def min_generators(self) -> list[int]:
        m, w = self.multiplicity, self.apery
        if m == 1:
            return [1]
        gens = [m]
        for r in range(1, m):
            if all(w[r] != w[s] + w[(r - s) % m] for s in range(1, m) if s != r):
                gens.append(w[r])
        return sorted(gens)

    def is_hyperelliptic(self) -> bool:
        return self.multiplicity == 2

    def children(self) -> list["Sg"]:
        """Children in the genus tree: drop a minimal generator above F."""
        return [Sg(self.gapset | {x}) for x in self.min_generators()
                if x > self.frobenius]


def parse_spec(text: str) -> Sg:
    kind, _, body = text.partition(":")
    values = [int(v) for v in body.split(",")] if body else []
    if kind == "gens":
        return Sg.from_generators(values)
    if kind == "gaps":
        return Sg(values)
    raise ValueError(f"bad spec {text[:20]!r}")


def _runs(values: list[int]) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    for v in values:
        if runs and runs[-1][1] == v - 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return runs


def _merge(intervals) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def gap_sumset(S: Sg, n: int) -> list[tuple[int, int]]:
    """G_n, the sums of n gaps with repetition, as disjoint sorted intervals.

    Hyperelliptic gap sets use the closed form: G_n is every integer of
    the parity of n in [n, n(2g-1)], so #G_n = n(g-1)+1.
    """
    if S.is_hyperelliptic():
        top = n * S.frobenius
        return [(x, x) for x in range(n, top + 1, 2)]
    runs = _runs(S.gaps)
    acc = runs
    for _ in range(n - 1):
        acc = _merge((a + s, b + e) for a, b in acc for s, e in runs)
    return acc


def sumset_count(S: Sg, n: int) -> int:
    return sum(hi - lo + 1 for lo, hi in gap_sumset(S, n))


def pair_sum_extras(S: Sg) -> list[int]:
    ell = S.frobenius
    baseline = {ell + gap for gap in S.gaps}
    return [x for lo, hi in gap_sumset(S, 2) for x in range(max(lo, ell + 1), hi + 1)
            if x not in baseline]


def not_weierstrass_sound(S: Sg) -> bool:
    """A not_weierstrass verdict is certified only when #G_2 > 3(g-1)."""
    return S.genus >= 2 and sumset_count(S, 2) > 3 * (S.genus - 1)


def bc_fail(S: Sg, n: int) -> bool:
    return S.genus >= 2 and sumset_count(S, n) > (2 * n - 1) * (S.genus - 1)


def natural_gamma(S: Sg, N: int) -> int:
    return sum(1 for x in S.gaps if x % N == 0)


def type_conditions(S: Sg, N: int, gamma: int) -> tuple[bool, bool, bool]:
    cond_a = sum(1 for k in range(1, 2 * gamma + 1) if k * N in S) == gamma
    cond_b = S.element_at(gamma) == 2 * N * gamma
    cond_c = (2 * gamma + 1) * N in S
    return cond_a, cond_b, cond_c


def project(S: Sg, N: int, gamma: int) -> Sg:
    head = {S.element_at(i) // N for i in range(1, gamma + 1)}
    return Sg(x for x in range(1, 2 * gamma) if x not in head)


def semigroup_json(S: Sg, cap: int = 512) -> dict:
    out = {"genus": S.genus, "frobenius": S.frobenius, "conductor": S.conductor,
           "gaps": S.gaps[:cap]}
    if S.genus > cap:
        out["gaps_truncated"] = True
        out["gaps_omitted"] = S.genus - cap
    out["min_gens"] = S.min_generators()
    return out


# Closed-form bounds, restated from their definitions.
def _rho4(a, u, n, gamma):
    num = (n - u - 1) * ((a - gamma - 1) * (n + u) - 2 * (n * gamma + n - 1))
    if num % 2:
        raise ValueError("rho4 is not an integer here")
    return num // 2 + (2 * n - 1) * (n * gamma + n - 1)


def _castelnuovo(d, r):
    m, eps = divmod(d - 1, r - 1)
    return m * (m - 1) // 2 * (r - 1) + m * eps


BOUNDS = {
    "rho1": lambda a, n, gamma: a * (n - 1) * n // 2 + n * gamma - n + 1,
    "rho2": lambda n, gamma: n * (2 * n - 1) * gamma - (n - 1) * (n + 2),
    "rho3": lambda n, gamma: (2 * n - 1) * (n * gamma + n - 1),
    "rho4": _rho4,
    "rho5": lambda n, gamma: 2 * n * gamma + (n - 1) ** 2,
    "castelnuovo_c": _castelnuovo,
    "compositum": lambda n1, g1, n2, g2: (n1 - 1) * (n2 - 1) + n1 * g1 + n2 * g2,
    "jenkins": lambda m, n: (m - 1) * (n - 1) // 2,
}


def divisor_condition(a: int, n: int, gamma: int) -> bool:
    """No t in [2, aN/(a-gamma)] other than N divides a."""
    limit = (a * n) // (a - gamma)
    return all(a % t for t in range(2, limit + 1) if t != n)


def coprime_lower(S: Sg, N: int) -> int:
    num = 2 * S.genus - 2 * N * natural_gamma(S, N)
    return -(-num // (N - 1)) + 1


def walk_counts(max_genus: int) -> dict:
    """Per-genus counts over the whole tree up to ``max_genus``: nodes,
    symmetric semigroups, and bc_fail at n = 2 and n = 3."""
    sums = (2, 3)
    nodes = [0] * (max_genus + 1)
    symmetric = [0] * (max_genus + 1)
    bc = {n: [0] * (max_genus + 1) for n in sums}
    stack = [Sg(())]
    while stack:
        S = stack.pop()
        g = S.genus
        nodes[g] += 1
        if g >= 1 and S.frobenius == 2 * g - 1:
            symmetric[g] += 1
        for n in sums:
            bc[n][g] += bc_fail(S, n)
        if g < max_genus:
            stack.extend(S.children())
    return {"nodes": nodes, "symmetric": symmetric,
            "bc_fail": {str(n): counts for n, counts in bc.items()}}


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--regenerate", action="store_true",
                        help=f"recompute {PINNED_PATH.name} up to genus {PINNED_MAX_GENUS}")
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate")
    counts = walk_counts(PINNED_MAX_GENUS)
    if tuple(counts["nodes"]) != A007323[:PINNED_MAX_GENUS + 1]:
        raise SystemExit(f"oracle tree disagrees with A007323: {counts['nodes']}")
    counts["max_genus"] = PINNED_MAX_GENUS
    PINNED_PATH.write_text(json.dumps(counts, indent=1) + "\n")
    print(f"wrote {PINNED_PATH}")


if __name__ == "__main__":
    main()
