"""Seeded request lists for the three benchmark workloads.

A request is ``(kind, argv)``: ``argv`` goes to ``sgp.cli.run`` unchanged
and ``kind`` tells the verifier which reference to use.  Generation uses
only ``random.Random(seed)`` and the reference in ``oracle.py``; ``sgp``
sees nothing but the argv lists.

Why the workloads look the way they do:

- ``tree_scan``: serial scans over one genus range.  Nearly all the time
  is the genus-tree walk plus a predicate on tiny conductors, so this is
  where a faster walk shows and where a big-conductor rewrite could
  regress.
- ``tree_scan_par2``: the same scans at ``--parallelism 2``, the only
  workload on which the process-pool sharding does work.
- ``query_mix``: a closed loop (one client, next request after the
  previous returns) of single-semigroup CLI calls with conductors drawn
  log-uniformly from about 10 to about 1e5, so per-request fixed cost sets
  the median and quadratic big-conductor work sets the tail.  Draws are
  stratified per verb (one draw per equal-width slice of log-conductor)
  and the parameters that set a request's cost (spec shape, multiplicity,
  N, n) are fixed by the slice, so every seed gets the same spread of
  sizes; the seed moves conductors within their slices, the remaining
  parameters and the request order.
"""

from __future__ import annotations

import math
import random

import oracle as O

WORKLOADS = ("tree_scan", "tree_scan_par2", "query_mix")
SCAN_GENUS = (12, 17)
SCAN_PARALLELISM = {"tree_scan": 1, "tree_scan_par2": 2}
TYPE_PREDICATES = ((2, 1), (5, 2), (7, 2), (11, 1))
MAX_CONDUCTOR = 100_000
# obstruct sizes are bounded by n * conductor, the sumset width
HYPER_SUMSET_WIDTH = 100_000
GENERAL_SUMSET_WIDTH = 5_000
BUCHWEITZ_MAX_GENUS = 20_000
SMALL_SEMIGROUPS = ((2, 3), (2, 5), (3, 4, 5), (3, 5, 7), (2, 7), (3, 4))


def make_requests(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload in SCAN_PARALLELISM:
        return _scan_requests(rng, SCAN_PARALLELISM[workload])
    if workload == "query_mix":
        return _query_mix(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _scan_requests(rng: random.Random, parallelism: int) -> list[tuple[str, list[str]]]:
    lo, hi = SCAN_GENUS
    N, gamma = rng.choice(TYPE_PREDICATES)
    predicates = [["symmetric"], ["bc_fail", "--n", "2"], ["bc_fail", "--n", "3"],
                  ["obstruction"], [f"type:{N},{gamma}"]]
    rng.shuffle(predicates)
    return [("scan", ["scan", "--genus", f"{lo}..{hi}", "--predicate", *p,
                      "--parallelism", str(parallelism)]) for p in predicates]


def _strata(rng: random.Random, k: int, lo: float, hi: float, at: float) -> list[float]:
    """One draw from each of k equal slices of log [lo, hi], within a tenth
    of a slice of the point ``at`` (0 < at < 1) of the slice.

    Cost grows with the square of the conductor, so a draw anywhere in the
    top slice would swing a round's time by 2x from seed to seed; keeping
    draws near one point of each slice gives every seed the same size
    profile.  Each verb uses its own ``at``, so that the verbs' largest
    requests interleave instead of forming clusters with gaps between
    them, where the p90 would jump from one cluster to the next.
    """
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (i + at + 0.2 * (rng.random() - 0.5)) / k * (b - a))
            for i in range(k)]


def _spec(gens: list[int], form: str) -> str:
    if form == "gens":
        return "gens:" + ",".join(map(str, gens))
    return "gaps:" + ",".join(map(str, O.Sg.from_generators(gens).gaps))


def _two_generator(i: int, conductor: float) -> list[int]:
    c = max(10, int(conductor))
    a = min(3 + i % 5, max(3, math.isqrt(c)))
    b = max(a + 1, c // (a - 1) + 1)
    while math.gcd(a, b) != 1:
        b += 1
    return [a, b]


def _hyperelliptic(conductor: float) -> list[int]:
    g = max(2, int(conductor) // 2)
    return [2, 2 * g + 1]


def _scaled(i: int, conductor: float):
    """N*Ht plus everything from T on: type (N, genus(Ht)) by construction.

    Returns (gens, N).  The conductor is T because T-1 is not a multiple
    of N.
    """
    N = (2, 3, 5)[i % 3]
    tilde = SMALL_SEMIGROUPS[i % len(SMALL_SEMIGROUPS)]
    Ht = O.Sg.from_generators(tilde)
    T = max(int(conductor), 2 * N * Ht.genus + 2, N * tilde[-1] + 2)
    while (T - 1) % N == 0:
        T += 1
    window = [x for x in range(T, T + N * Ht.multiplicity) if x % N]
    return [N * x for x in tilde] + window, N


def _shaped(i: int, conductor: float) -> tuple[str, int]:
    """A spec whose shape, parameters and text form are fixed by the
    stratum index i, so that the seed moves only the conductor within its
    slice.  Returns the spec and a prime for verbs that take --N: the
    scaling prime for scaled shapes.
    """
    shape, form = divmod(i % 6, 2)
    form = ("gens", "gaps")[form]
    if shape == 0:
        gens, N = _two_generator(i, conductor), (2, 3, 5, 7)[i % 4]
    elif shape == 1:
        gens, N = _hyperelliptic(conductor), (2, 3, 5, 7)[i % 4]
    else:
        gens, N = _scaled(i, conductor)
    return _spec(gens, form), N


def _query_mix(rng: random.Random) -> list[tuple[str, list[str]]]:
    reqs: list[tuple[str, list[str]]] = []
    for i, c in enumerate(_strata(rng, 48, 10, MAX_CONDUCTOR, 0.5)):
        reqs.append(("info", ["info", _shaped(i, c)[0]]))
    for i, c in enumerate(_strata(rng, 40, 10, MAX_CONDUCTOR, 0.25)):
        spec, N = _shaped(i, c)
        argv = ["classify", spec, "--N", str(N)]
        if rng.random() < 0.5:
            argv += ["--gamma", str(rng.randint(0, 6))]
        reqs.append(("classify", argv))
    for i, c in enumerate(_strata(rng, 24, 10, MAX_CONDUCTOR, 0.75)):
        gens, N = _scaled(i, c)
        reqs.append(("project", ["project", _spec(gens, ("gens", "gaps")[i // 3 % 2]),
                                 "--N", str(N)]))
    reqs += _obstruct_requests(rng)
    reqs += _bounds_requests(rng)
    reqs += _family_requests(rng)
    rng.shuffle(reqs)
    return reqs


def _obstruct_requests(rng: random.Random) -> list[tuple[str, list[str]]]:
    reqs = []
    for width_cap, hyper, at in ((HYPER_SUMSET_WIDTH, True, 0.35),
                                 (GENERAL_SUMSET_WIDTH, False, 0.65)):
        for i, width in enumerate(_strata(rng, 24, 40, width_cap, at)):
            n = min((2, 3, 5, 8, 12, 20)[i % 6], max(2, int(width) // 10))
            c = width / n
            if hyper:
                gens = _hyperelliptic(c)
            elif i % 2:
                gens = _two_generator(i, c)
            else:
                gens = _scaled(i, c)[0]
            argv = ["obstruct", _spec(gens, ("gens", "gaps")[(i // 2) % 2]),
                    "--n", str(n)]
            if i % 3 == 0:
                argv.append("--explain")
            reqs.append(("obstruct", argv))
    return reqs


def _bound_args(rng: random.Random, name: str) -> list[int]:
    r = rng.randint
    if name == "rho1":
        return [r(1, 60), r(2, 13), r(0, 40)]
    if name in ("rho2", "rho3", "rho5"):
        return [r(2, 13), r(0, 200)]
    if name == "rho4":
        while True:
            args = [r(5, 60), r(0, 3), r(5, 13), r(0, 3)]
            try:
                O.BOUNDS["rho4"](*args)
                return args
            except ValueError:
                continue
    if name == "castelnuovo_c":
        return [r(1, 500), r(2, 12)]
    if name == "compositum":
        return [r(2, 13), r(0, 100), r(2, 13), r(0, 100)]
    while True:  # jenkins: coprime 0 < m < n
        m, n = r(2, 200), r(3, 400)
        if m < n and math.gcd(m, n) == 1:
            return [m, n]


def _bounds_requests(rng: random.Random) -> list[tuple[str, list[str]]]:
    names = sorted(O.BOUNDS)
    reqs = []
    for i in range(24):
        name = names[i % len(names)]
        reqs.append(("bounds", ["bounds", "eval", name,
                                *map(str, _bound_args(rng, name))]))
    for i, c in enumerate(_strata(rng, 8, 10, MAX_CONDUCTOR, 0.15)):
        spec, N = _shaped(i, c)
        reqs.append(("bounds", ["bounds", "eval", "coprime_lower", spec, str(N)]))
    return reqs


def _family_requests(rng: random.Random) -> list[tuple[str, list[str]]]:
    """Family parameters that set the cost (shape, N) are fixed by the
    stratum index k, like the specs; the seed moves g within its slice."""
    reqs = []
    half = MAX_CONDUCTOR // 2  # family conductors are about 2g
    # buchweitz also sums its gaps pairwise, so it stops at a smaller genus
    for k, g in enumerate(_strata(rng, 12, 40, BUCHWEITZ_MAX_GENUS, 0.85)):
        i = (4, 5, 6)[k % 3]
        g = max(int(g), 9 * i - 20)
        if (3 * g + 5 * i - 20) % 2:
            g += 1
        reqs.append(("family", ["family", "buchweitz", "--params", f"g={g}", f"i={i}"]))
    for k, g in enumerate(_strata(rng, 12, 40, half, 0.45)):
        tilde = SMALL_SEMIGROUPS[k % len(SMALL_SEMIGROUPS)]
        Ht = O.Sg.from_generators(tilde)
        N = (2, 3)[k % 2]
        g = max(int(g), (2 * N - 1) * (N * Ht.genus + N - 1) + 1)
        while True:
            # f = 1 when N | g: cover_family fails its own branch claim at
            # N = 3, g = 0 (mod 3), f = 2, and no request here may fail
            u = g % N
            f = rng.randint(1, u) if u else 1
            if (2 * g - f) % N:
                break
            g += 1
        htilde = "htilde=gens:" + ",".join(map(str, tilde))
        reqs.append(("family", ["family", "cover", "--params", htilde,
                                f"N={N}", f"g={g}", f"f={f}"]))
    for k, g in enumerate(_strata(rng, 8, 20, half, 0.55)):
        reqs.append(("family", ["family", "sharp", "--params",
                                *_sharp_params((2, 3, 5)[k % 3], k, int(g))]))
    for k, g in enumerate(_strata(rng, 8, 10, half, 0.2)):
        N = (2, 3, 5, 7)[k % 4]
        gamma = max(0, int((g / (2 * N - 1) - N + 1) / N))
        reqs.append(("family", ["family", "extremal", "--params",
                                f"N={N}", f"gamma={gamma}"]))
    for k, g in enumerate(_strata(rng, 8, 100, half, 0.8)):
        reqs.append(("family", ["family", "spurious", "--params",
                                *_spurious_params(SPURIOUS_BASES[k % len(SPURIOUS_BASES)],
                                                  int(g))]))
    return reqs


def _sharp_params(N: int, gamma: int, g: int) -> list[str]:
    """First g' > g whose sharp semigroup for (N, gamma) has genus g'."""
    while True:
        g += 1
        if (g - N * gamma) % (N - 1):
            continue
        L = (2 * g - 2 * gamma * N) // (N - 1) + 1
        if math.gcd(L, 2 * N) != 1 or (g - (2 * N - 1) * gamma) // (N - 1) < 1:
            continue
        S = O.Sg.from_generators([2 * N, L, (2 * gamma + 1) * N])
        if S.genus == g and O.natural_gamma(S, N) == gamma:
            return [f"N={N}", f"gamma={gamma}", f"g={g}"]


def _spurious_bases() -> list[tuple[int, int, int, int, int]]:
    """(N, gamma, A, t, rt) for which <rt, i1> has element A-gamma equal to
    A*N while the divisor condition fails at A, once i1 is large."""
    bases = []
    for N in (3, 5):
        for gamma in range(3):
            for A in range(2 * gamma + 1, 13):
                for t in range(2, 2 * N):
                    if t == N or A % t:
                        continue
                    rt = (A * N // t - A + gamma + 1) * t
                    if rt >= 2 and (A - gamma) * rt == A * N \
                            and not O.divisor_condition(A, N, gamma):
                        bases.append((N, gamma, A, t, rt))
    return bases


SPURIOUS_BASES = _spurious_bases()


def _spurious_params(base: tuple[int, int, int, int, int], g_floor: int) -> list[str]:
    """The first valid genus at or above g_floor for a spurious base."""
    N, gamma, A, t, rt = base
    g = max(g_floor, A * N * (A * (N - 2) + 2 * gamma + 3) // 2 + 1,
            A * (N - 1) * (N - 2) + (3 * N - 2) * gamma + 3 * (N - 1) + 1)
    step = (rt - 1) // math.gcd(2, rt - 1)
    g = -(-g // step) * step
    while True:
        i1 = 2 * g // (rt - 1) + 1
        if math.gcd(rt, i1) == 1 and (A - gamma) * rt < i1:
            S = O.Sg.from_generators([rt, i1])
            if S.element_at(A - gamma) == A * N and not all(
                    O.type_conditions(S, N, gamma)):
                return [f"N={N}", f"gamma={gamma}", f"A={A}", f"t={t}", f"g={g}"]
        g += step
