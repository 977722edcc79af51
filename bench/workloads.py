"""Seeded inputs and the operations of each workload.

An operation is one ``chaineff`` command line plus a check of the JSON it
prints.  Checks compare against ``checks`` (computed apart from the
program) or against properties the method must have; operations that
share a ``group`` must print the same count.  Every round of a workload
runs the same operations on the same inputs.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import checks

# The 7-element posets whose ideal families the tradeoff sweeps.  They are
# fixed rather than drawn from --seed: greedy_cover costs 2-5 s depending on
# the family, which would swamp the run-to-run spread.  famA (18 ideals,
# 21 chains) gets a greedy cover, famB (33 ideals, 198 chains) a random one.
_POSET_SEEDS = {"famA": 7, "famB": 2}

# Paper constants (counterexample poset, tower of 17-cubes, KP baseline).
ALPHA_COUNTEREXAMPLE = 260553
LAMBDA_COUNTEREXAMPLE = 131576429145341435860520294400
KP_ROOT = 3.9271


@dataclass
class Op:
    name: str
    argv: list
    check: object  # doc -> error string or None
    group: tuple | None = None  # (key, field): field must agree across the key
    solve: bool = False  # prints a stats block (peak entries, DP updates)


def _memo(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _tsp(rng, directory, name, n):
    w = [[0 if i == j else rng.randint(1, 1000) for j in range(n)] for i in range(n)]
    text = f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in w)
    return w, _write(directory, name, text)


def _digraph(rng, directory, name, n, p):
    """round(p * n(n-1)) distinct arcs: the count is fixed, since each arc
    costs the DFAS cost oracle time."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = rng.sample(pairs, round(p * len(pairs)))
    text = f"{n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    return arcs, _write(directory, name, text)


def _setsystem_text(n, members):
    lines = [f"{n} {len(members)}"]
    for mask in members:
        lines.append(" ".join(str(v) for v in range(n) if mask >> v & 1) or "-")
    return "\n".join(lines) + "\n"


def _poset_family(seed):
    """Ideal family of a random 7-element poset (each pair u < v w.p. 0.35)."""
    rng = random.Random(seed)
    covers = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.35]
    return checks.down_sets(7, covers)


# ---------------------------------------------------------------------------
# checks of solve documents


def _solve_check(reference, recost, *, witness, peak_limit=None):
    ref = _memo(reference)

    def check(doc):
        if doc["value"] == "inf" or int(doc["value"]) != ref():
            return f"value {doc['value']} != reference {ref()}"
        if witness:
            cost = recost(doc["witness"] or [])
            if cost != ref():
                return f"witness re-costs to {cost}, not {ref()}"
        peak = int(doc["stats"]["peakResidentEntries"])
        if peak_limit is not None and peak > peak_limit:
            return f"peakResidentEntries {peak} > {peak_limit}"
        return None

    return check


def _tsp_op(name, w, path, algo, extra=(), *, witness=True, peak_limit=None):
    return Op(
        name,
        ["solve", "tsp", "--matrix", path, "--algo", algo, *extra],
        _solve_check(
            lambda: checks.tsp_optimum(w),
            lambda wit: checks.tour_cost(w, wit),
            witness=witness,
            peak_limit=peak_limit,
        ),
        solve=True,
    )


def _dfas_op(name, n, arcs, path):
    return Op(
        name,
        ["solve", "dfas", "--graph", path, "--algo", "held-karp"],
        _solve_check(
            lambda: checks.dfas_optimum(n, arcs),
            lambda wit: checks.dfas_cost(n, arcs, wit),
            witness=True,
        ),
        solve=True,
    )


def _tradeoff_limit(n_cities, system_n, system_size):
    """|A|^s * N_pad^d for TSP (degree 2) on N-1 permutation elements."""
    s = math.ceil((n_cities - 1) / system_n)
    return system_size**s * (system_n * s) ** 2


def _gs_limit(n):
    return 8 * n * n * (math.ceil(math.log2(n)) + 1)


# ---------------------------------------------------------------------------
# workloads


def subset_dp(rng, directory):
    """Full-subset DP: Held-Karp on TSP (N=13) and DFAS (n=14)."""
    w, path = _tsp(rng, directory, "tsp13.txt", 13)
    arcs, gpath = _digraph(rng, directory, "dfas14.txt", 14, 0.25)
    return [
        _tsp_op("held-karp tsp N=13", w, path, "held-karp"),
        _dfas_op("held-karp dfas n=14", 14, arcs, gpath),
    ]


def _cover_check(n, members):
    def check(doc):
        perms = [tuple(p) for p in doc["perms"]]
        if not doc["certified"] or int(doc["size"]) != len(perms):
            return "cover not certified or size mismatch"
        if not checks.certify_cover(n, members, perms):
            return "cover does not certify under enumeration of S_n"
        return None

    return check


def tradeoff_sweep(rng, directory):
    """Chain-tradeoff sweeps over towers and ideal families, plus gs."""
    fams = {}
    for name, seed in _POSET_SEEDS.items():
        members = _poset_family(seed)
        fams[name] = (members, _write(directory, name + ".txt", _setsystem_text(7, members)))
    t32, t23, t13 = (checks.tower_members(3, 2), checks.tower_members(2, 3), checks.tower_members(1, 3))
    ops = []

    def tradeoff(label, n_cities, system, system_n, size, strategy="greedy", g=1):
        w, path = _tsp(rng, directory, f"t{len(ops)}.txt", n_cities)
        extra = ["--strategy", strategy, "--g", str(g)]
        if strategy == "random":
            extra += ["--seed", str(rng.randrange(1 << 32))]
        extra += ["--setsystem", system] if system.endswith(".txt") else ["--builtin", system]
        ops.append(
            _tsp_op(
                f"tradeoff {label} {strategy} N={n_cities}",
                w,
                path,
                "tradeoff",
                extra,
                peak_limit=_tradeoff_limit(n_cities, system_n, size),
            )
        )

    tradeoff("tower:3:2", 10, "tower:3:2", 6, len(t32))
    tradeoff("tower:2:3", 7, "tower:2:3", 6, len(t23))
    tradeoff("tower:3:2", 7, "tower:3:2", 6, len(t32), "random")
    tradeoff("tower:2:3", 7, "tower:2:3", 6, len(t23), "random")
    tradeoff("tower:1:3^2", 7, "tower:1:3", 6, len(t13) ** 2, g=2)
    tradeoff("famA", 8, fams["famA"][1], 7, len(fams["famA"][0]))
    tradeoff("famB", 8, fams["famB"][1], 7, len(fams["famB"][0]), "random")
    for n in (10, 11):
        w, path = _tsp(rng, directory, f"gs{n}.txt", n)
        ops.append(_tsp_op(f"gs N={n}", w, path, "gs", witness=False, peak_limit=_gs_limit(n)))
    ops.append(
        Op("cover tower:3:2 greedy", ["cover", "--builtin", "tower:3:2"], _cover_check(6, t32))
    )
    for label, source, n, members in (
        ("tower:2:3", ["--builtin", "tower:2:3"], 6, t23),
        ("famB", ["--setsystem", fams["famB"][1]], 7, fams["famB"][0]),
    ):
        argv = ["cover", *source, "--strategy", "random", "--seed", str(rng.randrange(1 << 32))]
        ops.append(Op(f"cover {label} random", argv, _cover_check(n, members)))
    return ops


def _count_check(expect):
    exp = _memo(expect)

    def check(doc):
        return None if int(doc["value"]) == exp() else f"count {doc['value']} != {exp()}"

    return check


def _verify_check(expect):
    """status PASS and each named check's value equal to the given one."""

    def check(doc):
        if doc["status"] != "PASS":
            return "verify status " + doc["status"]
        got = {c["name"]: c["got"] for c in doc["checks"]}
        for name, ok in expect.items():
            if name not in got or not ok(got[name]):
                return f"verify check {name} = {got.get(name)}"
        return None

    return check


def _offsets(rng, w, extra):
    return sorted({0, w} | set(rng.sample(range(1, w), extra)))


def _circulant(m, offsets):
    return f"circulant:{m}:" + ",".join(map(str, offsets))


def _none(doc):
    return None


def poset_count(rng, directory):
    """Ideal and extension counts, efficiency, bounds and the verifiers."""
    tower_chains = math.factorial(17) ** 2
    theta = math.comb(26, 13) * (2**14 - 1) ** 2
    kp_root = math.exp(math.log(theta) / 26)
    ops = [
        Op(
            "verify counterexample",
            ["verify", "counterexample"],
            _verify_check(
                {
                    "alpha": lambda v: int(v) == ALPHA_COUNTEREXAMPLE,
                    "lambda": lambda v: int(v) == LAMBDA_COUNTEREXAMPLE,
                    "tower_size": lambda v: int(v) == len(checks.tower_members(17, 2)),
                    "tower_chains": lambda v: int(v) == tower_chains,
                    "ratio": lambda v: 0.95 <= float(v) <= 0.97
                    and abs(float(v) - tower_chains / LAMBDA_COUNTEREXAMPLE) < 1e-12,
                }
            ),
        ),
        Op(
            "verify kp-baseline",
            ["verify", "kp-baseline"],
            _verify_check(
                {
                    "alpha": lambda v: int(v) == 2**14 - 1,
                    "theta_root": lambda v: abs(float(v) - KP_ROOT) <= 5e-4
                    and abs(float(v) - kp_root) < 1e-9,
                }
            ),
        ),
    ]
    # Ideal counts on a scaled member of the construction family; both
    # methods cost the same for any offsets with the same m and maximum.
    d25 = _offsets(rng, 12, 3)
    c25 = _circulant(25, d25)
    alpha25 = lambda: checks.bipartite_ideal_count(checks.circulant_neighbours(25, d25), 25)
    for method in ("bipartite-sum", "circulant-transfer"):
        ops.append(
            Op(f"ideals {c25} {method}", ["count", "ideals", "--builtin", c25, "--method", method],
               _count_check(alpha25))
        )
    # Extension counts: every method on m=14, orbit and the default pick on
    # m=18.  Their cost depends on the offsets, so these are fixed.
    c14 = _circulant(14, (0, 1, 3, 5))
    for method in ("ideal-dp", "bipartite-fst", "orbit"):
        ops.append(
            Op(f"extensions {c14} {method}",
               ["count", "extensions", "--builtin", c14, "--method", method],
               _none, group=(c14, "value"))
        )
    d18 = (0, 1, 3, 6)
    c18 = _circulant(18, d18)
    ops.append(
        Op(f"extensions {c18} orbit", ["count", "extensions", "--builtin", c18, "--method", "orbit"],
           _none, group=(c18, "value"))
    )
    alpha18 = _memo(lambda: checks.bipartite_ideal_count(checks.circulant_neighbours(18, d18), 18))

    def efficiency_check(doc):
        alpha, lam = int(doc["alpha"]), int(doc["lambda"])
        if alpha != alpha18():
            return f"alpha {alpha} != {alpha18()}"
        if abs(float(doc["inv_eta"]) / checks.inv_eta(36, alpha, lam) - 1) > 1e-9:
            return f"inv_eta {doc['inv_eta']} disagrees with its counts"
        return None

    ops.append(Op(f"efficiency {c18}", ["efficiency", "--builtin", c18], efficiency_check,
                  group=(c18, "lambda")))
    m = 12
    ideals_mc, ext_mc = checks.matching_complement_counts(m)
    ops.append(Op(f"ideals matchcomp:{m}", ["count", "ideals", "--builtin", f"matchcomp:{m}"],
                  _count_check(lambda: ideals_mc)))
    ops.append(Op(f"extensions matchcomp:{m}", ["count", "extensions", "--builtin", f"matchcomp:{m}"],
                  _count_check(lambda: ext_mc)))

    def improved_check(doc):
        value, aux = float(doc["value"]), doc["auxiliaries"]
        ok = value <= 0.331644 and 1 / value > 3.015 and float(aux["gamma"]) <= 0.3261
        return None if ok else f"improved bound {value}, gamma {aux['gamma']}"

    ops.append(Op("bounds improved", ["bounds", "improved"], improved_check))
    ops.append(Op("bounds reglimit 6", ["bounds", "reglimit", "6"],
                  lambda doc: None if float(doc["value"]) > 3.6 else f"limit {doc['value']} <= 3.6"))
    # The counting commands print no DP counters; this small solve keeps
    # peak_entries and dp_updates defined on every workload.
    arcs, gpath = _digraph(rng, directory, "dfas9.txt", 9, 0.3)
    ops.append(_dfas_op("held-karp dfas n=9", 9, arcs, gpath))
    return ops


WORKLOADS = {
    "subset-dp": subset_dp,
    "tradeoff-sweep": tradeoff_sweep,
    "poset-count": poset_count,
}
