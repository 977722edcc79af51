"""Command-line front end.

Subcommands expose counting, efficiency, chains, covers, the exact
solvers, bound evaluation, and one-shot ``verify`` reproductions of the
headline constants.  Output is a JSON document on stdout with all
counts and reals rendered as decimal strings; exit codes: 0 success,
1 verification mismatch, 2 malformed input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb, factorial

import mpmath

from . import bounds as bounds_mod
from .cover import cover_size_bound, greedy_cover, randomized_cover
from .errors import ChainEffError, ResourceLimit
from .poset import (
    DEFAULT_MEMORY_BUDGET,
    count_ideals,
    count_linear_extensions,
    default_count_methods,
    make_bucket_order,
    make_circulant,
    make_counterexample,
    make_matching_complement,
    poset_efficiency,
    poset_from_text,
)
from .semiring import (
    INF,
    DfasInstance,
    TspInstance,
    dfas_as_permutation_problem,
    tsp_as_permutation_problem,
)
from .setsystem import (
    cartesian_power,
    chain_efficiency,
    count_maximal_chains,
    from_poset_ideals,
    setsystem_from_text,
    tower_of_cubes,
)
from .solver import (
    SolverConfig,
    solve_chain_tradeoff,
    solve_gurevich_shelah,
    solve_held_karp,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ChainEffError(f"cannot read {path}: {exc}") from exc


def _parse_builtin(name: str, memory_budget: int = DEFAULT_MEMORY_BUDGET):
    """Return ('poset', p) or ('setsystem', a) for a builtin name.

    ``ideals:NAME`` is the set system of all ideals of the poset builtin NAME.
    """
    parts = name.split(":")
    kind = parts[0]
    if kind == "ideals":
        inner, poset = _parse_builtin(name[len("ideals:") :], memory_budget)
        if inner != "poset":
            raise ChainEffError(f"builtin {name!r} needs a poset after 'ideals:'")
        return "setsystem", from_poset_ideals(poset, memory_budget)
    try:
        if kind == "circulant":
            m = int(parts[1])
            offsets = [int(x) for x in parts[2].split(",")]
            return "poset", make_circulant(m, offsets)
        if kind == "matchcomp":
            return "poset", make_matching_complement(int(parts[1]))
        if kind == "bucket":
            return "poset", make_bucket_order(int(parts[1]), int(parts[2]))
        if kind == "counterexample":
            return "poset", make_counterexample()
        if kind == "tower":
            return "setsystem", tower_of_cubes(int(parts[1]), int(parts[2]))
    except (IndexError, ValueError) as exc:
        raise ChainEffError(f"malformed builtin name {name!r}") from exc
    raise ChainEffError(f"unknown builtin {name!r}")


def _load_poset(args):
    if getattr(args, "builtin", None):
        kind, obj = _parse_builtin(args.builtin, args.memory_budget)
        if kind != "poset":
            raise ChainEffError(f"builtin {args.builtin!r} is not a poset")
        return obj
    if getattr(args, "poset", None):
        return poset_from_text(_read_file(args.poset))
    raise ChainEffError("a poset is required (--poset FILE or --builtin NAME)")


def _load_setsystem(args):
    if getattr(args, "builtin", None):
        kind, obj = _parse_builtin(args.builtin, args.memory_budget)
        if kind != "setsystem":
            raise ChainEffError(f"builtin {args.builtin!r} is not a set system")
        return obj
    if getattr(args, "setsystem", None):
        return setsystem_from_text(_read_file(args.setsystem))
    raise ChainEffError("a set system is required (--setsystem FILE)")


def _parse_tsp_matrix(text: str) -> TspInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ChainEffError("empty matrix file")
    try:
        n = int(lines[0].split()[0])
        rows = []
        for ln in lines[1 : n + 1]:
            row = [INF if tok == "inf" else int(tok) for tok in ln.split()]
            rows.append(row)
    except (ValueError, IndexError) as exc:
        raise ChainEffError(f"malformed matrix file: {exc}") from exc
    if len(rows) != n:
        raise ChainEffError(f"expected {n} matrix rows, found {len(rows)}")
    return TspInstance.from_matrix(rows)


def _parse_dfas_graph(text: str) -> DfasInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ChainEffError("empty graph file")
    try:
        n, m = (int(x) for x in lines[0].split()[:2])
        arcs = [tuple(int(x) for x in ln.split()) for ln in lines[1 : m + 1]]
    except (ValueError, IndexError) as exc:
        raise ChainEffError(f"malformed graph file: {exc}") from exc
    if len(arcs) != m:
        raise ChainEffError(f"expected {m} arcs, found {len(arcs)}")
    for arc in arcs:
        if len(arc) != 2:
            raise ChainEffError(f"arc line needs two integers, got {len(arc)}")
    return DfasInstance.from_arcs(n, arcs)


def _value_str(v) -> str:
    if v == INF:
        return "inf"
    return str(v)


def _stats_doc(stats) -> dict:
    return {
        "peakResidentEntries": str(stats.peak_resident_entries),
        "sweepPeakEntries": str(stats.sweep_peak_entries),
        "witnessPeakEntries": str(stats.witness_peak_entries),
        "batchResidentEntries": str(stats.batch_resident_entries),
        "totalDpUpdates": str(stats.total_dp_updates),
        "coverProductSize": str(stats.cover_product_size),
        "wallTime": repr(stats.wall_time),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(args) -> int:
    p = _load_poset(args)
    default_ideal, default_ext = default_count_methods(p)
    if args.kind == "ideals":
        method = args.method or default_ideal
        value = count_ideals(p, method, args.memory_budget)
    else:
        method = args.method or default_ext
        value = count_linear_extensions(p, method, args.memory_budget)
    _emit(
        {
            "command": "count",
            "kind": args.kind,
            "n": p.n,
            "value": str(value),
            "provenance": {"algorithm": method, "method": method, "seed": None},
        }
    )
    return EXIT_OK


def _cmd_efficiency(args) -> int:
    if args.builtin:
        kind, obj = _parse_builtin(args.builtin, args.memory_budget)
    elif args.setsystem:
        kind, obj = "setsystem", _load_setsystem(args)
    else:
        kind, obj = "poset", _load_poset(args)
    if kind == "setsystem":
        report = chain_efficiency(obj)
        extra = {"size": str(report.size), "chains": str(report.chains)}
    else:
        report = poset_efficiency(obj, args.memory_budget)
        extra = {"alpha": str(report.size), "lambda": str(report.chains)}
    _emit(
        {
            "command": "efficiency",
            "n": report.n,
            "inv_eta": report.inv_eta,
            **extra,
            "provenance": {"algorithm": report.method, "method": report.method, "seed": None},
        }
    )
    return EXIT_OK


def _cmd_chains(args) -> int:
    a = _load_setsystem(args)
    _emit(
        {
            "command": "chains",
            "n": a.n,
            "size": str(len(a.members)),
            "value": str(count_maximal_chains(a)),
            "provenance": {"algorithm": "chain-dp", "method": "chain-dp", "seed": None},
        }
    )
    return EXIT_OK


def _cmd_cover(args) -> int:
    a = _load_setsystem(args)
    if args.strategy == "greedy":
        cov = greedy_cover(a)
        seed = None
    else:
        cov = randomized_cover(a, args.seed)
        seed = args.seed
    chains = count_maximal_chains(a)
    _emit(
        {
            "command": "cover",
            "n": cov.n,
            "size": str(len(cov.perms)),
            "certified": cov.certified,
            "greedy_bound": bounds_mod._fmt(mpmath.mpf(cover_size_bound(a.n, chains))),
            "perms": [list(p) for p in cov.perms],
            "provenance": {"algorithm": args.strategy, "method": args.strategy, "seed": seed},
        }
    )
    return EXIT_OK


def _solve_common(problem, args, inst=None) -> int:
    if args.algo == "held-karp":
        result = solve_held_karp(problem, args.memory_budget)
    elif args.algo == "gs":
        result = solve_gurevich_shelah(inst, args.memory_budget)
    else:
        a = _load_setsystem(args)
        cfg = SolverConfig(
            set_system=a,
            g=args.g,
            cover_strategy=args.strategy,
            seed=args.seed,
            memory_budget=args.memory_budget,
        )
        result = solve_chain_tradeoff(problem, cfg)
    _emit(
        {
            "command": "solve",
            "value": _value_str(result.value),
            "witness": list(result.witness) if result.witness is not None else None,
            "stats": _stats_doc(result.stats),
            "provenance": {
                "algorithm": args.algo,
                "method": args.algo,
                "seed": args.seed if args.algo == "tradeoff" and args.strategy == "random" else None,
            },
        }
    )
    return EXIT_OK


def _cmd_solve_tsp(args) -> int:
    inst = _parse_tsp_matrix(_read_file(args.matrix))
    problem = tsp_as_permutation_problem(inst)
    return _solve_common(problem, args, inst=inst)


def _cmd_solve_dfas(args) -> int:
    inst = _parse_dfas_graph(_read_file(args.graph))
    problem = dfas_as_permutation_problem(inst)
    return _solve_common(problem, args)


def _cmd_bounds(args) -> int:
    if args.bound == "basic":
        report = bounds_mod.basic_upper_bound(args.n)
    elif args.bound == "improved":
        report = bounds_mod.improved_upper_bound()
    elif args.bound == "regbip":
        report = bounds_mod.regular_bipartite_bounds(args.m, args.d)
    else:
        report = bounds_mod.regular_bipartite_efficiency_limit(args.d)
    _emit(
        {
            "command": "bounds",
            "name": report.name,
            "parameters": report.parameters,
            "value": report.value,
            "auxiliaries": report.auxiliaries,
            "provenance": {"algorithm": report.name, "method": report.name, "seed": None},
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_doc(name: str, checks: list[dict], extra: dict | None = None) -> int:
    passed = all(c["pass"] for c in checks)
    doc = {
        "command": "verify",
        "target": name,
        "status": "PASS" if passed else "FAIL",
        "checks": checks,
        "provenance": {"algorithm": "verify", "method": name, "seed": None},
    }
    if extra:
        doc.update(extra)
    _emit(doc)
    return EXIT_OK if passed else EXIT_MISMATCH


def _check(name: str, got, expect) -> dict:
    return {"name": name, "got": str(got), "expect": str(expect), "pass": got == expect}


def _check_range(name: str, got: float, lo: float, hi: float) -> dict:
    return {
        "name": name,
        "got": repr(got),
        "expect": f"[{lo}, {hi}]",
        "pass": lo <= got <= hi,
    }


def _verify_counterexample(args) -> int:
    p = make_counterexample()
    alpha = count_ideals(p, "lattice", args.memory_budget)
    lam = count_linear_extensions(p, "ideal-dp", args.memory_budget)
    tower = tower_of_cubes(17, 2)
    chains = count_maximal_chains(tower)
    ratio = chains / lam
    checks = [
        _check("alpha", alpha, 260553),
        _check("lambda", lam, 131576429145341435860520294400),
        _check("tower_size", len(tower.members), 262143),
        _check("tower_chains", chains, factorial(17) ** 2),
        _check_range("ratio", ratio, 0.95, 0.97),
    ]
    return _verify_doc("counterexample", checks, {"ratio": repr(ratio)})


def _verify_kp_baseline(args) -> int:
    p = make_bucket_order(13, 2)
    alpha = count_ideals(p, "lattice", args.memory_budget)
    theta = comb(26, 13) * (2**14 - 1) ** 2
    with mpmath.workprec(128):
        root = float(mpmath.power(theta, mpmath.mpf(1) / 26))
    checks = [
        _check("alpha", alpha, 2**14 - 1),
        _check_range("theta_root", root, 3.9271 - 0.0005, 3.9271 + 0.0005),
    ]
    return _verify_doc(
        "kp-baseline", checks, {"theta": str(theta), "theta_root": repr(root)}
    )


def _verify_power_identity(args) -> int:
    from .cover import SplitMix64

    rng = SplitMix64(20240229)
    checks = []
    from .setsystem import SetSystem

    for trial in range(10):
        n = 2 + rng.below(3)
        k = 2 + rng.below(2)
        members = {0, (1 << n) - 1}
        for _ in range(rng.below(1 << n) + 2):
            members.add(rng.below(1 << n))
        a = SetSystem(n, sorted(members))
        power = cartesian_power(a, k)
        lhs = count_maximal_chains(power)
        rhs = (
            count_maximal_chains(a) ** k
            * factorial(k * n)
            // factorial(n) ** k
        )
        checks.append(_check(f"trial_{trial}_n{n}_k{k}", lhs, rhs))
    return _verify_doc("power-identity", checks)


def _verify_construction(args) -> int:
    p = make_circulant(29, (0, 1, 3, 6, 10, 15))
    alpha_sum = count_ideals(p, "bipartite-sum", args.memory_budget)
    alpha_transfer = count_ideals(p, "circulant-transfer", args.memory_budget)
    checks = [
        _check("alpha_bipartite_sum", alpha_sum, 2125130762),
        _check("alpha_circulant_transfer", alpha_transfer, 2125130762),
    ]
    scaled = make_circulant(11, (0, 1, 3))
    lams = {
        m: count_linear_extensions(scaled, m, args.memory_budget)
        for m in ("ideal-dp", "bipartite-fst", "orbit")
    }
    reference = lams["ideal-dp"]
    for method, value in lams.items():
        checks.append(_check(f"scaled_lambda_{method}", value, reference))
    extra = {"scaled_lambda": str(reference)}
    if args.extended:
        lam = count_linear_extensions(p, "orbit", args.memory_budget)
        expect = 5463391192321648360195359004759601753062414786866369527808000000
        checks.append(_check("lambda", lam, expect))
        report = poset_efficiency(p, args.memory_budget, alpha=alpha_sum, lam=lam)
        inv_eta = report.inv_eta_float
        checks.append(_check_range("inv_eta", inv_eta, 3.7492 - 0.0005, 3.7492 + 0.0005))
        extra["lambda"] = str(lam)
        extra["inv_eta"] = report.inv_eta
    return _verify_doc("construction", checks, extra)


_VERIFIERS = {
    "counterexample": _verify_counterexample,
    "kp-baseline": _verify_kp_baseline,
    "power-identity": _verify_power_identity,
    "construction": _verify_construction,
}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chaineff")
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=DEFAULT_MEMORY_BUDGET,
        help="max resident DP entries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count")
    p_count.add_argument("kind", choices=["ideals", "extensions"])
    p_count.add_argument("--poset")
    p_count.add_argument("--builtin")
    p_count.add_argument("--method")
    p_count.set_defaults(func=_cmd_count)

    p_eff = sub.add_parser("efficiency")
    p_eff.add_argument("--poset")
    p_eff.add_argument("--setsystem")
    p_eff.add_argument("--builtin")
    p_eff.set_defaults(func=_cmd_efficiency)

    p_chains = sub.add_parser("chains")
    p_chains.add_argument("--setsystem")
    p_chains.add_argument("--builtin")
    p_chains.set_defaults(func=_cmd_chains)

    p_cover = sub.add_parser("cover")
    p_cover.add_argument("--setsystem")
    p_cover.add_argument("--builtin")
    p_cover.add_argument("--strategy", choices=["greedy", "random"], default="greedy")
    p_cover.add_argument("--seed", type=int, default=0)
    p_cover.set_defaults(func=_cmd_cover)

    p_solve = sub.add_parser("solve")
    solve_sub = p_solve.add_subparsers(dest="problem", required=True)
    p_tsp = solve_sub.add_parser("tsp")
    p_tsp.add_argument("--matrix", required=True)
    p_tsp.add_argument("--algo", choices=["held-karp", "gs", "tradeoff"], required=True)
    p_tsp.set_defaults(func=_cmd_solve_tsp)
    p_dfas = solve_sub.add_parser("dfas")
    p_dfas.add_argument("--graph", required=True)
    p_dfas.add_argument("--algo", choices=["held-karp", "tradeoff"], required=True)
    p_dfas.set_defaults(func=_cmd_solve_dfas)
    for sp in (p_tsp, p_dfas):
        sp.add_argument("--setsystem")
        sp.add_argument("--builtin")
        sp.add_argument("--g", type=int, default=1)
        sp.add_argument("--strategy", choices=["greedy", "random"], default="greedy")
        sp.add_argument("--seed", type=int, default=0)

    p_bounds = sub.add_parser("bounds")
    bounds_sub = p_bounds.add_subparsers(dest="bound", required=True)
    b_basic = bounds_sub.add_parser("basic")
    b_basic.add_argument("n", type=int)
    bounds_sub.add_parser("improved")
    b_regbip = bounds_sub.add_parser("regbip")
    b_regbip.add_argument("m", type=int)
    b_regbip.add_argument("d", type=int)
    b_reglimit = bounds_sub.add_parser("reglimit")
    b_reglimit.add_argument("d", type=int)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("target", choices=sorted(_VERIFIERS))
    p_verify.add_argument("--extended", action="store_true")
    p_verify.set_defaults(func=lambda a: _VERIFIERS[a.target](a))

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        if args.memory_budget < 1:
            raise ChainEffError("--memory-budget must be at least 1 entry")
        return args.func(args)
    except ResourceLimit as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except ChainEffError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
