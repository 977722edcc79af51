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
from functools import cache
from math import comb, factorial

import mpmath

from . import bounds as bounds_mod
from .cover import _MASK64, SplitMix64, cover_size_bound
from .cover import greedy_cover, randomized_cover  # noqa: F401 (bench/spans.py wraps them here)
from .errors import ChainEffError, ResourceLimit
from .poset import (
    DEFAULT_MEMORY_BUDGET,
    Poset,
    count_by_insertion,
    count_ideals,
    count_linear_extensions,
    default_count_methods,
    int_pair,
    make_bucket_order,
    make_circulant,
    make_counterexample,
    make_matching_complement,
    poset_efficiency,
    poset_from_text,
    read_records,
)
from .semiring import (
    INF,
    DfasInstance,
    TspInstance,
    dfas_as_permutation_problem,
    tsp_as_permutation_problem,
)
from .setsystem import (
    SetSystem,
    cartesian_power,
    chain_efficiency,
    count_maximal_chains,
    from_poset_ideals,
    setsystem_from_text,
    tower_of_cubes,
)
from .solver import build_cover, solve_chain_tradeoff, solve_gurevich_shelah, solve_held_karp

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3


def _emit(command: str, method: str, fields: dict, seed=None, algorithm=None) -> None:
    """Write a command's JSON document: its fields and the provenance block."""
    provenance = {"algorithm": algorithm or method, "method": method, "seed": seed}
    doc = {"command": command, **fields, "provenance": provenance}
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChainEffError(f"cannot read {path}: {exc}") from exc


def _int_list(field: str) -> list[int]:
    return [int(x) for x in field.split(",")]


# kind -> (one parser per ':'-separated field, constructor).  The
# constructors look their builders up when called, so a wrapper swapped into
# this module (as bench/spans.py does with tower_of_cubes) is the one run.
_BUILTINS = {
    "circulant": ((int, _int_list), lambda budget, m, offsets: make_circulant(m, offsets)),
    "matchcomp": ((int,), lambda budget, m: make_matching_complement(m)),
    "bucket": ((int, int), lambda budget, t, k: make_bucket_order(t, k)),
    "counterexample": ((), lambda budget: make_counterexample()),
    "tower": ((int, int), lambda budget, t, k: tower_of_cubes(t, k, budget)),
}


def _parse_builtin(name: str, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> Poset | SetSystem:
    """The Poset or SetSystem a builtin name stands for.

    ``ideals:NAME`` is the set system of all ideals of the poset builtin NAME.
    """
    kind, *fields = name.split(":")
    if kind == "ideals":
        poset = _parse_builtin(name[len("ideals:") :], memory_budget)
        if not isinstance(poset, Poset):
            raise ChainEffError(f"builtin {name!r} needs a poset after 'ideals:'")
        return from_poset_ideals(poset, memory_budget)
    if kind not in _BUILTINS:
        raise ChainEffError(f"unknown builtin {name!r}")
    parsers, build = _BUILTINS[kind]
    try:  # a field too many or too few is a ValueError from zip too
        values = [parse(field) for parse, field in zip(parsers, fields, strict=True)]
    except ValueError as exc:
        raise ChainEffError(f"malformed builtin name {name!r}") from exc
    return build(memory_budget, *values)


# input class -> (its file option, its noun, its reader)
_INPUTS = {
    Poset: ("poset", "a poset", lambda text: poset_from_text(text)),
    SetSystem: ("setsystem", "a set system", lambda text: setsystem_from_text(text)),
}


def _load(args, *classes):
    """The --builtin object, which must be one of ``classes``, or else the
    file of the first class whose option is given, read by its reader.
    With neither, the error names the last class's option."""
    if args.builtin:
        obj = _parse_builtin(args.builtin, args.memory_budget)
        if not isinstance(obj, classes):
            raise ChainEffError(f"builtin {args.builtin!r} is not {_INPUTS[classes[0]][1]}")
        return obj
    for cls in classes:
        option, noun, read = _INPUTS[cls]
        path = getattr(args, option)
        if path:
            return read(_read_file(path))
    raise ChainEffError(f"{noun} is required (--{option} FILE or --builtin NAME)")


def _parse_tsp_matrix(text: str) -> TspInstance:
    _, rows = read_records(
        text, "matrix", 1, lambda tokens: [INF if tok == "inf" else int(tok) for tok in tokens]
    )
    return TspInstance.from_matrix(rows)


def _parse_dfas_graph(text: str) -> DfasInstance:
    (n, _), arcs = read_records(text, "graph", 2, int_pair)
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
    p = _load(args, Poset)
    default_ideal, default_ext = default_count_methods(p)
    if args.kind == "ideals":
        method = args.method or default_ideal
        value = count_ideals(p, method, args.memory_budget)
    else:
        method = args.method or default_ext
        value = count_linear_extensions(p, method, args.memory_budget)
    _emit("count", method, {"kind": args.kind, "n": p.n, "value": str(value)})
    return EXIT_OK


def _cmd_efficiency(args) -> int:
    obj = _load(args, SetSystem, Poset)
    if isinstance(obj, SetSystem):
        report = chain_efficiency(obj)
        extra = {"size": str(report.size), "chains": str(report.chains)}
    else:
        report = poset_efficiency(obj, args.memory_budget)
        extra = {"alpha": str(report.size), "lambda": str(report.chains)}
    _emit("efficiency", report.method, {"n": report.n, "inv_eta": report.inv_eta, **extra})
    return EXIT_OK


def _cmd_chains(args) -> int:
    a = _load(args, SetSystem)
    fields = {"n": a.n, "size": str(len(a)), "value": str(count_maximal_chains(a))}
    _emit("chains", "chain-dp", fields)
    return EXIT_OK


def _cmd_cover(args) -> int:
    a = _load(args, SetSystem)
    cov = build_cover(a, args.strategy, args.seed)
    chains = count_maximal_chains(a)
    fields = {
        "n": cov.n,
        "size": str(len(cov.perms)),
        "certified": cov.certified,
        "greedy_bound": bounds_mod._fmt(mpmath.mpf(cover_size_bound(a.n, chains))),
        "perms": [list(p) for p in cov.perms],
    }
    _emit("cover", args.strategy, fields, args.seed if args.strategy == "random" else None)
    return EXIT_OK


def _solve_common(problem, args, inst=None) -> int:
    if args.algo == "held-karp":
        result = solve_held_karp(problem, args.memory_budget)
    elif args.algo == "gs":
        result = solve_gurevich_shelah(inst, args.memory_budget)
    else:
        result = solve_chain_tradeoff(
            problem, _load(args, SetSystem), args.g, args.strategy, args.seed, args.memory_budget
        )
    fields = {
        "value": _value_str(result.value),
        "witness": list(result.witness) if result.witness is not None else None,
        "stats": _stats_doc(result.stats),
    }
    seeded = args.algo == "tradeoff" and args.strategy == "random"
    _emit("solve", args.algo, fields, args.seed if seeded else None)
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
    fields = {
        "name": report.name,
        "parameters": report.parameters,
        "value": report.value,
        "auxiliaries": report.auxiliaries,
    }
    _emit("bounds", report.name, fields)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_doc(name: str, checks: list[dict], extra: dict | None = None) -> int:
    passed = all(c["pass"] for c in checks)
    fields = {"target": name, "status": "PASS" if passed else "FAIL", "checks": checks}
    _emit("verify", name, {**fields, **(extra or {})}, algorithm="verify")
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
    alpha, lam = count_by_insertion(p, args.memory_budget)
    tower = tower_of_cubes(17, 2, args.memory_budget)
    chains = count_maximal_chains(tower)
    ratio = chains / lam
    checks = [
        _check("alpha", alpha, 260553),
        _check("lambda", lam, 131576429145341435860520294400),
        _check("tower_size", len(tower), 262143),
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
    rng = SplitMix64(20240229)
    checks = []
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


def _seed(text: str) -> int:
    """A ``--seed``: the SplitMix64 state, an integer in 0..2^64 - 1, so that
    the provenance prints the seed the draws come from."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed <= _MASK64:
        raise argparse.ArgumentTypeError(f"must be an integer in 0..2^64 - 1, not {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line; subparsers are built from this class."""

    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_BAD_INPUT)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``run`` and reused by later ones.  No
    default is mutable and each ``func`` is a command function that looks
    its library names up at call time, so reuse carries nothing between
    calls."""
    parser = _Parser(prog="chaineff")
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
    p_cover.add_argument("--seed", type=_seed, default=0)
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
        sp.add_argument("--seed", type=_seed, default=0)

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
    except (ResourceLimit, MemoryError) as exc:
        sys.stderr.write(f"resource limit: {str(exc) or 'out of memory'}\n")
        return EXIT_RESOURCE
    except ChainEffError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
