"""Command-line surface with reproducible seeds and machine-readable output.

Exit codes: 0 verified positive / success, 1 verified negative, 2 error or
an unverified answer (printed with its payload).
With --json a single structured object is printed; identical invocations
with identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog as catalog_mod
from .errors import LiecpError
from .exactla import RankPolicy, format_rat
from .constructions import frobenius_associative_report, semidirect_cp_report
from .cp import (
    FORM_KIND,
    FSR_KIND,
    is_cp,
    no_cp_certificate,
    quotient_cp_check,
    search_cp,
    verify_index_chain,
    verify_no_cp_certificate,
)
from .index import frobenius_semiradical, index, nondeg_invariant_form
from .liealg import (
    Functional,
    center,
    parse_action,
    parse_algebra,
    parse_assoc_algebra,
    parse_span,
    parse_vector_expr,
)
from .parabolic import FAMILIES, table1_check, verify_theorem62

SCHEMA = "liecp/1"


def vector_expr(labels, row) -> str:
    """Render a coordinate vector as a label combination like "a - 2*b"."""
    parts = []
    for lb, c in zip(labels, row):
        if c == 0:
            continue
        coeff = "" if abs(c) == 1 else f"{format_rat(abs(c))}*"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{coeff}{lb}")
    return "".join(parts) if parts else "0"


def subspace_exprs(labels, subspace) -> list[str]:
    return [vector_expr(labels, row) for row in subspace.basis]


def _policy(args) -> RankPolicy:
    if args.attempts < 1:  # read only by fsr; 0 would surface as a misleading SamplingExhausted
        raise ValueError("attempts must be >= 1")
    return RankPolicy(
        samples=args.samples, coeff_bound=args.bound, certify=args.certify == "on", seed=args.seed
    )


def _load_algebra(path: str):
    return parse_algebra(Path(path).read_text())


@functools.cache  # built on the first call, then reused by every later main() in the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecp",
        description="Exact invariants and commutative polarizations of Lie algebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument("--bound", type=int, default=10**6, help="sampling bound B")
    common.add_argument("--samples", type=int, default=5, help="rank samples per matrix")
    common.add_argument(
        "--certify",
        choices=("on", "off"),
        default="on",
        help="eliminate when a sample misses the term rank: on a coadjoint slice for the index, "
        "on the whole matrix otherwise (off: sample only)",
    )
    common.add_argument("--attempts", type=int, default=128, help="sampling attempt cap (fsr)")
    common.add_argument("--json", action="store_true", help="emit one JSON object")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", parents=[common], help="index of an algebra file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("center", parents=[common], help="center of an algebra file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_center)

    p = sub.add_parser("fsr", parents=[common], help="span of sampled regular stabilizers")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_fsr)

    p = sub.add_parser(
        "invariant-form", parents=[common], help="test for a nondegenerate invariant form"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_invariant_form)

    p = sub.add_parser("cp-check", parents=[common], help="verify a span as a CP")
    p.add_argument("file")
    p.add_argument("--span", required=True, help="comma-separated label combinations")
    p.set_defaults(handler=_cmd_cp_check)

    p = sub.add_parser("cp-find", parents=[common], help="search for a CP")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_cp_find)

    p = sub.add_parser("certify-no-cp", parents=[common], help="produce a no-CP certificate")
    p.add_argument("file")
    p.add_argument("--kind", choices=("fsr", "form"), default=None)
    p.set_defaults(handler=_cmd_certify_no_cp)

    p = sub.add_parser("chain", parents=[common], help="verify an increasing-index chain")
    p.add_argument("file")
    p.add_argument(
        "--levels", required=True, help="semicolon-separated spans, descending from L"
    )
    p.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("quotient", parents=[common], help="index drop through an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True, help="span of the ideal A")
    p.add_argument("--f", required=True, dest="functional", help="functional, e.g. e7 or e7-e8")
    p.add_argument("--span", default=None, help="optional polarization P containing A")
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("catalog", parents=[common], help="named algebras and verification")
    p.add_argument("action", choices=("list", "verify"))
    p.add_argument("name", nargs="?", default=None)
    p.add_argument(
        "--param", action="append", default=[], metavar="K=V", help="family parameter"
    )
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("parabolic", parents=[common], help="nilradical of a parabolic")
    p.add_argument("--type", required=True, choices=("A", "C"), dest="family")
    p.add_argument("--composition", required=True, help="comma-separated block sizes")
    p.add_argument("--verify", action="store_true", help="run the full verification")
    p.set_defaults(handler=_cmd_parabolic)

    p = sub.add_parser("table1", parents=[common], help="classical Borel data check")
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"), dest="family")
    p.add_argument("--rank", required=True, type=int)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser(
        "frobenius-assoc", parents=[common], help="associative algebra equivalence report"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_frobenius_assoc)

    p = sub.add_parser(
        "semidirect", parents=[common], help="module CP-ideal equivalence report"
    )
    p.add_argument("gfile", help="Lie algebra file")
    p.add_argument("--action", required=True, help="JSON file with dim_v and matrices")
    p.set_defaults(handler=_cmd_semidirect)

    return parser


# ---------------------------------------------------------------------------
# Handlers: each returns (exit_code, payload, human_lines)
# ---------------------------------------------------------------------------


def _cmd_index(args, policy):
    L = _load_algebra(args.file)
    rep = index(L, policy)
    payload = {"dim": L.dim, "index": rep.index, "rank": rep.rank, "certified": rep.certified}
    lines = [f"dim {L.dim}, index {rep.index} (rank {rep.rank}, certified={rep.certified})"]
    return 0, payload, lines


def _cmd_center(args, policy):
    L = _load_algebra(args.file)
    z = center(L)
    payload = {"dim": L.dim, "center_dim": z.dim, "basis": subspace_exprs(L.labels, z)}
    lines = [f"center dimension {z.dim}: {', '.join(payload['basis']) or '0'}"]
    return 0, payload, lines


def _cmd_fsr(args, policy):
    L = _load_algebra(args.file)
    rep = frobenius_semiradical(L, policy, attempts=args.attempts)
    payload = {
        "dim": L.dim,
        "fsr_dim": rep.subspace.dim,
        "basis": subspace_exprs(L.labels, rep.subspace),
        "converged": rep.converged,
        "samples_used": rep.samples_used,
    }
    lines = [
        f"stabilizer span dimension {rep.subspace.dim} "
        f"(converged={rep.converged}, samples={rep.samples_used})",
        ", ".join(payload["basis"]) or "0",
    ]
    return 0, payload, lines


def _cmd_invariant_form(args, policy):
    L = _load_algebra(args.file)
    exists, certified = nondeg_invariant_form(L, policy)
    payload = {"nondegenerate_invariant_form": exists, "certified": certified}
    code = 0 if exists else 1 if certified else 2
    return code, payload, [f"nondegenerate invariant form: {exists} (certified={certified})"]


def _cmd_cp_check(args, policy):
    L = _load_algebra(args.file)
    span = parse_span(L, args.span)
    rep = is_cp(L, span, policy)
    payload = {
        "span_dim": span.dim,
        "is_cp": rep.is_cp,
        "is_ideal": rep.is_ideal,
        "abelian": rep.abelian,
        "subalgebra": rep.subalgebra,
        "condition_dim": rep.condition_dim,
        "condition_rank": rep.condition_rank,
        "index": rep.index,
        "certified": rep.certified,
    }
    lines = [
        f"is_cp={rep.is_cp} (ideal={rep.is_ideal}, abelian={rep.abelian}, "
        f"dim condition={rep.condition_dim}, rank condition={rep.condition_rank})"
    ]
    return (0 if rep.is_cp else 1), payload, lines


def _cmd_cp_find(args, policy):
    L = _load_algebra(args.file)
    found = search_cp(L, policy)
    if found is None:
        return 1, {"found": False}, ["no commutative polarization found"]
    payload = {"found": True, "dim": found.dim, "basis": subspace_exprs(L.labels, found)}
    return 0, payload, [f"found CP of dimension {found.dim}: {', '.join(payload['basis'])}"]


def _cmd_certify_no_cp(args, policy):
    L = _load_algebra(args.file)
    kind = {None: None, "fsr": FSR_KIND, "form": FORM_KIND}[args.kind]
    cert = no_cp_certificate(L, policy, kind=kind)
    if cert is None:
        return 1, {"certificate": None}, ["no certificate found"]
    verified = verify_no_cp_certificate(L, cert, policy)
    payload = {"certificate": cert.kind, "verified": verified}
    if cert.pair is not None:
        payload["pair"] = [vector_expr(L.labels, v) for v in cert.pair]
    if cert.form_point is not None:
        payload["form_point"] = [format_rat(c) for c in cert.form_point]
    lines = [f"certificate {cert.kind} (verified={verified})"]
    return (0 if verified else 2), payload, lines


def _cmd_chain(args, policy):
    L = _load_algebra(args.file)
    levels = [parse_span(L, part) for part in args.levels.split(";") if part.strip()]
    rep = verify_index_chain(L, levels, policy)
    payload = {
        "dims": list(rep.dims),
        "indices": list(rep.indices),
        "steps_ok": rep.steps_ok,
        "final_abelian": rep.final_abelian,
        "cp": rep.cp_report.is_cp if rep.cp_report else None,
        "ok": rep.ok,
    }
    lines = [
        "dims " + " > ".join(map(str, rep.dims)),
        "indices " + " -> ".join(map(str, rep.indices)),
        f"valid chain: {rep.ok}",
    ]
    return (0 if rep.ok else 1), payload, lines


def _cmd_quotient(args, policy):
    L = _load_algebra(args.file)
    a = parse_span(L, args.ideal)
    f = Functional(L.dim, parse_vector_expr(L, args.functional))
    p = None if args.span is None else parse_span(L, args.span)
    rep = quotient_cp_check(L, p, a, f, policy)
    payload = {
        "quotient_dim": rep.quotient_dim,
        "index_parent": rep.index_parent,
        "index_quotient": rep.index_quotient,
        "drop_ok": rep.drop_ok,
    }
    if p is None:
        lines = [f"index {rep.index_parent} -> {rep.index_quotient} through a {a.dim}-dim ideal (ok: {rep.ok})"]
    else:
        payload |= {"cp_in_quotient": rep.cp_in_quotient.is_cp, "ok": rep.ok}
        lines = [
            f"index {rep.index_parent} -> {rep.index_quotient} (drop ok: {rep.drop_ok}), "
            f"projected span is CP: {rep.cp_in_quotient.is_cp}"
        ]
    return (0 if rep.ok else 1), payload, lines


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise LiecpError(f"--param needs K=V, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = Fraction(value)
    return params


def _cmd_catalog(args, policy):
    if args.action == "list":
        items = [
            {"name": name, "provenance": catalog_mod.entry(name).provenance}
            for name in catalog_mod.names()
        ]
        lines = [f"{item['name']:16s} {item['provenance']}" for item in items]
        return 0, {"entries": items}, lines
    params = _parse_params(args.param)
    if params and not args.name:
        raise LiecpError("--param needs a catalog entry name")
    names = [args.name] if args.name else list(catalog_mod.names())
    reports = [catalog_mod.verify(name, policy, **params) for name in names]
    payload = {
        "reports": [
            {
                "name": rep.name,
                "params": {k: str(v) for k, v in rep.params.items()},
                "ok": rep.ok,
                "mismatches": [list(map(str, m)) for m in rep.mismatches],
            }
            for rep in reports
        ]
    }
    lines = [
        f"{rep.name:16s} {'ok' if rep.ok else 'MISMATCH ' + str(rep.mismatches)}"
        for rep in reports
    ]
    ok = all(rep.ok for rep in reports)
    return (0 if ok else 1), payload, lines


def _cmd_parabolic(args, policy):
    parts = tuple(int(p) for p in args.composition.split(","))
    if args.verify:
        rep = verify_theorem62(parts, args.family, policy)
        payload = {
            "family": rep.family,
            "parts": list(rep.parts),
            "dim_n": rep.dim_n,
            "formula_index": rep.formula_index,
            "computed_index": rep.computed_index,
            "certified": rep.certified,
            "cp_ideal": rep.cp.is_cp and rep.cp.is_ideal,
            "perp_equal": rep.perp_equal,
            "f_regular": rep.f_regular,
            "ok": rep.ok,
        }
        lines = [
            f"type {rep.family} {rep.parts}: dim N = {rep.dim_n}, "
            f"i(N) = {rep.computed_index} (formula {rep.formula_index}), "
            f"CP-ideal verified: {rep.ok}"
        ]
        return (0 if rep.ok else 1), payload, lines
    family = FAMILIES[args.family]
    comp = family.composition(parts)
    algebra, _ = family.nilradical(comp)
    formula = family.index_formula(comp)
    rep = index(algebra, policy)
    payload = {
        "family": args.family,
        "parts": list(parts),
        "dim_n": algebra.dim,
        "formula_index": formula,
        "computed_index": rep.index,
        "certified": rep.certified,
    }
    lines = [f"type {args.family} {parts}: dim N = {algebra.dim}, i(N) = {rep.index} (formula {formula})"]
    return 0, payload, lines


def _cmd_table1(args, policy):
    rep = table1_check(args.family, args.rank, policy)
    payload = {
        "family": rep.family,
        "rank": rep.rank,
        "dim_n": rep.dim_n,
        "index_n": rep.index_n,
        "index_b": rep.index_b,
        "sum_rule": rep.sum_rule,
        "cp_expected": rep.cp_expected,
        "cp_found": rep.cp.is_cp if rep.cp else None,
        "half_exceeds_m": rep.half_exceeds_m,
        "certified": rep.certified,
        "ok": rep.ok,
    }
    lines = [
        f"{rep.family}{rep.rank}: dim N = {rep.dim_n}, i(N) = {rep.index_n}, "
        f"i(B) = {rep.index_b}, ok = {rep.ok}"
    ]
    return (0 if rep.ok else 1), payload, lines


def _equivalence_result(rep):
    """Exit 0 when the equivalent conditions all hold, 1 when none does, and 2
    when they disagree (only with --certify off), which verifies nothing."""
    payload = {"conditions": dict(rep.conditions), "consistent": rep.consistent}
    lines = [f"{k}: {v}" for k, v in rep.conditions.items()]
    code = 2 if not rep.consistent else 0 if all(rep.conditions.values()) else 1
    return code, payload, lines


def _cmd_frobenius_assoc(args, policy):
    algebra = parse_assoc_algebra(Path(args.file).read_text())
    return _equivalence_result(frobenius_associative_report(algebra, policy))


def _cmd_semidirect(args, policy):
    g = _load_algebra(args.gfile)
    dim_v, matrices = parse_action(Path(args.action).read_text())
    return _equivalence_result(semidirect_cp_report(g, matrices, dim_v, policy))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    base = {"schema": SCHEMA, "command": args.command, "seed": args.seed}
    try:
        # _policy rejects --attempts, --samples and --bound values that cannot be used
        code, payload, lines = args.handler(args, _policy(args))
    except (LiecpError, OSError, ValueError) as err:
        base["error"] = str(err)
        if args.json:
            print(json.dumps(base, sort_keys=True))
        else:
            print(f"error: {err}", file=sys.stderr)
        return 2
    base["exit"] = code
    base.update(payload)
    if args.json:
        print(json.dumps(base, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
