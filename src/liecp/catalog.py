"""Named algebras with expected invariants and batch verification.

Every entry records where its bracket table comes from (classification
sources such as Morozov's 6-dimensional and Seeley's 7-dimensional lists,
or standard named examples) and what is expected of it.  Each expected
value is tagged "literature" when stated by the source and "computed"
when derived here by the exact machinery; verification recomputes
everything and diffs.

Data files for the default parameters are shipped under data/ in the
algebra file format together with expectations.json; both are round-trip
tested against the in-code builders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, Mapping

from .errors import MissingParameter, UnknownEntry
from .exactla import DEFAULT_POLICY, ONE, RankPolicy
from .cp import FORM_KIND, FSR_KIND, is_cp, no_cp_certificate, verify_no_cp_certificate
from .index import index, is_frobenius, is_square_integrable
from .liealg import (
    LieAlgebra,
    center,
    derivation_extend,
    lie_algebra_from_label_table,
    new_lie_algebra,
    semidirect_product,
    serialize_algebra,
)

F = Fraction


@dataclass(frozen=True)
class Expected:
    dim: int
    index: int
    center_dim: int
    square_integrable: bool
    frobenius: bool
    cp_witness: tuple[str, ...] | None = None
    cp_is_ideal: bool = True
    no_cp_kinds: tuple[str, ...] = ()
    note: str | None = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    provenance: str
    defaults: Mapping[str, object]
    build: Callable[..., LieAlgebra]
    expect: Callable[..., Expected]
    tags: Mapping[str, str] = field(default_factory=dict)


def _resolve(entry: CatalogEntry, params: Mapping[str, object]) -> dict:
    merged = dict(entry.defaults)
    for key, value in params.items():
        if key not in entry.defaults:
            raise MissingParameter(f"{entry.name} takes no parameter {key!r}")
        merged[key] = value
    for key, value in merged.items():
        if value is None:
            raise MissingParameter(f"{entry.name} requires parameter {key!r}")
        # a parameter with an integer default is an integer, never truncated
        if isinstance(entry.defaults[key], int):
            value = Fraction(value)
            if value.denominator != 1:
                raise ValueError(f"{entry.name} parameter {key!r} must be an integer, got {value}")
            merged[key] = int(value)
    return merged


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _abelian(n: int) -> LieAlgebra:
    return new_lie_algebra(n, tuple(f"a{i + 1}" for i in range(n)), {})


def _heisenberg(m: int) -> LieAlgebra:
    labels = tuple(f"x{i + 1}" for i in range(m)) + tuple(f"y{i + 1}" for i in range(m)) + ("z",)
    table = {(f"x{i + 1}", f"y{i + 1}"): {"z": 1} for i in range(m)}
    return lie_algebra_from_label_table(labels, table)


def _h3() -> LieAlgebra:
    return lie_algebra_from_label_table(("x", "y", "z"), {("x", "y"): {"z": 1}})


def _nonabelian2d() -> LieAlgebra:
    return lie_algebra_from_label_table(("x", "y"), {("x", "y"): {"y": 1}})


def _id_ext(n: int) -> LieAlgebra:
    base = new_lie_algebra(n, tuple(f"v{i + 1}" for i in range(n)), {})
    return derivation_extend(base, {(i, i): ONE for i in range(n)}, new_label="E")


def _diamond() -> LieAlgebra:
    return lie_algebra_from_label_table(
        ("t", "x", "y", "z"),
        {("t", "x"): {"x": -1}, ("t", "y"): {"y": 1}, ("x", "y"): {"z": 1}},
    )


def _g5() -> LieAlgebra:
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 6)),
        {("x1", "x2"): {"x3": 1}, ("x1", "x3"): {"x4": 1}, ("x2", "x3"): {"x5": 1}},
    )


def _g6() -> LieAlgebra:
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 7)),
        {("x1", "x2"): {"x6": 1}, ("x1", "x3"): {"x4": 1}, ("x2", "x3"): {"x5": 1}},
    )


def _sl2_irr3() -> LieAlgebra:
    g = lie_algebra_from_label_table(
        ("h", "e", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )
    action = [g.ad(g.basis_vector(i)) for i in range(3)]
    return semidirect_product(g, action, 3, v_labels=("w1", "w2", "w3"))


def _h5() -> LieAlgebra:
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 6)),
        {
            ("x1", "x2"): {"x3": 1},
            ("x1", "x3"): {"x4": 1},
            ("x1", "x4"): {"x5": 1},
            ("x2", "x3"): {"x5": 1},
        },
    )


def _j5() -> LieAlgebra:
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 6)),
        {("x1", "x2"): {"x3": 1}, ("x1", "x3"): {"x4": 1}},
    )


_E6 = tuple(f"e{i}" for i in range(1, 7))


def _morozov(table) -> Callable[..., LieAlgebra]:
    def build(**params):
        resolved = {k: F(v) for k, v in params.items()}
        return lie_algebra_from_label_table(_E6, table(**resolved))

    return build


_MOROZOV_TABLES = {
    "morozov6_4": lambda: {("e1", "e2"): {"e5": 1}, ("e1", "e3"): {"e6": 1}, ("e2", "e4"): {"e6": 1}},
    "morozov6_5": lambda gamma: {
        ("e1", "e3"): {"e5": 1},
        ("e1", "e4"): {"e6": 1},
        ("e2", "e4"): {"e5": 1},
        ("e2", "e3"): {"e6": gamma},
    },
    "morozov6_6": lambda: {
        ("e1", "e2"): {"e6": 1},
        ("e1", "e3"): {"e4": 1},
        ("e1", "e4"): {"e5": 1},
        ("e2", "e3"): {"e5": 1},
    },
    "morozov6_7": lambda: {("e1", "e3"): {"e4": 1}, ("e1", "e4"): {"e5": 1}, ("e2", "e3"): {"e6": 1}},
    "morozov6_8": lambda: {
        ("e1", "e2"): {"e3": 1, "e5": 1},
        ("e1", "e3"): {"e4": 1},
        ("e2", "e5"): {"e6": 1},
    },
    "morozov6_9": lambda: {
        ("e1", "e2"): {"e3": 1},
        ("e1", "e3"): {"e4": 1},
        ("e1", "e5"): {"e6": 1},
        ("e2", "e3"): {"e6": 1},
    },
    "morozov6_10": lambda gamma: {
        ("e1", "e2"): {"e3": 1},
        ("e1", "e3"): {"e5": 1},
        ("e1", "e4"): {"e6": 1},
        ("e2", "e4"): {"e5": 1},
        ("e2", "e3"): {"e6": gamma},
    },
    "morozov6_11": lambda: {
        ("e1", "e2"): {"e3": 1},
        ("e1", "e3"): {"e4": 1},
        ("e1", "e4"): {"e5": 1},
        ("e2", "e3"): {"e6": 1},
    },
}

_SEELEY7 = ("a", "b", "c", "d", "e", "f", "g")

_SEELEY_TABLES = {
    "seeley_37b": {("a", "b"): {"e": 1}, ("b", "c"): {"f": 1}, ("c", "d"): {"g": 1}},
    "seeley_37c": {
        ("a", "b"): {"e": 1},
        ("b", "c"): {"f": 1},
        ("c", "d"): {"e": 1},
        ("b", "d"): {"g": 1},
    },
    "seeley_37d": {
        ("a", "b"): {"e": 1},
        ("b", "d"): {"g": 1},
        ("c", "d"): {"e": 1},
        ("a", "c"): {"f": 1},
    },
    "seeley_357a": {
        ("a", "b"): {"c": 1},
        ("a", "c"): {"e": 1},
        ("a", "d"): {"g": 1},
        ("b", "d"): {"f": 1},
    },
    "seeley_357b": {
        ("a", "b"): {"c": 1},
        ("a", "c"): {"e": 1},
        ("a", "d"): {"g": 1},
        ("b", "c"): {"f": 1},
    },
    "seeley_357c": {
        ("a", "b"): {"c": 1},
        ("a", "c"): {"e": 1},
        ("a", "d"): {"g": 1},
        ("b", "c"): {"f": 1},
        ("b", "d"): {"e": 1},
    },
}

_SEELEY_WITNESS = {
    "seeley_37b": ("a", "d", "e", "f", "g"),
    "seeley_37c": ("a", "d", "e", "f", "g"),
    "seeley_37d": ("a", "d", "e", "f", "g"),
    "seeley_357a": ("c", "d", "e", "f", "g"),
    "seeley_357b": ("c", "d", "e", "f", "g"),
    "seeley_357c": ("c", "d", "e", "f", "g"),
}


def _seeley_12457n(xi) -> LieAlgebra:
    xi = F(xi)
    if xi == 0:
        raise ValueError("the family is defined for xi != 0")
    return lie_algebra_from_label_table(
        _SEELEY7,
        {
            ("a", "b"): {"c": 1},
            ("a", "c"): {"d": 1},
            ("a", "d"): {"g": 1},
            ("a", "e"): {"f": 1},
            ("a", "f"): {"g": 1},
            ("b", "c"): {"e": 1},
            ("b", "d"): {"f": 1},
            ("b", "e"): {"g": xi},
            ("b", "f"): {"g": 1},
            ("c", "d"): {"g": 1},
            ("c", "e"): {"g": -1},
        },
    )


def _dixmier_lister() -> LieAlgebra:
    return lie_algebra_from_label_table(
        tuple(f"e{i}" for i in range(1, 9)),
        {
            ("e1", "e2"): {"e5": 1},
            ("e1", "e3"): {"e6": 1},
            ("e1", "e4"): {"e7": 1},
            ("e1", "e5"): {"e8": -1},
            ("e2", "e3"): {"e8": 1},
            ("e2", "e4"): {"e6": 1},
            ("e2", "e6"): {"e7": -1},
            ("e3", "e4"): {"e5": -1},
            ("e3", "e5"): {"e7": -1},
            ("e4", "e6"): {"e8": -1},
        },
    )


def _free_two_step(n: int) -> LieAlgebra:
    if n < 2 or n % 2:
        raise ValueError("defined here for even n >= 2")
    labels = tuple(f"e{i}" for i in range(1, n + 1)) + tuple(
        f"e{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    table = {
        (f"e{i}", f"e{j}"): {f"e{i}{j}": 1}
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return lie_algebra_from_label_table(labels, table)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _morozov_expected(**_):
    return Expected(
        dim=6,
        index=2,
        center_dim=2,
        square_integrable=True,
        frobenius=False,
        cp_witness=("e3", "e4", "e5", "e6"),
    )


def _seeley_expected(name):
    def expect(**_):
        return Expected(
            dim=7,
            index=3,
            center_dim=3,
            square_integrable=True,
            frobenius=False,
            cp_witness=_SEELEY_WITNESS[name],
        )

    return expect


_MOROZOV_TAGS = {"dim": "literature", "index": "literature", "center_dim": "literature",
                 "cp_witness": "literature"}
_SEELEY_TAGS = {"dim": "literature", "index": "literature", "cp_witness": "literature",
                "center_dim": "computed"}


def _registry() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []

    entries.append(
        CatalogEntry(
            "abelian",
            "abelian algebra",
            {"n": 4},
            lambda n: _abelian(n),
            lambda n: Expected(
                dim=n,
                index=n,
                center_dim=n,
                square_integrable=True,
                frobenius=n == 0,
                cp_witness=tuple(f"a{i + 1}" for i in range(n)),
            ),
            {"index": "computed"},
        )
    )
    entries.append(
        CatalogEntry(
            "heisenberg",
            "Heisenberg algebra of dimension 2m+1",
            {"m": 2},
            lambda m: _heisenberg(m),
            lambda m: Expected(
                dim=2 * m + 1,
                index=1,
                center_dim=1,
                square_integrable=True,
                frobenius=False,
                cp_witness=tuple(f"y{i + 1}" for i in range(m)) + ("z",),
            ),
            {"index": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "h3",
            "3-dimensional Heisenberg algebra",
            {},
            lambda: _h3(),
            lambda: Expected(3, 1, 1, True, False, cp_witness=("y", "z")),
            {"index": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "nonabelian2d",
            "2-dimensional nonabelian (affine line) algebra",
            {},
            lambda: _nonabelian2d(),
            lambda: Expected(2, 0, 0, True, True, cp_witness=("x",), cp_is_ideal=False),
            {"index": "literature", "cp_witness": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "id_ext",
            "abelian space extended by the identity derivation",
            {"n": 4},
            lambda n: _id_ext(n),
            lambda n: Expected(
                dim=n + 1,
                index=n - 1,
                center_dim=0,
                square_integrable=n == 1,
                frobenius=n == 1,
                cp_witness=tuple(f"v{i + 1}" for i in range(n)),
            ),
            {"index": "literature", "cp_witness": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "diamond",
            "diamond (oscillator) algebra",
            {},
            lambda: _diamond(),
            lambda: Expected(
                4, 2, 1, False, False, no_cp_kinds=(FORM_KIND, FSR_KIND)
            ),
            {"index": "literature", "no_cp_kinds": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "g5",
            "5-dimensional nilpotent algebra carrying an invariant form",
            {},
            lambda: _g5(),
            lambda: Expected(5, 3, 2, False, False, no_cp_kinds=(FORM_KIND,)),
            {"index": "computed", "no_cp_kinds": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "g6",
            "6-dimensional two-step nilpotent algebra carrying an invariant form",
            {},
            lambda: _g6(),
            lambda: Expected(6, 4, 3, False, False, no_cp_kinds=(FORM_KIND,)),
            {"index": "computed", "no_cp_kinds": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "sl2_irr3",
            "sl2 acting on its 3-dimensional irreducible module",
            {},
            lambda: _sl2_irr3(),
            lambda: Expected(6, 2, 0, False, False, no_cp_kinds=(FORM_KIND,)),
            {"index": "computed", "no_cp_kinds": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "h5",
            "5-dimensional filiform-type algebra with a polarization",
            {},
            lambda: _h5(),
            lambda: Expected(5, 1, 1, True, False, cp_witness=("x3", "x4", "x5")),
            {"index": "computed", "cp_witness": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "j5",
            "5-dimensional degeneration partner with a polarization",
            {},
            lambda: _j5(),
            lambda: Expected(5, 3, 2, False, False, cp_witness=("x2", "x3", "x4", "x5")),
            {"index": "computed", "cp_witness": "literature"},
        )
    )
    for name, table in _MOROZOV_TABLES.items():
        number = name.rsplit("_", 1)[1]
        takes_gamma = name in ("morozov6_5", "morozov6_10")
        entries.append(
            CatalogEntry(
                name,
                f"Morozov 6-dimensional nilpotent classification, item {number}",
                {"gamma": F(1)} if takes_gamma else {},
                _morozov(table),
                _morozov_expected,
                _MOROZOV_TAGS,
            )
        )
    for name in _SEELEY_TABLES:
        label = name.split("_", 1)[1].upper()
        entries.append(
            CatalogEntry(
                name,
                f"Seeley 7-dimensional nilpotent classification, {label}",
                {},
                (lambda table: (lambda: lie_algebra_from_label_table(_SEELEY7, table)))(
                    _SEELEY_TABLES[name]
                ),
                _seeley_expected(name),
                _SEELEY_TAGS,
            )
        )
    entries.append(
        CatalogEntry(
            "seeley_12457n",
            "Seeley classification 1,2,4,5,7_N (one-parameter family)",
            {"xi": F(2)},
            lambda xi: _seeley_12457n(xi),
            # the bracket-matrix rank drops from 6 to 4 at the degenerate
            # parameter, so the index jumps from 1 to 3 exactly where the
            # polarization disappears
            lambda xi: Expected(
                7,
                3 if F(xi) == 1 else 1,
                1,
                F(xi) != 1,
                False,
                cp_witness=None if F(xi) == 1 else ("d", "e", "f", "g"),
                no_cp_kinds=(FSR_KIND,) if F(xi) == 1 else (),
            ),
            {"index": "computed", "cp_witness": "literature", "no_cp_kinds": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "dixmier_lister",
            "Dixmier-Lister characteristically nilpotent algebra",
            {},
            lambda: _dixmier_lister(),
            lambda: Expected(8, 2, 2, True, False, note="no_witness_found"),
            {"index": "literature", "note": "literature"},
        )
    )
    entries.append(
        CatalogEntry(
            "free_two_step",
            "free two-step nilpotent algebra on n generators",
            {"n": 4},
            lambda n: _free_two_step(n),
            lambda n: Expected(
                dim=n * (n + 1) // 2,
                index=n * (n - 1) // 2,
                center_dim=n * (n - 1) // 2,
                square_integrable=True,
                frobenius=False,
                cp_witness=("e2", "e12") if n == 2 else None,
                note=None if n == 2 else "no_witness_found",
            ),
            {"index": "literature", "note": "literature"},
        )
    )
    return {entry.name: entry for entry in entries}


_REGISTRY = _registry()


def entry(name: str) -> CatalogEntry:
    if name not in _REGISTRY:
        raise UnknownEntry(f"unknown catalog entry {name!r}")
    return _REGISTRY[name]


def names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get(name: str, **params) -> LieAlgebra:
    e = entry(name)
    return e.build(**_resolve(e, params))


def expected(name: str, **params) -> Expected:
    e = entry(name)
    return e.expect(**_resolve(e, params))


@dataclass(frozen=True)
class VerifyReport:
    name: str
    params: Mapping[str, object]
    expected: Expected
    observed: Mapping[str, object]
    mismatches: tuple[tuple[str, object, object], ...]
    ok: bool


def verify(name: str, policy: RankPolicy = DEFAULT_POLICY, **params) -> VerifyReport:
    """Recompute every expected invariant and diff against the records."""
    e = entry(name)
    resolved = _resolve(e, params)
    algebra = e.build(**resolved)
    want = e.expect(**resolved)
    observed: dict[str, object] = {
        "dim": algebra.dim,
        "index": index(algebra, policy).index,
        "center_dim": center(algebra).dim,
        "square_integrable": is_square_integrable(algebra, policy),
        "frobenius": is_frobenius(algebra, policy),
    }
    mismatches = []
    for fieldname in ("dim", "index", "center_dim", "square_integrable", "frobenius"):
        if observed[fieldname] != getattr(want, fieldname):
            mismatches.append((fieldname, getattr(want, fieldname), observed[fieldname]))
    if want.cp_witness is not None:
        span = algebra.span_of_labels(want.cp_witness)
        rep = is_cp(algebra, span, policy)
        observed["cp_witness_ok"] = rep.is_cp
        observed["cp_witness_ideal"] = rep.is_ideal
        if not rep.is_cp:
            mismatches.append(("cp_witness", want.cp_witness, "not a CP"))
        elif want.cp_is_ideal and not rep.is_ideal:
            mismatches.append(("cp_is_ideal", True, False))
    for kind in want.no_cp_kinds:
        cert = no_cp_certificate(algebra, policy, kind=kind)
        fired = cert is not None and verify_no_cp_certificate(algebra, cert, policy)
        observed[f"certificate_{kind}"] = fired
        if not fired:
            mismatches.append((f"no_cp_{kind}", "certificate", "absent or unverifiable"))
    return VerifyReport(
        name=name,
        params=resolved,
        expected=want,
        observed=observed,
        mismatches=tuple(mismatches),
        ok=not mismatches,
    )


# ---------------------------------------------------------------------------
# Shipped data files
# ---------------------------------------------------------------------------


def _expected_to_json(e: Expected) -> dict:
    return {
        "dim": e.dim,
        "index": e.index,
        "center_dim": e.center_dim,
        "square_integrable": e.square_integrable,
        "frobenius": e.frobenius,
        "cp_witness": list(e.cp_witness) if e.cp_witness is not None else None,
        "cp_is_ideal": e.cp_is_ideal,
        "no_cp_kinds": list(e.no_cp_kinds),
        "note": e.note,
    }


def write_data_files(directory) -> None:
    """Regenerate the shipped .alg files and expectations.json."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    expectations = {}
    for name in names():
        e = entry(name)
        resolved = _resolve(e, {})
        algebra = e.build(**resolved)
        (directory / f"{name}.alg").write_text(serialize_algebra(algebra, name=name))
        expectations[name] = {
            "params": {k: str(v) for k, v in resolved.items()},
            "provenance": e.provenance,
            "tags": dict(e.tags),
            "expected": _expected_to_json(e.expect(**resolved)),
        }
    (directory / "expectations.json").write_text(
        json.dumps(expectations, indent=2, sort_keys=True) + "\n"
    )


def data_text(filename: str) -> str:
    return resources.files("liecp.data").joinpath(filename).read_text()
