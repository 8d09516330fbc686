"""Catalog entries, expectations, and shipped data files."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from liecp.errors import MissingParameter, UnknownEntry
from liecp.exactla import RankPolicy
from liecp.liealg import parse_algebra
from liecp.index import index
from liecp.cp import is_cp, search_cp, no_cp_certificate
from liecp import catalog

F = Fraction
P = RankPolicy()


class TestRegistry:
    def test_roster(self):
        expected_names = {
            "abelian",
            "heisenberg",
            "h3",
            "nonabelian2d",
            "id_ext",
            "diamond",
            "g5",
            "g6",
            "sl2_irr3",
            "h5",
            "j5",
            "dixmier_lister",
            "free_two_step",
            "seeley_12457n",
        }
        expected_names |= {f"morozov6_{k}" for k in range(4, 12)}
        expected_names |= {
            "seeley_37b",
            "seeley_37c",
            "seeley_37d",
            "seeley_357a",
            "seeley_357b",
            "seeley_357c",
        }
        assert set(catalog.names()) == expected_names

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntry):
            catalog.get("nope")

    def test_unknown_parameter(self):
        with pytest.raises(MissingParameter):
            catalog.get("diamond", xi=2)

    def test_family_parameters(self):
        l1 = catalog.get("morozov6_5")
        l2 = catalog.get("morozov6_5", gamma=F(3))
        assert l1.bracket_table(1, 2) == {5: F(1)}
        assert l2.bracket_table(1, 2) == {5: F(3)}

    def test_excluded_parameter_values(self):
        with pytest.raises(ValueError):
            catalog.get("seeley_12457n", xi=0)
        with pytest.raises(ValueError):
            catalog.get("free_two_step", n=3)

    @pytest.mark.parametrize(
        "name, key, value", [("abelian", "n", F(7, 2)), ("heisenberg", "m", F(3, 2)),
                             ("id_ext", "n", F(5, 3)), ("free_two_step", "n", F(5, 2))]
    )
    def test_integer_parameter_not_truncated(self, name, key, value):
        # int() used to turn 5/2 into 2 and build the wrong algebra silently
        with pytest.raises(ValueError, match="must be an integer"):
            catalog.get(name, **{key: value})
        with pytest.raises(ValueError, match="must be an integer"):
            catalog.expected(name, **{key: value})
        with pytest.raises(ValueError, match="must be an integer"):
            catalog.verify(name, P, **{key: value})

    def test_integral_fraction_parameter_accepted(self):
        assert catalog.get("heisenberg", m=F(6, 2)) == catalog.get("heisenberg", m=3)
        assert catalog.verify("abelian", P, n=F(3)).params == {"n": 3}


class TestVerify:
    @pytest.mark.parametrize("name", catalog.names())
    def test_all_entries_clean(self, name):
        rep = catalog.verify(name, P)
        assert rep.ok, rep.mismatches
        witness = catalog.expected(name).cp_witness
        if witness is not None:
            # the dimension and rank characterizations of a CP are equivalent theorems
            L = catalog.get(name)
            cp_rep = is_cp(L, L.span_of_labels(witness), P)
            assert cp_rep.condition_dim == cp_rep.condition_rank and cp_rep.certified

    def test_morozov4_details(self):
        rep = catalog.verify("morozov6_4", P)
        assert rep.observed["dim"] == 6
        assert rep.observed["index"] == 2
        assert rep.observed["center_dim"] == 2
        assert rep.observed["cp_witness_ok"] and rep.observed["cp_witness_ideal"]

    def test_seeley_37b_witness(self):
        rep = catalog.verify("seeley_37b", P)
        assert rep.observed["cp_witness_ok"]
        assert rep.expected.cp_witness == ("a", "d", "e", "f", "g")

    def test_family_both_regimes(self):
        generic = catalog.verify("seeley_12457n", P, xi=F(2))
        assert generic.ok and generic.observed["cp_witness_ok"]
        degenerate = catalog.verify("seeley_12457n", P, xi=F(1))
        assert degenerate.ok and degenerate.observed["certificate_fsr_noncommutative"]

    def test_seed_independence(self):
        for seed in (0, 1, 2):
            rep = catalog.verify("morozov6_4", RankPolicy(seed=seed))
            assert rep.ok

    def test_free_two_step_invariants(self):
        for n in (4, 6):
            rep = catalog.verify("free_two_step", P, n=n)
            assert rep.ok
            assert rep.observed["index"] == n * (n - 1) // 2 == rep.observed["center_dim"]


class TestNoWitnessEntries:
    def test_dixmier_lister_search_and_certificates_empty(self):
        L = catalog.get("dixmier_lister")
        assert catalog.expected("dixmier_lister").note == "no_witness_found"
        assert search_cp(L, P) is None
        assert no_cp_certificate(L, P) is None

    def test_free_two_step_search_empty(self):
        L = catalog.get("free_two_step", n=4)
        assert search_cp(L, P) is None
        assert no_cp_certificate(L, P) is None

    def test_certified_entries_never_find_cp(self):
        for name in ("g5", "g6", "diamond", "sl2_irr3"):
            assert search_cp(catalog.get(name), P) is None


class TestDataFiles:
    @pytest.mark.parametrize("name", catalog.names())
    def test_alg_files_round_trip(self, name):
        text = catalog.data_text(f"{name}.alg")
        assert parse_algebra(text) == catalog.get(name)

    def test_expectations_file_matches_registry(self):
        data = json.loads(catalog.data_text("expectations.json"))
        assert set(data) == set(catalog.names())
        for name, record in data.items():
            want = catalog.expected(name)
            assert record["expected"]["dim"] == want.dim
            assert record["expected"]["index"] == want.index
            assert record["expected"]["center_dim"] == want.center_dim
            assert record["provenance"] == catalog.entry(name).provenance

    def test_shipped_files_are_regenerated_byte_for_byte(self, tmp_path):
        # perfbench reads cp_witness and no_cp_kinds from expectations.json,
        # so every byte of the shipped files must match the registry
        catalog.write_data_files(tmp_path)
        shipped = Path(catalog.__file__).parent / "data"
        names = sorted(p.name for p in shipped.iterdir() if p.is_file())
        assert names == sorted(p.name for p in tmp_path.iterdir())
        for name in names:
            assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name

    def test_tags_present(self):
        data = json.loads(catalog.data_text("expectations.json"))
        assert data["morozov6_4"]["tags"]["index"] == "literature"
        assert data["g5"]["tags"]["index"] == "computed"


class TestCrossEntryArithmetic:
    def test_direct_product_index_additivity_small(self):
        from liecp.liealg import direct_product

        combos = [("h3", "h3"), ("diamond", "h3"), ("g5", "h5"), ("morozov6_4", "h3")]
        for a, b in combos:
            la, lb = catalog.get(a), catalog.get(b)
            prod = direct_product(la, lb)
            assert index(prod, P).index == index(la, P).index + index(lb, P).index
