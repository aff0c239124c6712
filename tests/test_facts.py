import pytest

from catbound.extnat import ZERO, ExtNat
from catbound.facts import (AM, FIN, TR, Family, FamilyKind, FactSheet,
                            MemoTable, Tri, builtin_families, close_sheet,
                            membership, membership_with_reason)
from catbound.model import (DirectProduct, FreeProduct, Ref, TrivialGroup,
                            Universe, cyclic_group)


def atom(u: Universe, name: str, **kw) -> FactSheet:
    s = FactSheet(name=name)
    for k, v in kw.items():
        setattr(s, k, v)
    u.sheets[name] = s
    return s


def universe_with_z() -> Universe:
    u = Universe()
    atom(u, "Z", gd_ub=ExtNat(1), cd_ub=ExtNat(1), tc_ub=ExtNat(1),
         amenable=Tri.YES, finite=Tri.NO)
    atom(u, "One", trivial=True)
    close_sheet(u.sheets["One"], None)
    u.concretes["Z4"] = cyclic_group(4)
    atom(u, "Z4")
    close_sheet(u.sheets["Z4"], 4)
    atom(u, "F2")
    u.defs["F2"] = FreeProduct((Ref("Z"), Ref("Z")))
    return u


# -- sheet closure --------------------------------------------------------


def test_close_sheet_trivial_forces_everything():
    s = FactSheet(name="T")
    s.trivial = True
    assert close_sheet(s, None) == []
    assert s.amenable is Tri.YES
    assert s.finite is Tri.YES
    assert s.gd_ub == ZERO and s.cd_ub == ZERO and s.tc_ub == ZERO


def test_close_sheet_concrete_forces_finite():
    s = FactSheet(name="G")
    assert close_sheet(s, 6) == []
    assert s.finite is Tri.YES
    assert s.amenable is Tri.YES


def test_close_sheet_order_one_is_trivial():
    s = FactSheet(name="G")
    close_sheet(s, 1)
    assert s.trivial


def test_close_sheet_contradictions():
    s = FactSheet(name="G")
    s.finite = Tri.NO
    assert close_sheet(s, 4)

    s2 = FactSheet(name="G")
    s2.trivial = True
    assert close_sheet(s2, 4)

    s3 = FactSheet(name="G")
    s3.finite = Tri.YES
    s3.amenable = Tri.NO
    assert close_sheet(s3, None)


def test_close_sheet_finite_nontrivial_with_finite_gd():
    # a nontrivial finite group admits no finite-dimensional model
    s = FactSheet(name="G")
    s.gd_ub = ExtNat(2)
    assert close_sheet(s, 4)


def test_cite_falls_back_to_declared():
    s = FactSheet(name="G")
    s.provenance["gd"] = "given reason"
    assert "given reason" in s.cite("gd")
    assert s.cite("cd")


# -- membership -----------------------------------------------------------


def test_trivial_group_in_every_family():
    u = universe_with_z()
    for fam in (TR, FIN, AM):
        assert membership(u, TrivialGroup(), fam) is Tri.YES
        assert membership(u, Ref("One"), fam) is Tri.YES


def test_finite_family_membership():
    u = universe_with_z()
    assert membership(u, Ref("Z4"), FIN) is Tri.YES
    assert membership(u, Ref("Z"), FIN) is Tri.NO
    assert membership(u, DirectProduct((Ref("Z4"), Ref("Z4"))), FIN) is Tri.YES
    assert membership(u, DirectProduct((Ref("Z4"), Ref("Z"))), FIN) is Tri.NO


def test_amenable_family_membership():
    u = universe_with_z()
    assert membership(u, Ref("Z"), AM) is Tri.YES
    assert membership(u, Ref("Z4"), AM) is Tri.YES
    assert membership(u, DirectProduct((Ref("Z"), Ref("Z"))), AM) is Tri.YES
    # free product of two genuinely nontrivial groups, one infinite
    assert membership(u, Ref("F2"), AM) is Tri.NO


def test_infinite_dihedral_free_product_not_provably_nonamenable():
    # two order-two factors: the free product is virtually cyclic, so
    # non-amenability must NOT be concluded
    u = Universe()
    u.concretes["Z2"] = cyclic_group(2)
    s = FactSheet(name="Z2")
    u.sheets["Z2"] = s
    close_sheet(s, 2)
    verdict = membership(u, FreeProduct((Ref("Z2"), Ref("Z2"))), AM)
    assert verdict is not Tri.NO


def test_trivial_family_membership():
    u = universe_with_z()
    assert membership(u, Ref("Z4"), TR) is Tri.NO
    assert membership(u, Ref("Z"), TR) is Tri.NO
    unknown = Universe()
    atom(unknown, "M")
    assert membership(unknown, Ref("M"), TR) is Tri.UNKNOWN


def test_membership_reasons_are_nonempty():
    u = universe_with_z()
    for e, fam in ((Ref("Z"), AM), (Ref("Z4"), FIN), (Ref("F2"), AM)):
        verdict, why = membership_with_reason(u, e, fam)
        assert why


def test_free_product_with_trivial_factors_delegates():
    u = universe_with_z()
    e = FreeProduct((Ref("One"), Ref("Z4"), Ref("One")))
    assert membership(u, e, FIN) is Tri.YES


def test_custom_family_uses_declared_membership():
    u = universe_with_z()
    fam = Family("Nice", FamilyKind.CUSTOM, requires=(("amenable", Tri.YES),))
    u.families["Nice"] = fam
    atom(u, "G").member["Nice"] = Tri.YES
    atom(u, "H").member["Nice"] = Tri.NO
    assert membership(u, Ref("G"), fam) is Tri.YES
    assert membership(u, Ref("H"), fam) is Tri.NO
    atom(u, "K")
    assert membership(u, Ref("K"), fam) is Tri.UNKNOWN
    # trivial subgroups belong to every family regardless
    assert membership(u, TrivialGroup(), fam) is Tri.YES


def test_builtin_families():
    fams = builtin_families()
    assert set(fams) == {"Tr", "Fin", "Am"}
    assert fams["Tr"].kind is FamilyKind.TRIVIAL
    assert fams["Fin"].kind is FamilyKind.FINITE
    assert fams["Am"].kind is FamilyKind.AMENABLE


# -- memo and lookup ------------------------------------------------------


def test_memo_table_round_trip():
    from catbound.engine import BoundResult, _leaf
    memo = MemoTable()
    e = Ref("Z")
    r = BoundResult("cat", "Am", ZERO, _leaf("member-zero", "reason", ZERO))
    assert memo.get("cat", e, "Am") is None
    memo.put("cat", e, "Am", r)
    assert memo.get("cat", e, "Am") is r
    assert memo.get("cat", e, "Tr") is None
    assert memo.get("gd", e, "Am") is None
