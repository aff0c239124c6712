"""The record base of the package's data classes (extnat.Record), and
the start-up path it keeps free of the dataclasses module."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import catbound
from catbound import FrozenInstanceError, replace
from catbound.dsl import load_prelude, parse
from catbound.facts import FactSheet
from catbound.model import (ConcreteFiniteGroup, Diagnostic, DirectProduct,
                            FreeProduct, Ref, TrivialGroup, cyclic_group,
                            hom_from_generator_images)

SRC = Path(catbound.__file__).resolve().parent.parent

TEXT = ("group G = Z x (Z * Z2);\n"
        "amalgam A = Z4 *[Z2] Z6 with (i24, i26);\n"
        "hom i24 : Z2 -> Z4 { 1 -> 2; }\n"
        "family Nice = custom { amenable = yes; }\n")


def test_the_cli_imports_without_dataclasses():
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "before = 'dataclasses' in sys.modules\n"
            "import catbound, catbound.cli\n"
            "print(before, 'dataclasses' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False\n", "")


def test_equal_records_compare_and_hash_equal_whatever_their_loc():
    first = parse(TEXT).decls
    moved = parse("\n\n   " + TEXT.replace("\n", "\n\n  ")).decls
    assert all(a.loc != b.loc for a, b in zip(first, moved))
    assert first == moved and hash(first) == hash(moved)
    for a, b in zip(first, moved):
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert replace(a, name="Other") != a
    expr = first[0].rhs
    assert expr == DirectProduct((Ref("Z"), FreeProduct((Ref("Z"), Ref("Z2")))))
    assert hash(expr) == hash(moved[0].rhs) and expr != FreeProduct(expr.factors)
    assert TrivialGroup() == TrivialGroup() and hash(TrivialGroup()) == hash(TrivialGroup())
    # a diagnostic's loc is what it says, so it is compared
    assert Diagnostic("1:1", "m") == Diagnostic("1:1", "m") != Diagnostic("2:1", "m")


def test_records_print_their_arguments():
    assert repr(Ref("Z")) == "Ref(name='Z')"
    assert repr(cyclic_group(2)) == (
        "ConcreteFiniteGroup(table=((0, 1), (1, 0)), identity=0)")
    assert repr(parse("group G;").decls[0]) == (
        "GroupDecl(name='G', rhs=None, facts=(), loc='1:1')")


@pytest.mark.parametrize("record", [
    Ref("Z"), TrivialGroup(), cyclic_group(2), parse(TEXT).decls[1],
    Diagnostic("1:1", "m"), catbound.ZERO])
def test_assigning_to_a_frozen_record_raises(record):
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(FrozenInstanceError):
        record.name = "X"
    with pytest.raises(AttributeError):
        del record.loc


def test_mutable_records_keep_their_own_dicts_and_no_hash():
    a, b = FactSheet("A"), FactSheet("B")
    a.cat_ub["Am"] = catbound.ZERO
    assert b.cat_ub == {} and a.member is not b.member
    assert a.provenance is not b.provenance
    with pytest.raises(TypeError):
        hash(a)


def test_replace_gives_an_unverified_copy():
    u = load_prelude()
    z2, z4 = u.concretes["Z2"], u.concretes["Z4"]
    assert z4.verified
    copied = replace(z4)
    assert copied == z4 and not copied.verified
    hom = hom_from_generator_images("h", "Z2", "Z4", z2, z4, [(1, 2)])
    assert hom.verified_on == (z2, z4)
    renamed = replace(hom, name="k")
    assert (renamed.name, renamed.images, renamed.verified_on) == ("k", hom.images, None)
    with pytest.raises(TypeError):
        replace(hom, verified_on=(z2, z4))


def test_pickle_and_deepcopy_keep_every_slot():
    u = load_prelude()
    sheet = u.sheets["Z"]
    expr = DirectProduct((Ref("Z"), FreeProduct((Ref("Z"), Ref("Z2")))))
    decl = parse(TEXT).decls[1]
    group = ConcreteFiniteGroup(((0,),), 0)
    for record in (sheet, expr, decl, u.concretes["Z4"], group):
        for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(back) is type(record) and back is not record
            assert back == record and repr(back) == repr(record)
            assert all(getattr(back, f) == getattr(record, f) for f in type(record).__slots__)
    assert copy.deepcopy(sheet).cat_ub is not sheet.cat_ub
    assert pickle.loads(pickle.dumps(expr)).key == expr.key
    assert copy.deepcopy(u.concretes["Z4"]).verified and not copy.deepcopy(group).verified
