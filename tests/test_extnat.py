import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catbound.extnat import FINITE_MAX, INF, ZERO, ExtNat, supremum

from oracles import ext_max, extnat_from_json

LIMIT = FINITE_MAX

finite = st.integers(min_value=0, max_value=10 ** 6).map(ExtNat)
anynat = st.one_of(finite, st.just(INF))


def test_constructor_rejects_negatives():
    with pytest.raises(ValueError):
        ExtNat(-1)


def test_basic_order():
    assert ZERO < ExtNat(1) < ExtNat(2) < INF
    assert not INF < INF
    assert INF <= INF
    assert ExtNat(5) == ExtNat(5)
    assert ExtNat(5) != INF


def test_addition_and_absorption():
    assert ExtNat(2) + ExtNat(3) == ExtNat(5)
    assert INF + ExtNat(3) == INF
    assert ExtNat(3) + INF == INF
    assert INF + INF == INF


def test_int_mixing():
    assert ExtNat(2) + 3 == ExtNat(5)
    assert ext_max(2, INF) == INF
    assert ext_max(ExtNat(2), 7) == ExtNat(7)


def test_overflow_guard():
    big = ExtNat(LIMIT)
    with pytest.raises(OverflowError):
        big + ExtNat(1)
    assert big + ZERO == big


def test_supremum_empty_is_zero():
    assert supremum([]) == ZERO


def test_supremum_examples():
    assert supremum([ExtNat(1), ExtNat(4), ExtNat(2)]) == ExtNat(4)
    assert supremum([ExtNat(1), INF]) == INF


def test_json_forms():
    assert ExtNat(3).to_json() == 3
    assert INF.to_json() == "inf"
    assert extnat_from_json(3) == ExtNat(3)
    assert extnat_from_json("inf") == INF
    with pytest.raises(ValueError):
        extnat_from_json("nope")
    with pytest.raises(ValueError):
        extnat_from_json(-2)


def test_str():
    assert str(ExtNat(7)) == "7"
    assert str(INF) == "inf"


# -- algebraic laws -------------------------------------------------------

@given(anynat, anynat)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(anynat, anynat, anynat)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(anynat)
def test_zero_is_neutral(a):
    assert a + ZERO == a
    assert ZERO + a == a


@given(anynat, anynat)
def test_max_commutes(a, b):
    assert ext_max(a, b) == ext_max(b, a)


@given(anynat, anynat, anynat)
def test_max_associates(a, b, c):
    assert ext_max(ext_max(a, b), c) == ext_max(a, ext_max(b, c))


@given(anynat, anynat, anynat)
def test_addition_distributes_over_max(a, b, c):
    assert a + ext_max(b, c) == ext_max(a + b, a + c)


@given(anynat)
def test_infinity_absorbs(a):
    assert a + INF == INF
    assert ext_max(a, INF) == INF


@given(st.lists(anynat, max_size=8))
def test_supremum_is_least_upper_bound(xs):
    s = supremum(xs)
    assert all(x <= s for x in xs)
    if xs and s.is_finite:
        assert s in xs


@given(anynat)
def test_json_round_trip(a):
    assert extnat_from_json(json.loads(json.dumps(a.to_json()))) == a


@given(anynat, anynat)
def test_order_total(a, b):
    assert (a <= b) or (b <= a)
    if a <= b and b <= a:
        assert a == b
