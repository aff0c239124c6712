"""Natural numbers extended by a single absorbing infinity.

Every bound the engine manipulates lives in this domain: a cover with
n+1 pieces is recorded as the value n, and "no bound known" is Infinity.
Addition and maximum treat Infinity as absorbing, the supremum of an
empty collection is 0, and finite results past 2**32 - 1 raise rather
than wrap.

>>> ExtNat(3) + ExtNat(2)
ExtNat(5)
>>> supremum([]) == ExtNat(0)
True
>>> INF + ExtNat(7) == INF
True
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional, Tuple, Union

FINITE_MAX = 2**32 - 1

_set = object.__setattr__
_new = object.__new__


class FrozenInstanceError(AttributeError):
    'Raised on assigning to, or deleting, a field of a frozen record.'


class _Frozen:
    """Fields in __slots__ that cannot be reassigned: __init__ sets them
    with object.__setattr__, and any later assignment or deletion raises
    FrozenInstanceError.

    `_fields` names the arguments of __init__, in order.  It defaults to
    the class's own __slots__; a class that keeps more in its slots (a
    computed key, a verification mark) lists its arguments itself.  The
    repr shows `_fields`, dataclass style.  A copy or an unpickled record
    gets every slot back as it was, without running __init__.  Equality
    is identity; Record compares fields."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__dict__.get("__slots__", ())

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        cls = type(self)
        return _rebuild, (cls, tuple(getattr(self, f) for f in cls.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _rebuild(cls, values: tuple):
    'A record of class `cls` with its __slots__ set to `values`; __init__ does not run.'
    out = _new(cls)
    for name, value in zip(cls.__slots__, values):
        _set(out, name, value)
    return out


class Record(_Frozen):
    """A frozen record equal to another of its class whose fields are
    equal, and hashed by them.  The fields in `_uncompared` (where a
    declaration stands) take no part."""

    __slots__ = ()
    _uncompared: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        compared = [f for f in cls._fields if f not in cls._uncompared]
        if len(compared) == 1:
            get = attrgetter(compared[0])
            cls._values = staticmethod(lambda r: (get(r),))
        elif compared:
            cls._values = staticmethod(attrgetter(*compared))
        else:
            cls._values = staticmethod(lambda r: ())

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))


class MutableRecord(Record):
    'A Record whose fields may be reassigned; like a mutable dataclass, it has no hash.'

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None     # type: ignore[assignment]


def replace(record, **changes):
    """A new record of the same class, with `changes` for some arguments
    of its __init__ and the record's own values for the others.  What
    __init__ does not take (a verification mark) starts afresh."""
    for name in record._fields:
        if name not in changes:
            changes[name] = getattr(record, name)
    return type(record)(**changes)


class ExtNat(_Frozen):
    'A natural number or None for infinity.  Immutable.'

    __slots__ = ("v",)
    __match_args__ = ("v",)

    v: Optional[int]

    def __init__(self, v: Optional[int] = None) -> None:
        if v is not None:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"ExtNat wants an int or None, got {v!r}")
            if v < 0:
                raise ValueError(f"ExtNat is non-negative, got {v}")
            if v > FINITE_MAX:
                raise OverflowError(f"finite value {v} exceeds {FINITE_MAX}")
        _set(self, "v", v)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.v == other.v
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.v,))

    @property
    def is_finite(self) -> bool:
        return self.v is not None

    def __add__(self, other: Union["ExtNat", int]) -> "ExtNat":
        if other.__class__ is not ExtNat:
            other = _coerce(other)
        a, b = self.v, other.v
        if a is None or b is None:
            return INF
        total = a + b
        if total > FINITE_MAX:
            raise OverflowError(f"sum {total} exceeds {FINITE_MAX}")
        # a sum of two valid values needs no check beyond the overflow one
        out = _new(ExtNat)
        _set(out, "v", total)
        return out

    __radd__ = __add__

    def __lt__(self, other: Union["ExtNat", int]) -> bool:
        if other.__class__ is not ExtNat:
            other = _coerce(other)
        if self.v is None:
            return False
        return other.v is None or self.v < other.v

    def __le__(self, other: Union["ExtNat", int]) -> bool:
        if other.__class__ is not ExtNat:
            other = _coerce(other)
        if other.v is None:
            return True
        return self.v is not None and self.v <= other.v

    def __gt__(self, other: Union["ExtNat", int]) -> bool:
        return not self <= other

    def __ge__(self, other: Union["ExtNat", int]) -> bool:
        return not self < other

    def __repr__(self) -> str:
        return "INF" if self.v is None else f"ExtNat({self.v})"

    def __str__(self) -> str:
        return "inf" if self.v is None else str(self.v)

    def to_json(self) -> Union[int, str]:
        'JSON form: plain integer, or the string "inf".'
        return "inf" if self.v is None else self.v


INF = ExtNat(None)
ZERO = ExtNat(0)


def _coerce(x: Union[ExtNat, int]) -> ExtNat:
    if isinstance(x, ExtNat):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return ExtNat(x)
    raise TypeError(f"cannot treat {x!r} as an extended natural")


def supremum(values: Iterable[Union[ExtNat, int]]) -> ExtNat:
    'Largest value of the collection; 0 when it is empty.'
    best = ZERO
    for x in values:
        if x.__class__ is not ExtNat:
            x = _coerce(x)
        if x.v is None or (best.v is not None and best.v <= x.v):
            best = x
    return best
