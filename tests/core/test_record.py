"""``repro.core.record`` against the stdlib it replaces.

Each shape ``src/`` declares is built twice from one class body, once
with :func:`dataclasses.dataclass` and once with
:func:`repro.core.record.record`, and the two must agree on what the
code relies on: ``repr``, equality, hashing, ordering, frozenness,
defaults, ``__post_init__``, inherited fields, ``replace``, ``asdict``
and ``fields``.
"""

import dataclasses
import types

import pytest

from repro.core import record


def shapes(decorate, field) -> types.SimpleNamespace:
    @decorate
    class Plain:
        a: int
        b: str = "x"
        c: list = field(default_factory=list)

    @decorate(frozen=True, order=True)
    class Point:
        x: int
        y: int = 0

    @decorate
    class Checked:
        n: int
        seed: int = 3
        derived: int = field(init=False, repr=False)

        def __post_init__(self):
            if self.n < 0:
                raise ValueError("n must be non-negative")
            self.derived = self.n * 2

    @decorate(frozen=True)
    class Instr:
        """A base with no fields, as ``compiler.ir.Instr``."""

    @decorate(frozen=True)
    class Load(Instr):
        ptr: str

    @decorate(frozen=True)
    class Mid:
        a: int
        b: int = 1

    @decorate(frozen=True)
    class Sub(Mid):
        c: int = 2

    @decorate(frozen=True, order=True)
    class Named:
        pool: int

        def __repr__(self):
            return f"Named<{self.pool}>"

    @decorate
    class Nest:
        points: list
        by_name: dict
        pair: tuple = (1, 2)

    return types.SimpleNamespace(**{
        cls.__name__: cls for cls in (Plain, Point, Checked, Instr, Load,
                                      Mid, Sub, Named, Nest)})


STD = shapes(dataclasses.dataclass, dataclasses.field)
REC = shapes(record.record, record.field)
BOTH = pytest.mark.parametrize("ns, helpers", [
    (STD, dataclasses), (REC, record)], ids=["dataclasses", "record"])

#: (shape, constructor args) for the parity rows.
INSTANCES = [
    ("Plain", (1,)), ("Plain", (1, "y", [3])), ("Point", (1, 2)),
    ("Point", (4,)), ("Checked", (5,)), ("Checked", (5, 9)),
    ("Instr", ()), ("Load", ("p",)), ("Mid", (7,)), ("Sub", (7, 8, 9)),
    ("Named", (3,))]


def both(name, args):
    return getattr(STD, name)(*args), getattr(REC, name)(*args)


@pytest.mark.parametrize("name, args", INSTANCES)
def test_repr_is_the_stdlibs(name, args):
    std, rec = both(name, args)
    assert repr(rec) == repr(std)


@pytest.mark.parametrize("name, args", INSTANCES)
def test_fields_and_asdict_are_the_stdlibs(name, args):
    std, rec = both(name, args)
    assert [f.name for f in record.fields(rec)] == \
        [f.name for f in dataclasses.fields(std)]
    assert [f.name for f in record.fields(type(rec))] == \
        [f.name for f in dataclasses.fields(type(std))]
    assert record.asdict(rec) == dataclasses.asdict(std)


def test_asdict_converts_nested_records_and_containers():
    std = STD.Nest([STD.Point(1, 2)], {"k": STD.Mid(3)})
    rec = REC.Nest([REC.Point(1, 2)], {"k": REC.Mid(3)})
    assert record.asdict(rec) == dataclasses.asdict(std) == {
        "points": [{"x": 1, "y": 2}], "by_name": {"k": {"a": 3, "b": 1}},
        "pair": (1, 2)}
    assert type(record.asdict(rec)["pair"]) is tuple


@BOTH
def test_eq_is_by_fields_within_one_class(ns, helpers):
    assert ns.Point(1, 2) == ns.Point(1, 2)
    assert ns.Point(1, 2) != ns.Point(2, 1)
    assert ns.Mid(1, 2) != ns.Sub(1, 2)
    assert ns.Mid(1, 2) != (1, 2)
    assert ns.Plain(1) == ns.Plain(1)
    assert ns.Checked(2) == ns.Checked(2)


def test_eq_across_the_two_implementations_is_false():
    assert REC.Point(1, 2) != STD.Point(1, 2)


@BOTH
def test_hash(ns, helpers):
    # Frozen: the hash of the field tuple.
    assert hash(ns.Point(1, 2)) == hash((1, 2))
    assert hash(ns.Instr()) == hash(())
    assert len({ns.Sub(1), ns.Sub(1), ns.Sub(2)}) == 2
    # Mutable with eq: unhashable.
    assert ns.Plain.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(ns.Plain(1))


@BOTH
def test_order(ns, helpers):
    points = [ns.Point(2, 0), ns.Point(1, 5), ns.Point(1, 2)]
    assert [(p.x, p.y) for p in sorted(points)] == [(1, 2), (1, 5), (2, 0)]
    assert ns.Point(1, 2) <= ns.Point(1, 2) < ns.Point(1, 3)
    assert ns.Point(3, 0) >= ns.Point(2, 9) > ns.Point(2, 8)
    with pytest.raises(TypeError):
        ns.Point(1) < ns.Named(1)
    # Without ``order`` there is none.
    with pytest.raises(TypeError):
        ns.Mid(1) < ns.Mid(2)


@BOTH
def test_a_frozen_field_cannot_be_assigned_or_deleted(ns, helpers):
    point = ns.Point(1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        point.x = 5
    with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
        point.z = 5
    with pytest.raises(AttributeError, match="cannot delete field 'x'"):
        del point.x
    assert point == ns.Point(1, 2)
    # A mutable one can.
    plain = ns.Plain(1)
    plain.a = 2
    assert plain.a == 2


def test_the_frozen_error_is_an_attribute_error():
    with pytest.raises(record.FrozenInstanceError):
        REC.Sub(1).c = 0
    assert issubclass(record.FrozenInstanceError, AttributeError)


@BOTH
def test_each_instance_gets_its_own_default_factory_value(ns, helpers):
    one, two = ns.Plain(1), ns.Plain(1)
    one.c.append(1)
    assert (one.c, two.c) == ([1], [])
    given = [9]
    assert ns.Plain(1, c=given).c is given


@BOTH
def test_post_init_and_init_false(ns, helpers):
    checked = ns.Checked(5)
    assert (checked.n, checked.seed, checked.derived) == (5, 3, 10)
    assert "derived" not in repr(checked)
    with pytest.raises(TypeError):
        ns.Checked(5, 3, 10)
    with pytest.raises(ValueError, match="non-negative"):
        ns.Checked(-1)


@BOTH
def test_inherited_fields_come_first(ns, helpers):
    sub = ns.Sub(1, c=5)
    assert [f.name for f in helpers.fields(sub)] == ["a", "b", "c"]
    assert (sub.a, sub.b, sub.c) == (1, 1, 5)
    assert ns.Load("p").ptr == "p"
    assert isinstance(ns.Load("p"), ns.Instr)
    assert helpers.fields(ns.Instr) == ()


@BOTH
def test_replace(ns, helpers):
    point = ns.Point(1, 2)
    moved = helpers.replace(point, y=7)
    assert (moved, point) == (ns.Point(1, 7), ns.Point(1, 2))
    assert helpers.replace(ns.Sub(1), a=4) == ns.Sub(4, 1, 2)
    # ``__post_init__`` runs again on the copy.
    assert helpers.replace(ns.Checked(5), n=6).derived == 12
    with pytest.raises(ValueError, match="init=False"):
        helpers.replace(ns.Checked(5), derived=1)
    with pytest.raises(TypeError):
        helpers.replace(point, z=1)


def test_fields_refuses_what_is_not_a_record():
    with pytest.raises(TypeError):
        record.fields(object())


@BOTH
def test_a_bodys_own_repr_is_kept(ns, helpers):
    assert repr(ns.Named(3)) == "Named<3>"


@pytest.mark.parametrize("decorate, field", [
    (dataclasses.dataclass, dataclasses.field),
    (record.record, record.field)], ids=["dataclasses", "record"])
def test_declaration_errors(decorate, field):
    with pytest.raises(TypeError, match="non-default argument 'b'"):
        @decorate
        class Late:
            a: int = 0
            b: int
    with pytest.raises(ValueError, match="mutable default"):
        @decorate
        class Shared:
            a: list = []
    with pytest.raises(ValueError, match="both default and"):
        field(default=1, default_factory=int)


def test_no_record_imports_the_introspection_stack():
    """What the helper is for: ``dataclasses`` brings ``inspect``,
    ``ast``, ``dis`` and ``tokenize``; the helper brings nothing."""
    import subprocess
    import sys
    probe = ("import sys\n"
             "import repro.core.record\n"
             "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', "
             "'dis', 'tokenize', 'copy') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": record.__file__.rsplit(
                              "/repro/", 1)[0]})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
