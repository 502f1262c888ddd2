"""The package's frozen records (`goeritz._records.record`) behave as the
classes `dataclasses.dataclass(frozen=True)` would make from the same
source, and importing goeritz compiles one `__init__` per record.

Each record class is compared with a twin built by the real
`dataclasses.dataclass` from the class's fields, methods and docstring,
on instances drawn from library calls.  The tests need no pytest:
`PYTHONPATH=src python tests/test_frozen_records.py` runs them all.
"""

import ast
import copy
import dataclasses
import inspect
import json
import pickle
import subprocess
import sys
from pathlib import Path

import goeritz
from goeritz import (
    abelianize_presentation,
    build_report,
    dual_shell_relation,
    goeritz_presentation,
    make_params,
    nonprimitivity_filter,
)
from goeritz._records import record
from goeritz.classify import CASES
from goeritz.primitivity import WHITEHEAD_TYPE_I, WHITEHEAD_TYPE_II
from goeritz.shells import DualPairKind
from goeritz.sweeps import SweepFailure, run_sweep

PACKAGE = Path(goeritz.__file__).resolve().parent
# The options each record had as a dataclass(frozen=True, ...) decorator.
IDENTITY_EQ = {"CaseData"}
# What dataclasses or the helper put in a record's class dict.
MADE = {
    "__dict__", "__weakref__", "__doc__", "__annotations__", "__dataclass_fields__",
    "__dataclass_params__", "__match_args__", "__replace__", "__init__", "__repr__",
    "__eq__", "__hash__", "__setattr__", "__delattr__",
}


def decorated_classes():
    """{(module, class name): whether it has a docstring} of every class
    the package source decorates with `record`."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                "record" in ast.unparse(d) for d in node.decorator_list
            ):
                found[f"goeritz.{path.stem}", node.name] = ast.get_docstring(node) is not None
    return found


def record_classes():
    classes = {}
    for module, name in decorated_classes():
        cls = getattr(sys.modules[module], name)
        assert dataclasses.is_dataclass(cls) and cls.__module__ == module, name
        classes[name] = cls
    return classes


def twin(cls):
    """The class dataclass(frozen=True) makes from `cls`'s source."""
    namespace = {key: value for key, value in vars(cls).items() if key not in MADE}
    fields = dataclasses.fields(cls)
    for f in fields:
        namespace[f.name] = dataclasses.field(
            default=f.default, init=f.init, repr=f.repr, hash=f.hash, compare=f.compare,
            metadata=f.metadata,
        )
    namespace.update(
        __annotations__={f.name: f.type for f in fields}, __doc__=cls.__doc__,
        __qualname__=cls.__qualname__, __module__=cls.__module__,
    )
    made = type(cls.__name__, cls.__bases__, namespace)
    return dataclasses.dataclass(frozen=True, eq=cls.__name__ not in IDENTITY_EQ)(made)


def _walk(value, found, seen):
    if id(value) in seen:
        return
    seen.add(id(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        found.setdefault(type(value).__name__, []).append(value)
        for f in dataclasses.fields(value):
            _walk(getattr(value, f.name), found, seen)
    elif isinstance(value, (tuple, list, frozenset, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _walk(item, found, seen)


def samples():
    """{class name: instances} reached from library calls."""
    roots = [
        build_report(12, 5), build_report(8, 3), build_report(7, 2), build_report(5, 1),
        abelianize_presentation(goeritz_presentation(make_params(8, 3))),
        dual_shell_relation(make_params(8, 3), next(iter(DualPairKind))),
        nonprimitivity_filter("xyxY"), nonprimitivity_filter("xyXY"), nonprimitivity_filter("xy"),
        WHITEHEAD_TYPE_I[:3], WHITEHEAD_TYPE_II[:3], CASES,
        run_sweep("four-primitives", 8), SweepFailure("L(7,2)", "a detail"),
    ]
    found, seen = {}, set()
    _walk(roots, found, seen)
    return found


def init_kwargs(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}


def outcome(action):
    """What action() returns, or the type and text of what it raises."""
    try:
        return "returned", action()
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)


def reduction(value, protocol, cls, made):
    """value.__reduce_ex__(protocol) with the twin class read as `cls`."""
    def same(item):
        if item is made:
            return cls
        return tuple(map(same, item)) if isinstance(item, tuple) else item
    return same(value.__reduce_ex__(protocol))


def pairs():
    """(class, twin, [(record, twin record), ...]) for every record class,
    each instance rebuilt fresh through both `__init__`s."""
    found = samples()
    for name, cls in record_classes().items():
        assert found.get(name), f"no sample of {name}"
        made = twin(cls)
        values = list({repr(v): v for v in found[name]}.values())[:4]
        yield cls, made, [(cls(**init_kwargs(v)), made(**init_kwargs(v))) for v in values]


def test_the_source_decorates_26_records():
    assert len(record_classes()) == 26


def test_every_record_has_its_own_docstring():
    """`record` refuses a class without a docstring, rather than write one
    from its signature as dataclasses does."""
    assert all(decorated_classes().values())

    class Undocumented:
        value: int

    kind, text = outcome(lambda: record(Undocumented))
    assert kind is TypeError and text.endswith("Undocumented has no docstring"), text


def test_classes_match_their_dataclass_twins():
    for cls, made, _ in pairs():
        name = cls.__name__
        assert cls.__doc__ == made.__doc__, name
        assert cls.__match_args__ == made.__match_args__, name
        assert inspect.signature(cls) == inspect.signature(made), name
        assert str(inspect.signature(cls)) == str(inspect.signature(made)), name
        assert repr(cls.__dataclass_params__) == repr(made.__dataclass_params__), name
        flags = [
            [(f.name, f.init, f.repr, f.compare, f.hash, f.default) for f in dataclasses.fields(c)]
            for c in (cls, made)
        ]
        assert flags[0] == flags[1], name
        assert (cls.__hash__ is object.__hash__) == (made.__hash__ is object.__hash__), name


def test_instances_match_their_dataclass_twins():
    others = [1, None, "text", make_params(7, 2), WHITEHEAD_TYPE_I[0]]
    for cls, made, instances in pairs():
        name = cls.__name__
        for i, (mine, theirs) in enumerate(instances):
            assert repr(mine) == repr(theirs), name
            assert vars(mine) == vars(theirs), name
            for j, (other_mine, other_theirs) in enumerate(instances):
                assert (mine == other_mine) == (theirs == other_theirs), (name, i, j)
                assert (mine != other_mine) == (theirs != other_theirs), (name, i, j)
            assert (mine == cls(**init_kwargs(mine))) == (theirs == made(**init_kwargs(theirs))), name
            for other in [x for x in others if type(x) is not cls]:
                assert mine.__eq__(other) is NotImplemented, (name, other)
                assert (mine == other, mine != other) == (theirs == other, theirs != other), name
            assert mine.__eq__(theirs) is theirs.__eq__(mine) is NotImplemented, name
            assert (mine == theirs, mine != theirs) == (False, True), name
            if cls.__hash__ is object.__hash__:
                assert hash(mine) == object.__hash__(mine) and hash(theirs) == object.__hash__(theirs)
            else:
                assert hash(mine) == hash(theirs), name

            assert repr(dataclasses.replace(mine)) == repr(dataclasses.replace(theirs)), name
            kwargs = init_kwargs(instances[-1][0])
            moved = dataclasses.replace(mine, **kwargs), dataclasses.replace(theirs, **kwargs)
            assert repr(moved[0]) == repr(moved[1]), name
            # asdict and deepcopy copy every field, a Word too
            for copier in (dataclasses.asdict, copy.copy, copy.deepcopy):
                copies = [outcome(lambda: copier(x)) for x in (mine, theirs)]
                assert repr(copies[0]) == repr(copies[1]), (name, copier)
                if copier is not dataclasses.asdict and copies[0][0] == "returned":
                    assert type(copies[0][1]) is cls and vars(copies[0][1]).keys() == vars(mine).keys()
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                # the twin pickles by the same reduction, and the record
                # round trips as its fields alone do
                assert reduction(mine, protocol, cls, made) == reduction(theirs, protocol, cls, made)
                back = outcome(lambda: pickle.loads(pickle.dumps(mine, protocol)))
                alone = outcome(lambda: pickle.loads(pickle.dumps(vars(mine), protocol)))
                if alone[0] != "returned":
                    assert repr(back) == repr(alone), (name, protocol)
                    continue
                assert type(back[1]) is cls, (name, protocol)
                state = outcome(lambda: repr(vars(back[1])))
                assert state == outcome(lambda: repr(alone[1])), (name, protocol)
                if state == ("returned", repr(vars(mine))):
                    assert repr(back[1]) == repr(mine), (name, protocol)

            field = dataclasses.fields(cls)[0].name
            if not hasattr(cls, "__post_init__"):  # which may refuse a list
                looped = []
                for c, x in ((cls, mine), (made, theirs)):
                    box = []
                    looped.append(c(**{**init_kwargs(x), field: box}))
                    box.append(looped[-1])
                assert repr(looped[0]) == repr(looped[1]) and "[...]" in repr(looped[0]), name
            for target in (field, "not_a_field"):
                changes = [
                    [outcome(lambda: setattr(x, target, 0)), outcome(lambda: delattr(x, target))]
                    for x in (mine, theirs)
                ]
                assert changes[0] == changes[1], (name, target)
                assert all(kind is dataclasses.FrozenInstanceError for kind, _ in changes[0])


COUNT_COMPILES = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
made = {"total": 0, "namedtuple": 0, "empty": 0}

def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        made["total"] += 1
        caller = sys._getframe(1).f_globals.get("__name__")
        made["namedtuple"] += caller in ("typing", "collections")
        source = args[0] if isinstance(args[0], str) else bytes(args[0]).decode()
        made["empty"] += caller == "dataclasses" and source.rstrip().endswith("return ()")

sys.addaudithook(hook)
import goeritz
made["records"] = sum(
    1
    for module in list(sys.modules.values())
    if module.__name__.startswith("goeritz")
    for value in vars(module).values()
    if isinstance(value, type) and "__dataclass_fields__" in vars(value)
    and value.__module__ == module.__name__
)
print(json.dumps(made))
"""


def stdlib_imports():
    """The top-level modules the package's source imports, outside the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
                names.add(node.module)
    return sorted(names)


def test_importing_goeritz_compiles_one_init_per_record():
    """With the standard-library modules goeritz imports already loaded,
    `import goeritz` compiles generated source (`<string>`, counted by
    PEP 578 audit events) only for one `__init__` per record class and
    for what the NamedTuples (typing and collections) compile
    themselves.  From Python 3.13 on, every dataclasses.dataclass call
    also compiles a function that makes no method ("empty"), which is not
    counted.  Under 3.11, dataclass(frozen=True) compiled about six
    methods per record."""
    child = subprocess.run(
        [sys.executable, "-c", COUNT_COMPILES, *stdlib_imports()],
        capture_output=True, text=True, timeout=60, check=True,
        env={"PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    made = json.loads(child.stdout)
    assert made["total"] - made["empty"] <= made["records"] + made["namedtuple"], made


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            test()
            print("passed", test_name)
