"""Every public name in ``src/oseg`` has a caller outside the tests,
every config field and every defaulted parameter is set outside the
tests, and no module imports a name it never uses.

A public function or class counts as used when its name occurs anywhere
in ``src/oseg``, ``demos/`` or ``perfbench/`` other than its own
definition: as a name, an attribute or an imported name.  A public method
or property counts as used only when its name occurs as an attribute,
since a local variable of the same name does not call it.  The match is
by name only, so a same-named reference elsewhere also counts.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "oseg"

# names that only tests call on purpose, with the reason each stays
KEPT = {
    "average_precision": "acceptance check 09 scores one class",
    "set_layout": "test seam: pins an explicit synthetic layout",
    "background_prototype": "test seam: the oracle's background feature row",
    "prototypes": "test seam: the oracle's class feature rows",
    "to_canvas": "reference paste of a mask onto the image, for tests",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# config classes built through wrappers such as ``dict(...)`` and
# ``config(run, **kw)``, whose fields count as set when passed as a keyword
# to any call
ANY_CALLEE = {"ProtocolConfig"}


def _public_definitions(tree):
    """``(name, line, is_method)`` for every public definition."""
    methods = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node.lineno, id(node) in methods


def _references(tree) -> tuple[Counter, Counter]:
    """Counts of every referenced name and of names used as attributes."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            attributes[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names, attributes


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _non_test_files():
    return [*SOURCE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py")]


def _non_test_references() -> tuple[Counter, Counter]:
    names, attributes = Counter(), Counter()
    for path in _non_test_files():
        found_names, found_attributes = _references(_parse(path))
        names.update(found_names)
        attributes.update(found_attributes)
    return names, attributes


def test_every_public_name_has_a_non_test_caller():
    names, attributes = _non_test_references()
    unused = sorted(
        f"{path.name}:{line} {name}"
        for path in SOURCE.glob("*.py")
        for name, line, is_method in _public_definitions(_parse(path))
        if not (attributes if is_method else names)[name] and name not in KEPT
    )
    assert not unused, f"public names without a non-test caller: {unused}"


def test_kept_names_exist_and_have_no_other_caller():
    defined = {name for path in SOURCE.glob("*.py")
               for name, _, _ in _public_definitions(_parse(path))}
    assert set(KEPT) <= defined
    names, _ = _non_test_references()
    assert not [name for name in KEPT if names[name]]


def _config_fields(tree):
    """``(class, field, line)`` for every field of a ``*Config`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    yield node.name, item.target.id, item.lineno


def _keywords_passed(tree):
    """``(callee, keyword)`` for every keyword argument; ``**`` unpacking
    names no keyword and is skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield callee, keyword.arg


def test_every_config_field_is_set_outside_the_tests():
    passed = {pair for path in _non_test_files()
              for pair in _keywords_passed(_parse(path))}
    keywords = {keyword for _, keyword in passed}
    unset = sorted(
        f"{path.name}:{line} {cls}.{name}"
        for path in SOURCE.glob("*.py")
        for cls, name, line in _config_fields(_parse(path))
        if (cls, name) not in passed
        and not (cls in ANY_CALLEE and name in keywords)
    )
    assert not unset, f"config fields only the tests set: {unset}"


# defaulted parameters that only tests pass, with the reason each stays
KEPT_PARAMETERS = {
    ("main", "argv"): "the console script passes no argv; tests pass one",
}


def _callables(tree):
    """``(callee, function, skipped)`` for every public function, method
    and constructor.  A constructor is called by its class's name, and
    ``skipped`` counts the ``self`` or ``cls`` that a call does not pass."""
    owner = {id(item): node for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in node.decorator_list)
        name = cls.name if cls and node.name == "__init__" else node.name
        if not name.startswith("_"):
            yield name, node, 0 if cls is None or static else 1


def _defaulted(function, skipped):
    """``(parameter, position)`` for every defaulted parameter; the
    position counts a call's positional arguments, and is ``None`` for a
    keyword-only parameter."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skipped
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(tree):
    """``(callee, positional count, keywords, unpacks)`` for every call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keywords = {keyword.arg for keyword in node.keywords}
            unpacks = (None in keywords
                       or any(isinstance(a, ast.Starred) for a in node.args))
            yield (getattr(node.func, "id", getattr(node.func, "attr", None)),
                   len(node.args), keywords, unpacks)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a call sets a defaulted parameter when it names it, reaches its
    # position or unpacks ``*``/``**``; the match is by callee name only
    calls = [call for path in _non_test_files()
             for call in _calls(_parse(path))]

    def passed(callee, parameter, position):
        return any(name == callee and (unpacks or parameter in keywords
                                       or (position is not None
                                           and position < count))
                   for name, count, keywords, unpacks in calls)

    unset = sorted(
        f"{path.name}:{function.lineno} {callee}({parameter})"
        for path in SOURCE.glob("*.py")
        for callee, function, skipped in _callables(_parse(path))
        if callee not in KEPT
        for parameter, position in _defaulted(function, skipped)
        if (callee, parameter) not in KEPT_PARAMETERS
        and not passed(callee, parameter, position)
    )
    assert not unset, f"parameters only the tests pass: {unset}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


def test_no_unused_imports():
    unused = []
    for folder in (SOURCE, ROOT / "tests", ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            tree = _parse(path)
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for name, line in _imported_names(tree)
                       if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_every_record_field_is_read_outside_the_store():
    # the store writes and validates every field, and the oracle fills
    # them, so only a read elsewhere shows that a field is used
    fields = [(node.name, item.target.id)
              for node in ast.walk(_parse(SOURCE / "feature_store.py"))
              if isinstance(node, ast.ClassDef)
              and node.name in ("FeatureRecord", "GtObject")
              for item in node.body if isinstance(item, ast.AnnAssign)]
    read = {node.attr for path in SOURCE.glob("*.py")
            if path.name not in ("feature_store.py", "synthetic.py")
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{cls}.{name}" for cls, name in fields
                    if name not in read)
    assert not unread, f"record fields read only by the store: {unread}"
