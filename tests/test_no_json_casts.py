"""No reader in ``src/oseg`` casts a JSON value: each one is checked by
``binio.value_of``, which refuses a value of the wrong kind by name.

A cast such as ``int(tree["stride"])`` turns ``true`` into 1 and 16.9
into 16 without an error.  This test fails when ``int``, ``float``,
``str`` or ``tuple`` is called on a subscript by a string constant, or on
a generator that iterates one, as in
``tuple(int(v) for v in meta["image_size"])``.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "oseg"

CASTS = {"int", "float", "str", "tuple"}


def _keyed(node) -> bool:
    """A subscript by a string constant, such as ``tree["stride"]``."""
    return (isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str))


def casts_of_json_values(tree) -> list:
    """Line numbers of every cast of a keyed value in a parsed module."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in CASTS and node.args):
            continue
        arg = node.args[0]
        if _keyed(arg) or (isinstance(arg, ast.GeneratorExp) and any(
                _keyed(g.iter) for g in arg.generators)):
            lines.append(node.lineno)
    return lines


def test_the_rule_catches_both_shapes():
    code = ('a = int(tree["stride"])\n'
            'b = tuple(int(v) for v in meta["image_size"])\n'
            'c = value_of(tree, "stride", int)\n'
            'd = tuple(int(v) for v in values)\n')
    assert casts_of_json_values(ast.parse(code)) == [1, 2]


def test_no_reader_casts_a_json_value():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in casts_of_json_values(tree)]
    assert not found, f"cast of a JSON value, use binio.value_of: {found}"
