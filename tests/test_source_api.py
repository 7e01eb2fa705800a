"""Every public name in ``src/randquad`` has a use in the package itself.

A public top-level function or class, or a public method or property of
such a class, that only tests call is a second API to keep working with no
driver, subcommand or paper claim behind it.  Each one must be named in the
package outside its own definition, or exported in ``randquad.__all__``, or
listed below (a method as ``Class.method``) with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

import randquad

SOURCE = Path(__file__).resolve().parents[1] / "src" / "randquad"

KEPT_FOR_TESTS = {
    "as_rate_check": "checks the paper's almost-sure rate claim (acceptance criterion 9)",
    "ASRateCheck.first_passing_index": "acceptance criterion 9",
    "BrownianIntegrand.value_at": "the `value_at` oracle that tests check the reference against",
}


def _names(node):
    """Every name read or set in ``node``, as a bare name or an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """(listed name, bare name, node) of every public top-level function and
    class, and of every public method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
        for method in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                yield f"{node.name}.{method.name}", method.name, method


def unused_public_names():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))]
    everywhere = sum((_names(tree) for tree in trees), Counter())
    return {
        listed
        for tree in trees
        for listed, name, node in _public_definitions(tree)
        if everywhere[name] == _names(node)[name] and listed not in randquad.__all__
    }


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() - KEPT_FOR_TESTS.keys() == set()


def test_every_listed_exception_is_still_unused():
    # An exception whose name the package has come to use is stale.
    assert KEPT_FOR_TESTS.keys() <= unused_public_names()
