"""Every public name in ``src/randquad`` has a use in the package itself.

A public top-level function or class that only tests call is a second API
to keep working with no driver, subcommand or paper claim behind it.  Each
one must be named in the package outside its own definition, or exported
in ``randquad.__all__``, or listed below with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

import randquad

SOURCE = Path(__file__).resolve().parents[1] / "src" / "randquad"

KEPT_FOR_TESTS = {
    "as_rate_check": "checks the paper's almost-sure rate claim (acceptance criterion 9)",
}


def _names(node):
    """Every name read or set in ``node``, as a bare name or an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def unused_public_names():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))]
    everywhere = sum((_names(tree) for tree in trees), Counter())
    unused = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if everywhere[node.name] == _names(node)[node.name] and node.name not in randquad.__all__:
                    unused.add(node.name)
    return unused


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() - KEPT_FOR_TESTS.keys() == set()


def test_every_listed_exception_is_still_unused():
    # An exception whose name the package has come to use is stale.
    assert KEPT_FOR_TESTS.keys() <= unused_public_names()
