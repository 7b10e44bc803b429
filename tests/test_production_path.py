"""The production path stays lean: every function, class and method of
the package is used by the package itself, or is named here with the
reason it stays."""

import ast
import os

import opengw

# module.qualified name -> why it stays although nothing in the package
# references it
UNREFERENCED = {
    "bounding_chain.assemble_chain":
        "the one-chain entry point the tests compare the memoized family "
        "sums of build_chains against",
    "lattice.Target.degeneration_classes":
        "perfbench/tracer.py wraps it by name (its METHODS)",
}


def _unreferenced():
    """The top-level functions and classes, and the methods, of the
    package's modules whose name no Name or Attribute node of the
    package mentions, as module.qualified names.  Dunder methods are
    called by the language, not by name, and are left out."""
    package = os.path.dirname(opengw.__file__)
    defined = []
    referenced = set()
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        module = filename[:-3]
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module + "." + node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module + "." + node.name + "." + sub.name,
                             sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {qualified for qualified, name in defined
            if name not in referenced
            and not (name.startswith("__") and name.endswith("__"))}


def test_every_unreferenced_definition_is_listed_with_its_reason():
    """A function, class or method that only the tests call belongs in
    the test suite, not the package.  The list holds exactly what the
    scan finds, so an entry that is referenced again, or gone, is
    dropped from it too."""
    assert _unreferenced() == set(UNREFERENCED)
    assert all(UNREFERENCED.values())
