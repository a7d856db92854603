"""The benchmark harness can find the package names it wraps.

perfbench/tracer.py looks up every attribute in its WRAPPED table and
every method of its COUNTED_METHODS table, in the class's own __dict__,
when it is imported, so one name the package no longer has, or a method
moved to a base class, makes every benchmark run fail. The tables are
read from the tracer's source, so the tracer can be rewired without
editing this test.
"""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "tracer.py")


def tracer_table(name):
    """The entries of the tuple the tracer assigns to name, as ast nodes."""
    with open(TRACER, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [name]):
            return node.value.elts
    raise AssertionError(f"perfbench/tracer.py defines no {name}")


def wrapped_names():
    """(module, attribute) of every WRAPPED entry, from the source."""
    return [(entry.elts[0].id, entry.elts[1].value)
            for entry in tracer_table("WRAPPED")]


def counted_methods():
    """(module, class, method) of every COUNTED_METHODS entry."""
    return [(entry.elts[0].value.id, entry.elts[0].attr, method.value)
            for entry in tracer_table("COUNTED_METHODS")
            for method in entry.elts[1].elts]


def test_every_name_the_tracer_wraps_resolves():
    names = wrapped_names()
    assert names
    missing = [f"{module}.{attribute}" for module, attribute in names
               if not hasattr(importlib.import_module("tropfit." + module),
                              attribute)]
    assert missing == []


def test_every_method_the_tracer_counts_is_defined_in_its_class():
    methods = counted_methods()
    assert methods
    missing = [f"{cls}.{method}" for module, cls, method in methods
               if method not in vars(getattr(
                   importlib.import_module("tropfit." + module), cls))]
    assert missing == []
