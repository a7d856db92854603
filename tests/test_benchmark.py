"""The benchmark harness can find the package names it wraps.

perfbench/tracer.py looks up every attribute in its WRAPPED table when it
is imported, so one name the package no longer has makes every benchmark
run fail. The table is read from the tracer's source, so the tracer can
be rewired without editing this test.
"""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "tracer.py")


def wrapped_names():
    """(module, attribute) of every WRAPPED entry, from the source."""
    with open(TRACER, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WRAPPED"]):
            return [(entry.elts[0].id, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no WRAPPED")


def test_every_name_the_tracer_wraps_resolves():
    names = wrapped_names()
    assert names
    missing = [f"{module}.{attribute}" for module, attribute in names
               if not hasattr(importlib.import_module("tropfit." + module),
                              attribute)]
    assert missing == []
