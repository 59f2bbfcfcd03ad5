"""Stub kept only for the benchmark tracer.

``perfbench/tracing.py`` imports this module and wraps
:func:`rewrite_plan`; nothing in the engine calls it.  The cost-based
optimizer alone shapes a query's physical plan, and the executor only
fuses it.
"""


def rewrite_plan(root, table_arity=None, **_):
    """Return ``root`` unchanged with no rewrite decisions."""
    return root, []
