"""Totals and means added in one order on every supported CPython.

Builtin ``sum()`` adds from the int ``0``, left to right, through
CPython 3.11.  From 3.12 on, ``sum()`` of floats is compensated
(Neumaier summation), so a total of three or more floats can differ
in the last bit between interpreters: ``sum([0.1, 0.2, 0.3])`` is
``0.6000000000000001`` on 3.11 and ``0.6`` on 3.12.  Every committed
fact is pinned to the bit, so every total in :mod:`repro` is added by
:func:`ordered_sum`, which performs the 3.11 additions on every
interpreter.  An int total is exact in either order; it goes through
the same helper so that no caller has to prove its terms are ints.
``tests/test_docs_consistency.py`` fails on any builtin ``sum()`` in
``src/`` but a count, ``sum(1 for ...)``.

A loop that builds something else in the same pass (a count, a list)
adds left to right from the int ``0`` itself and points here.
"""


def ordered_sum(values):
    """``values`` added left to right from the int ``0``: builtin
    ``sum(values)`` as CPython 3.11 computes it.  Empty input gives
    the int ``0``."""
    total = 0
    for value in values:
        total += value
    return total


def ordered_mean(values):
    """The :func:`ordered_sum` of ``values`` over their count; ``0.0``
    for empty input."""
    values = list(values)
    return ordered_sum(values) / len(values) if values else 0.0
