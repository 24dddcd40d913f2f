"""Helpers shared by the test files: schemes built from the integers the
oracle takes, a stand-in for work that must not start, and the peak
memory of a call."""

import tracemalloc

from gridlabel import LabelingScheme


def hand_built(a, b, c, k=3):
    """The scheme (a*x + b*y) mod c for parameter k, whatever a, b and c."""
    return LabelingScheme(k=k, p=k // 2, parity_case="hand-built", a=a, b=b, c=c)


def plain(scheme):
    """(a, b, c, k): the integers an oracle takes in place of a scheme."""
    return scheme.a, scheme.b, scheme.c, scheme.k


def no_work(*_args, **_kwargs):
    raise AssertionError("work started that should have been refused first")


def peak_traced_bytes(call):
    """call()'s result and the peak of the memory tracemalloc traced in it."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
