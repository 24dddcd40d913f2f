"""Helpers shared by the test files: schemes built from the integers the
oracle takes, a stand-in for work that must not start, the peak memory
of a call, and the rows of the agreement tables."""

import tracemalloc
from typing import Callable, NamedTuple

from hypothesis import given, settings

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


# Each of the paper's claims has one agreement table: its columns are the
# package's routes to the claim, each a Column, and its rows are named
# corpora, each a Row run by one test named for what it checks. A new
# route is one more column, a new corpus one more row.

class Column(NamedTuple):
    domain: Callable  # case -> whether the route runs it within its budget
    agrees: Callable  # case -> None: runs the route, asserts its references
    key: Callable = lambda case: case  # case -> the inputs the route reads


class Row(NamedTuple):
    cases: object  # a function listing the cases, or a strategy drawing them
    covers: set  # the columns whose domain reaches some case
    max_examples: int = 0  # draws from the strategy; 0 for a list


def check_row(columns, row, only=None):
    """Run the columns named in only (all by default) on each distinct
    input of the row in their domain; assert which of them it reaches."""
    names = set(columns) if only is None else only
    covered = set()

    def run(cases):
        for name, column in columns.items():
            if name not in names:
                continue
            todo = {column.key(case): case for case in cases if column.domain(case)}
            if todo:
                covered.add(name)
            for case in todo.values():
                column.agrees(case)

    if row.max_examples:
        @settings(max_examples=row.max_examples, deadline=None)
        @given(row.cases)
        def draw(case):
            run([case])

        draw()
    else:
        run(row.cases())
    assert covered == row.covers & names
