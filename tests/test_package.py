"""The package's public namespace, its result records and the README's
library example."""

import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import gridlabel
import oracle
from conftest import RAN, hand_built, no_work, run_python
from gridlabel import scheme, search, verifier

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_all_resolves():
    missing = [name for name in gridlabel.__all__ if not hasattr(gridlabel, name)]
    assert missing == []
    assert len(set(gridlabel.__all__)) == len(gridlabel.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from gridlabel import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(gridlabel.__all__)


def test_readme_library_example_prints_what_it_says():
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    env = dict(os.environ,
               PYTHONPATH=str(Path(gridlabel.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", example], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    assert lines[0] == "LowerBound(exact=Fraction(74, 1), ceiled=74)"
    assert lines[1] == "46/37"
    assert "minimal_lambda=5" in lines[2] and "exhausted=True" in lines[2]


# ----------------------------------------------------------- lazy layers

LAYERS = ("lattice", "scheme", "verifier", "bounds", "search")


def fresh_python(script):
    """stdout of script, run in a new interpreter after RAN."""
    return run_python("-c", RAN + script)


def test_a_public_name_runs_only_the_layer_that_defines_it():
    # The layer that defines a name: the module of a class or function,
    # else the one layer that holds the name.
    homes = fresh_python("""
import gridlabel
for name in gridlabel.__all__:
    module = getattr(getattr(gridlabel, name), "__module__", "").removeprefix("gridlabel.")
    print(module if module in LAYERS else
          " ".join(l for l in LAYERS if name in vars(getattr(gridlabel, l))))
""").split()
    assert len(homes) == len(gridlabel.__all__) and set(homes) == set(LAYERS)
    # In a new interpreter, the names in __all__'s order, and the layers
    # run after each.
    runs = fresh_python("""
import gridlabel
assert ran() == set() and not any(name in vars(gridlabel) for name in gridlabel.__all__)
for name in gridlabel.__all__:
    getattr(gridlabel, name)
    print(*sorted(ran()))
""").splitlines()
    assert runs == [" ".join(sorted(set(homes[:i + 1]))) for i in range(len(homes))]


def test_layers_keep_the_module_surface():
    # dir() lists the same public names before any layer runs as after, a
    # layer's dir() runs it, and a reload of the package keeps the layers
    # it finds, run or not.
    fresh_python("""
import importlib, gridlabel, gridlabel.verifier
public = sorted([*gridlabel.__all__, *LAYERS])
assert [n for n in dir(gridlabel) if not n.startswith("_")] == public
assert ran() == set() and "exact_span" in dir(gridlabel.search) and ran() == {"search"}
modules = [sys.modules["gridlabel." + layer] for layer in LAYERS]
importlib.reload(gridlabel)
assert [getattr(gridlabel, layer) for layer in LAYERS] == modules
assert gridlabel.verifier is sys.modules["gridlabel.verifier"] is modules[2]
from gridlabel.verifier import check_window
assert gridlabel.check_window is check_window and ran() == {"search", "verifier", "scheme"}
assert [n for n in dir(gridlabel) if not n.startswith("_")] == public
""")


# Eight threads wait at a barrier, then each reads one name of every
# layer by three routes, the route of the first read turning with the
# thread. Prints what the threads raised, how many are still running,
# and per layer the number of distinct objects the threads read: 1 when
# the layer ran once.
FIRST_TOUCH = """
import json, threading
import gridlabel
NAMES = {"lattice": "ball", "scheme": "LabelingScheme", "verifier": "VerificationVerdict",
         "bounds": "BoundsRecord", "search": "Patch"}
def from_import(statement):
    namespace = {}
    exec(statement, namespace)
    return namespace["value"]

ROUTES = [
    lambda layer, name: getattr(gridlabel, name),
    lambda layer, name: from_import(f"from gridlabel.{layer} import {name} as value"),
    lambda layer, name: getattr(getattr(gridlabel, layer), name),
]
THREADS = 8
barrier = threading.Barrier(THREADS)
seen, errors = {layer: set() for layer in NAMES}, []

def touch(i):
    try:
        barrier.wait(timeout=30)
        for r in range(len(ROUTES)):
            for layer, name in NAMES.items():
                seen[layer].add(id(ROUTES[(i + r) % len(ROUTES)](layer, name)))
    except BaseException as exc:
        errors.append(repr(exc))

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=touch, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
finally:
    sys.setswitchinterval(interval)
print(json.dumps([errors, sum(t.is_alive() for t in threads),
                  {layer: len(ids) for layer, ids in seen.items()}]))
"""


def test_threads_that_first_touch_a_layer_together_see_it_run_once():
    errors, running, distinct = json.loads(fresh_python(FIRST_TOUCH))
    assert (errors, running) == ([], 0)
    assert distinct == dict.fromkeys(LAYERS, 1)


RECORDS = {
    "LabelingScheme": gridlabel.scheme_params(7),
    "Patch": gridlabel.Patch(2, 3),
    "PatchSearchResult": gridlabel.exact_span(gridlabel.Patch(2, 3), 3),
    "ViolationReport": gridlabel.ViolationReport((1, 0), 1, 3, 2),
    # (x + y) mod 12 fails k = 3, so the verdict holds violation records.
    "VerificationVerdict": gridlabel.check_window(
        gridlabel.LabelingScheme(3, 1, "hand-built", 1, 1, 12), 3, 3),
    "NoHoleReport": gridlabel.check_no_hole(gridlabel.scheme_params(7), "gcd"),
    "LowerBound": gridlabel.lambda_lb(7),
    "BoundsRecord": gridlabel.bounds_table(3, 3)[0],
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS)
def test_result_records_are_immutable_and_pickle(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)
    assert repr(back) == repr(record)
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1



def test_the_test_oracle_needs_nothing_from_the_package():
    # Every expected result comes from tests/oracle.py, which must load and
    # compute with the package unimportable.
    assert "gridlabel" not in (ROOT / "tests" / "oracle.py").read_text()
    script = ("import sys; sys.modules['gridlabel'] = None; import oracle; "
              "assert oracle.check_diamond(5, 15, 12, 3) == (True, 24, ()); "
              "assert oracle.perturbed([3]) and oracle.packing_chain_bound(3) == 10; "
              "assert oracle.render_label(5, 15, 12, 3, 1, '', 0, 0, 2, 1, 'json'); "
              "assert oracle.render_bounds(1, 3, 'ascii').count('\\n') == 4; "
              "assert oracle.probe_feasible(2, 2, 2, 5, 100)[0] is True")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT / "tests",
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------ integer arguments

BIG = 2**62  # products of two such coordinates wrap in int64
S3, S7, S9190 = (gridlabel.scheme_params(k) for k in (3, 7, 9190))
# (x + y) mod 12 fails k = 3, so a window or diamond reports violations.
MUTANT = hand_built(1, 1, 12)
DIMS = "window must have positive dimensions"
K = "k must be a positive integer"


class Row(NamedTuple):
    """One public entry point: call(*args) with args its integer arguments."""

    name: str  # the gridlabel.__all__ name call exercises
    call: Callable
    args: tuple  # Python ints
    refused: tuple = ()  # (args, message): call(*args) raises ValueError(message)
    want: object = None  # call(*args), from the oracle, where given


def labels_of_a_built_scheme(k, p, a, b, c):
    s = gridlabel.LabelingScheme(k, p, "hand-built", a, b, c)
    x0, y0 = 2**30, -7
    return (s, gridlabel.label(s, (x0, 0)),
            list(gridlabel.label_rows(s, x0, 3, range(y0, y0 + 2))),
            gridlabel.label_window(s, x0, y0, 3, 2),
            gridlabel.label_many(s, np.arange(x0, x0 + 3), y0))


ROWS = [
    *(Row(name, getattr(gridlabel, name), (3,), (((-1,), "radius must be non-negative"),))
      for name in ("sphere", "ball", "t_set")),
    Row("LabelingScheme", labels_of_a_built_scheme, (3, 1, 2**40, 1, 2**62 + 1),
        (((0, 1, 2, 5, 7), K), ((-3, 1, 2, 5, 7), K),
         ((3, 1, 2, 5, 0), "modulus c must be >= 1, got 0"),
         ((3, 1, 2, 5, -7), "modulus c must be >= 1, got -7"))),
    # The cube in c, and in the lower bound, of each k wraps in int64.
    *(Row(name, getattr(gridlabel, name), (k,), (((0,), K), ((-3,), K)))
      for name in ("scheme_params", "lambda_ub", "lambda_lb", "ratio")
      for k in (3000001, 3000002, 2**40 + 1)),
    Row("label", lambda x, y: gridlabel.label(S3, (x, y)), (BIG, BIG),
        want=oracle.label(5, 15, 12, BIG, BIG)),
    Row("label_rows", lambda x0, width, y: list(gridlabel.label_rows(S3, x0, width, [y])),
        (BIG, 2, BIG), (((0, 0, 0), DIMS),),
        want=oracle.label_grid(5, 15, 12, BIG, BIG, 2, 1)),
    Row("label_window", lambda *window: gridlabel.label_window(S3, *window).tolist(),
        (BIG, -BIG, 3, 2), (((0, 0, 0, 5), DIMS),),
        want=oracle.label_grid(5, 15, 12, BIG, -BIG, 3, 2)),
    *(Row("label_many", lambda x, y, s=s: gridlabel.label_many(s, [x, -x], y).tolist(),
          (BIG, BIG), want=oracle.broadcast_labels(s.a, s.b, s.c, [BIG, -BIG], BIG))
      for s in (S3, S9190)),  # the int64 path and the exact one
    Row("label_difference", lambda x: (gridlabel.label_difference(S7, (x, 0), (-x, 0)),
                                       gridlabel.label_difference(S7, (-x, 0), (x, 0))),
        (BIG,), want=(4, 4)),
    Row("window_pairs", gridlabel.window_pairs, (1000, 10**8, 10**8),  # past 2^63
        (*(((k, w, h), K) for k in (0, -3) for w, h in [(5, 5), (3, 1)]),
         *(((3, w, h), DIMS) for n in (0, -2) for w, h in [(n, 5), (5, n), (n, n)]))),
    Row("check_window", lambda *args: gridlabel.check_window(MUTANT, *args[:3],
                                                             x0=args[3], y0=args[4]),
        (10, 10, 2, BIG, -BIG),
        (*(((w, h, 2, 0, 0), DIMS) for n in (0, -2) for w, h in [(n, 5), (5, n), (n, n)]),
         ((0, 10, 2, 0, 0), DIMS),
         ((10, 10, -1, 0, 0), "max_violations must be >= 0, got -1"))),
    Row("check_diamond", lambda cap: gridlabel.check_diamond(MUTANT, cap), (2,),
        (((-1,), "max_violations must be >= 0, got -1"),)),
    # c^2 = 144 labels k = 3's period: that budget is enough, and inclusive.
    *(Row("check_no_hole", lambda budget, mode=mode: gridlabel.check_no_hole(S3, mode, budget),
          (budget,), (((-5,), "pair_budget must be >= 0, got -5"),))
      for mode, budget in [("gcd", 0), ("enumerate", 144), ("both", 10**6)]),
    Row("lb_summation", lambda p: gridlabel.lb_summation(p, gridlabel.ODD_K), (3,),
        (((0,), "p must be >= 1"),)),
    Row("lb_summation", lambda p: gridlabel.lb_summation(p, gridlabel.EVEN_K), (2,),
        (((0,), "p must be >= 1"),)),
    Row("bounds_table", gridlabel.bounds_table, (3000001, 3000002),
        (((5, 3), "need 1 <= k_min <= k_max"), ((0, 3), "need 1 <= k_min <= k_max"))),
    Row("Patch", gridlabel.Patch, (2, 3),
        (((0, 3), "patch needs positive dimensions, got 0x3"),
         ((3, -1), "patch needs positive dimensions, got 3x-1"))),
    # Proven, stopped by the budget, and a k whose gap bands pass 64 bits.
    *(Row("exact_span", lambda k, budget, p=patch: gridlabel.exact_span(p, k, budget),
          (k, budget), (((0, budget), K), ((-3, budget), K),
                        ((k, 0), "node budget must be positive")))
      for patch, k, budget in [(gridlabel.Patch(2, 2), 3, 10**7),
                               (gridlabel.Patch(3, 3), 4, 12345),
                               (gridlabel.Patch(2, 2), 100, 1000)]),
    Row("probe_feasible", lambda *args: gridlabel.probe_feasible(gridlabel.Patch(2, 2), *args),
        (100, 300, 1000), (((0, 300, 1000), K), ((-3, 300, 1000), K))),
]

# The labelling and search kernels: a float argument is refused before any runs.
KERNELS = [(scheme, "_progression"), (scheme, "_label_int64"),
           (verifier, "_label_grid"), (verifier, "label_window"), (verifier, "label"),
           (verifier, "_mark_row"), (search, "_gap_constraints"), (search, "_probe"),
           (search, "_greedy")]
# Records the package returns and exceptions it raises, built from
# integers it has already read.
RESULTS = {"ViolationReport", "VerificationVerdict", "NoHoleReport", "LowerBound",
           "BoundsRecord", "PatchSearchResult", "UnsupportedK", "BudgetExceeded"}
# Entry points that take their integers inside a vertex or an array.
COORDINATES = {"label", "label_difference", "label_many"}


def python_ints(value):
    """value as nested lists, every integer in it checked to be a Python int."""
    if isinstance(value, np.ndarray):
        return ["ndarray", value.dtype.str, python_ints(value.tolist())]
    if isinstance(value, Fraction):
        value = (value.numerator, value.denominator)
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list)):
        return [type(value).__name__, *map(python_ints, value)]
    assert type(value) in (int, bool, str, type(None)), (value, type(value))
    return value


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row.name}{row.args}")
def test_integer_arguments(monkeypatch, row):
    # An np.int64 is read as the Python int it holds, so no product wraps
    # (RuntimeWarning is an error under this suite's settings), and every
    # integer in the result is a Python int.
    want = python_ints(row.call(*row.args))
    if row.want is not None:
        assert want == python_ints(row.want)
    assert python_ints(row.call(*map(np.int64, row.args))) == want
    for refused, message in row.refused:
        for args in (refused, tuple(map(np.int64, refused))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                row.call(*args)
    for module, name in KERNELS:
        monkeypatch.setattr(module, name, no_work)
    for i in range(len(row.args)):
        args = list(row.args)
        args[i] = float(args[i])
        with pytest.raises(TypeError, match="integer"):
            row.call(*args)


def test_every_name_with_an_integer_parameter_has_a_row():
    def int_parameters(obj):
        try:
            parameters = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            return False
        return any("int" in str(p.annotation) for p in parameters)

    with_ints = {name for name in gridlabel.__all__
                 if callable(getattr(gridlabel, name))
                 and int_parameters(getattr(gridlabel, name))}
    assert with_ints - RESULTS == {row.name for row in ROWS} - COORDINATES
