"""The package's public namespace, its result records and the README's
library example."""

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridlabel

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
