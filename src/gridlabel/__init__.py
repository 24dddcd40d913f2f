"""Distance-constrained labelings of the infinite square grid.

Vertices at Manhattan distance r <= k must receive labels differing by
at least k+1-r. The package builds linear modular schemes
L(x, y) = (a*x + b*y) mod c for any supported k, verifies them
exhaustively (offset-diamond reduction plus independent windowed brute
force), audits the no-hole property, computes lower/upper bounds with
exact rational ratios, and provides an exact branch-and-prune search on
small patches as independent ground truth.

Importing the package runs none of its five layers. Each is registered
in sys.modules and on the package as a module whose source runs on its
first attribute read, once, under one lock; ``import gridlabel.verifier``
and ``from gridlabel.verifier import ...`` work as for any module. A
public name is looked up in its layer on first use, through the table
below, and then bound here, so later reads cost a dict lookup.
"""

import _thread
import sys as _sys
import types as _types
from importlib.machinery import PathFinder as _PathFinder
from importlib.util import module_from_spec as _module_from_spec

# layer -> the public names read from it, in __all__'s order.
_LAYERS = {
    "lattice": ("Vertex", "sphere", "ball", "t_set"),
    "scheme": ("LabelingScheme", "UnsupportedK", "scheme_params", "label",
               "label_many", "label_rows", "label_window", "lambda_ub",
               "ODD_K_ODD_P", "ODD_K_EVEN_P", "EVEN_K_ODD_P", "EVEN_K_EVEN_P",
               "GCD_AB_ALLOWED"),
    "verifier": ("ViolationReport", "VerificationVerdict", "NoHoleReport",
                 "BudgetExceeded", "label_difference", "check_diamond",
                 "check_window", "window_pairs", "check_no_hole"),
    "bounds": ("LowerBound", "BoundsRecord", "lambda_lb", "lb_summation",
               "ratio", "bounds_table", "EVEN_K", "ODD_K"),
    "search": ("Patch", "PatchSearchResult", "InvalidPatch", "exact_span",
               "probe_feasible"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)

_lock = _thread.RLock()


class _Layer(_types.ModuleType):
    """A layer whose source has not run yet.

    The first attribute it lacks runs the source under _lock, and only
    then sets the class back to ModuleType: a thread that finds the
    class changed finds the layer complete, and one that does not waits
    for the lock.
    """

    def __getattr__(self, name):
        _run(self)
        return getattr(self, name)

    def __dir__(self):
        _run(self)
        return dir(self)


def _run(layer):
    with _lock:
        # Not "is _Layer": a reload of the package makes a new _Layer
        # class, and the layers it keeps are instances of the old one.
        if type(layer) is not _types.ModuleType:
            layer.__spec__.loader.exec_module(layer)
            layer.__class__ = _types.ModuleType


def _register(name):
    """The layer's module, registered in sys.modules unless it already is:
    a reload keeps the layers it finds."""
    full = f"{__name__}.{name}"
    if full not in _sys.modules:
        module = _module_from_spec(_PathFinder.find_spec(full, __path__))
        module.__class__ = _Layer
        _sys.modules[full] = module
    return _sys.modules[full]


globals().update({name: _register(name) for name in _LAYERS})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
