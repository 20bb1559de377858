"""Whitehead-graph and arc-system decisions for free groups and graphs of groups.

The Whitehead descent, the Cayley-tree ball, the arc systems and the
graphs of groups (``whitehead``, ``tree``, ``arcs`` and ``gog``) run only
when first used.  Each is in ``sys.modules`` from the start as a module
whose code runs when one of its attributes is first read, as with
``importlib.util.LazyLoader`` but safe when two threads read at once, and
the package's names from them resolve on first access (PEP 562).  So a
command runs only the modules it needs.
"""

import _thread
import sys as _sys
from importlib.util import find_spec as _find_spec, module_from_spec as _module_from_spec
from types import ModuleType as _ModuleType

from .errors import (
    DEFAULT_VERTEX_CAP,
    FreesplitError,
    InternalConsistencyError,
    InvalidInputError,
    ParseError,
    ResourceCapError,
    UnsupportedExportError,
)
from .words import (
    Alphabet,
    CyclicWord,
    FreeGroupMap,
    MultiplierAutomorphism,
    cyclic_reduce,
    conjugacy_class_rep,
    format_word,
    free_reduce,
    parse_word,
    total_cyclic_length,
)
from .graphs import Multigraph

# The public names of the lazy modules, each with the module that holds it.
_EXPORTS = {
    **dict.fromkeys((
        "DECOMPOSABLE", "INDECOMPOSABLE", "IndecomposabilityVerdict", "MinimizationTrace",
        "build_whitehead_graph", "decide_indecomposable", "family_from_texts", "minimize",
        "recognize_basis", "whitehead_moves",
    ), "whitehead"),
    **dict.fromkeys(("TreeBall", "build_ball", "predicted_vertex_count"), "tree"),
    **dict.fromkeys((
        "Axis", "Interval", "StarCertificate", "SubtreeAnalysis", "analyze_subtree",
        "class_count_profile", "edge_arc_count", "edge_counts", "enumerate_axes",
        "lemma33_certificate", "star_graph",
    ), "arcs"),
    **dict.fromkeys((
        "CyclicVertex", "EdgeSpec", "FreeVertex", "GraphOfGroups", "NOT_ONE_ENDED",
        "ONE_ENDED", "OneEndednessVerdict", "OpaqueVertex", "double", "one_ended",
        "parse_gog", "presentation", "serialize_gog", "trivial_vertices", "validate",
    ), "gog"),
}


_LOCK = _thread.RLock()
_RUNNING = set()


class _Deferred(_ModuleType):
    """A submodule whose code runs when one of its attributes is first read.

    The run holds a lock, so another thread waits for it rather than read a
    half-run module; the run's own reads, such as its loader's, pass through.
    """

    def __getattribute__(self, name):
        if type(self) is _Deferred:
            with _LOCK:
                if type(self) is _Deferred and self not in _RUNNING:
                    _RUNNING.add(self)
                    try:
                        _ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                        self.__class__ = _ModuleType
                    finally:
                        _RUNNING.discard(self)
        return _ModuleType.__getattribute__(self, name)


def _deferred(name):
    spec = _find_spec(f"{__name__}.{name}")
    module = _sys.modules[spec.name] = _module_from_spec(spec)
    module.__class__ = _Deferred
    return module


whitehead, tree, arcs, gog = map(_deferred, ("whitehead", "tree", "arcs", "gog"))


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__all__ = sorted({name for name in [*globals(), *_EXPORTS] if not name.startswith("_")})
__version__ = "0.1.0"
