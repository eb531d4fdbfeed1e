"""Span recorder that wraps the public functions of every dickelat module.

Nothing under src/ changes: `install` replaces each public module-level
function with a wrapper and rebinds every dickelat namespace that holds the
original (``from .basis import enumerate_basis`` makes a second binding), so
the spans follow the program's real call sequence.  Spans stay in memory
until the worker writes them out at the end of its run.
"""

import functools
import importlib
import inspect
import itertools
import resource
import threading
import time

MODULES = (
    "algebra", "analysis", "basis", "cli", "hamiltonian", "observables", "pipeline", "solver",
)

# pipeline.fmt formats one CSV cell and runs ~10^5 times per run; a span per
# call would cost more than the write it sits inside.
SKIP = {"pipeline.fmt"}


def _maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records (name, start, end, parent, run id) spans plus a few per-call
    attributes that the per-layer metrics need."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._last_op = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "run": self.run_id,
                "failed": False,
            }
            label = self._label(name, args, kwargs)
            if label is not None:
                span["label"] = label
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                span["maxrss_mib"] = _maxrss_mib()
                stack.pop()
                self.spans.append(span)
            span.update(_attrs(name, args, result))
            return result

        return wrapper

    def _label(self, name, args, kwargs):
        # expectation() gets only a matrix; the operator it belongs to is the
        # one whose peres_matrix() ran last, as in pipeline.run_sector.
        if name == "observables.peres_matrix":
            self._last_op = args[0] if args else kwargs.get("op_kind")
            return self._last_op
        if name == "observables.expectation":
            return self._last_op
        return None


def _attrs(name, args, result):
    if name == "solver.eigh":
        return {"dim": int(args[0].dim)}
    if name.startswith("hamiltonian.build_"):
        return {"dim": int(result.dim)}
    if name == "observables.delta_p":
        return {"converged": int(result.converged_count)}
    return {}


def dickelat_modules():
    import dickelat

    mods = [importlib.import_module(f"dickelat.{m}") for m in MODULES]
    return mods, [dickelat, *mods]


def install(tracer):
    """Wrap every public function defined in a dickelat module."""
    mods, namespaces = dickelat_modules()
    wrapped = {}
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in SKIP
            ):
                wrapped[id(obj)] = tracer.wrap(name, obj)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrapped:
                setattr(ns, attr, wrapped[id(obj)])
