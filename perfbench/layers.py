"""In-memory span tracer over the toeplitz_forge layers.

The tracer measures the library from outside: it replaces the public
functions of each layer module with timing wrappers and records one span
per call.  A span holds its name, the operation it belongs to, its parent
span on the same thread, the wall and thread-CPU interval, an error flag
and, for a few names, a key built from the call's arguments.  Spans stay
in memory until the owner summarizes or dumps them.

Layers are the library's modules.  A layer's interface is its public
module-level functions, plus the public methods of the model geometries
(the geometry layer's objects) and the arithmetic of the two truncated
rings, ``PowerSeries`` and ``PairFamily``.  Every namespace that binds a
wrapped object is patched, so ``from .x import f`` aliases and method
aliases such as ``__rmul__ = __mul__`` are traced as well.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = (
    "cli",
    "combinatorics",
    "series",
    "function_spaces",
    "geometry",
    "stationary_phase",
    "covariant_calculus",
    "quantization_spectral",
    "_kernels",
)

# ring arithmetic that does real work; bookkeeping methods stay untraced
RING_METHODS = {
    "series": {"PowerSeries": ("__mul__", "__pow__", "__truediv__", "exp", "log", "reciprocal", "substitute")},
    "stationary_phase": {"PairFamily": ("__mul__", "__pow__", "__truediv__", "exp", "log", "reciprocal")},
}


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter, so ``_kernels`` reports as ``kernels``."""
    return layer.lstrip("_")


def _digest(array) -> str:
    return hashlib.sha1(array.tobytes() + repr(array.shape).encode()).hexdigest()


def _value_key(value):
    """A hashable, process-independent stand-in for one argument."""
    if value is None or isinstance(value, (bool, int, float, complex, str)):
        return value
    if hasattr(value, "compact") and hasattr(value, "name"):  # model geometry
        return ("geometry", value.name)
    coeffs = getattr(value, "coeffs", None)
    if hasattr(coeffs, "tobytes"):  # truncated ring element
        return (type(value).__name__, _digest(coeffs))
    return (type(value).__name__,)


def _bound_key(fn):
    signature = inspect.signature(fn)

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple((name, _value_key(v)) for name, v in bound.arguments.items())

    return key


def _conv_pair_key(args, kwargs):
    bound = dict(zip(("a", "b", "pair_cap", "param_cap", "diag_only"), args), **kwargs)
    return (
        tuple(bound["a"].shape),
        tuple(bound["b"].shape),
        int(bound["pair_cap"]),
        int(bound["param_cap"]),
        bool(bound.get("diag_only", False)),
    )


# names whose spans also carry an argument key; factories take the original
KEYED = {
    "covariant_calculus.bergman_symbol": _bound_key,
    "stationary_phase.morse_normalize_family": _bound_key,
    "_kernels.conv_pair": lambda fn: _conv_pair_key,
}

# span record fields
SID, PARENT, NAME, OP, THREAD, T0, T1, C0, C1, ERROR, KEY = range(11)


class Tracer:
    """Wraps the library's public names and keeps every call's span in memory.

    ``op`` is process-wide on purpose: the benchmark runs one operation at a
    time, so spans from the library's own pool threads carry the id of the
    operation that started them.
    """

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.op = None
        self._ids = itertools.count()
        self._tls = threading.local()
        self._patches: list = []

    # -- wrapping ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        keyer = KEYED[name](fn) if name in KEYED else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [next(tracer._ids), stack[-1] if stack else None, index, tracer.op,
                    threading.get_ident(), 0.0, 0.0, 0.0, 0.0, False, None]
            if keyer is not None:
                span[KEY] = keyer(args, kwargs)
            tracer.spans.append(span)
            stack.append(span[SID])
            span[C0] = time.thread_time()
            span[T0] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[T1] = time.perf_counter()
                span[C1] = time.thread_time()
                stack.pop()

        return traced

    def _targets(self):
        """(span name, original object) for every traced entry point."""
        for layer in LAYERS:
            module = importlib.import_module(f"toeplitz_forge.{layer}")
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    yield f"{layer}.{attr}", value
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    methods = RING_METHODS.get(layer, {}).get(attr)
                    if methods is None and layer == "geometry" and hasattr(value, "two_phi_tilde"):
                        methods = tuple(m for m in vars(value) if not m.startswith("_"))
                    for meth in methods or ():
                        raw = vars(value).get(meth)
                        func = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if inspect.isfunction(func):
                            label = meth.strip("_").replace("truediv", "div")
                            yield f"{layer}.{attr}.{label}", raw

    def install(self) -> None:
        """Wrap every target and rebind it in every namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        swap = {}
        for name, raw in self._targets():
            if id(raw) in swap:
                continue
            if isinstance(raw, staticmethod):
                swap[id(raw)] = staticmethod(self._wrap(name, raw.__func__))
            else:
                swap[id(raw)] = self._wrap(name, raw)
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "toeplitz_forge"]
        for module in namespaces:
            owners = [module] + [v for v in vars(module).values()
                                 if inspect.isclass(v) and v.__module__ == module.__name__]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if id(value) in swap:
                        self._patches.append((owner, attr, value))
                        setattr(owner, attr, swap[id(value)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        """Names and spans as plain JSON-ready data."""
        return {"names": list(self.names), "spans": [list(s) for s in self.spans]}


@functools.lru_cache(maxsize=None)
def conv_pair_work(key) -> tuple:
    """Computed (flops, bytes) of one ``conv_pair`` call from its array shapes.

    Counts the complex multiply-adds of a dense bi-graded truncated
    convolution: pair degrees add per axis up to pair_cap (equal output
    pair degrees only when diag_only), parameter degrees add up to a total
    of param_cap.  A complex multiply-add is 8 real flops.  Bytes are one
    read of each input and one write of the output, complex128 throughout.
    Zero blocks that the kernel skips are still counted.
    """
    shape_a, shape_b, P, M, diag_only = key

    def sums(n_a, n_b, cap):
        counts = [0] * (cap + 1)
        for x in range(n_a):
            for y in range(n_b):
                if x + y <= cap:
                    counts[x + y] += 1
        return counts

    u = sums(shape_a[0], shape_b[0], P)
    v = sums(shape_a[1], shape_b[1], P)
    pairs = sum(u[s] * v[s] for s in range(P + 1)) if diag_only else sum(u) * sum(v)
    p = sums(shape_a[2], shape_b[2], M)
    q = sums(shape_a[3], shape_b[3], M)
    params = sum(p[s] * q[t] for s in range(M + 1) for t in range(M + 1 - s))
    out_size = (P + 1) ** 2 * (M + 1) ** 2
    size = lambda shape: shape[0] * shape[1] * shape[2] * shape[3]
    return 8 * pairs * params, 16 * (size(shape_a) + size(shape_b) + out_size)


def summarize(dump: dict) -> dict:
    """Additive per-name and per-layer totals over one dump of spans.

    Per name: calls, busy (wall time of calls not nested in a call of the
    same name), self (wall time minus direct children), wait (wall minus
    thread CPU, same spans as busy), errors, and distinct argument keys
    counted per operation.  Per layer: calls, busy (calls not nested in the
    same layer), self and errors.  Durations are thread-seconds: spans on
    the library's pool threads add up.
    """
    names = dump["names"]
    spans = dump["spans"]
    children: dict = {}
    roots = []
    for span in spans:
        if span[PARENT] is None:
            roots.append(span)
        else:
            children.setdefault(span[PARENT], []).append(span)
    per_name: dict = {}
    per_layer: dict = {}
    keys: dict = {}
    work = [0, 0]
    for root in roots:
        todo = [(root, (), ())]
        while todo:
            span, open_names, open_layers = todo.pop()
            name = names[span[NAME]]
            layer = name.split(".", 1)[0]
            wall = span[T1] - span[T0]
            kids = children.get(span[SID], ())
            own = wall - sum(k[T1] - k[T0] for k in kids)
            row = per_name.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
            row[0] += 1
            row[2] += own
            row[4] += bool(span[ERROR])
            if name not in open_names:
                row[1] += wall
                row[3] += wall - (span[C1] - span[C0])
            lrow = per_layer.setdefault(layer, [0, 0.0, 0.0, 0])
            lrow[0] += 1
            lrow[2] += own
            lrow[3] += bool(span[ERROR])
            if layer not in open_layers:
                lrow[1] += wall
            key = span[KEY]
            if key is not None:
                keys.setdefault(name, set()).add((span[OP], repr(key)))
                if name == "_kernels.conv_pair":
                    flops, nbytes = conv_pair_work(tuple(tuple(k) if isinstance(k, list) else k for k in key))
                    work[0] += flops
                    work[1] += nbytes
            inner_names = open_names + (name,)
            inner_layers = open_layers + (layer,)
            todo.extend((kid, inner_names, inner_layers) for kid in kids)
    return {
        "names": {n: {"calls": r[0], "busy_s": r[1], "self_s": r[2], "wait_s": r[3], "errors": r[4],
                      "distinct_args": len(keys.get(n, ()))}
                  for n, r in per_name.items()},
        "layers": {l: {"calls": r[0], "busy_s": r[1], "self_s": r[2], "errors": r[3]}
                   for l, r in per_layer.items()},
        "conv_pair": {"flops_computed": work[0], "bytes_computed": work[1]},
    }


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (all fields are additive)."""
    for section in ("names", "layers"):
        for name, row in part[section].items():
            acc = total.setdefault(section, {}).setdefault(name, dict.fromkeys(row, 0))
            for field, value in row.items():
                acc[field] += value
    work = total.setdefault("conv_pair", {"flops_computed": 0, "bytes_computed": 0})
    for field, value in part["conv_pair"].items():
        work[field] += value
    return total
