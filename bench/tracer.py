"""Outside-in tracing of genform's layers.

The tracer replaces selected public methods and functions of each layer
module with timing wrappers, records calls, inclusive time and self time at
every wrapped boundary, and puts the originals back on ``restore``.  Nothing
inside ``src/`` knows about it.

Three traps shape the patching:

* operator aliases (``__radd__ = __add__``, ``__rmul__ = __mul__``) are
  separate class attributes, so each alias is wrapped on its own;
* functions imported by name (``cartan_residual`` into ``harness``,
  ``run_identity`` into ``cli``, ``parse_session`` into ``harness``) are
  looked up in the importing module, so every module binding of the function
  is patched, not only the defining one;
* an untraced run must never meet a wrapper: ``assert_clean`` checks every
  patch site before an untraced pass starts.

Self time of a boundary is its inclusive time minus the inclusive time of the
wrapped boundaries it called.  Unwrapped helpers (private functions,
properties) count towards the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("scalars", "forms", "generalized", "harness", "session", "cli")

# layer -> (class name or None for module functions) -> attribute -> op name
PATCHES = {
    "scalars": {
        "ScalarField": {
            "__mul__": "mul", "__rmul__": "mul",
            "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
            "__neg__": "neg", "diff": "diff", "from_terms": "from_terms",
            "__eq__": "eq", "__str__": "str", "__repr__": "str", "eval_at": "eval_at",
        },
        "Chart": {"constant": "constant", "coordinate": "coordinate"},
        None: {"coefficient_block": "str"},
    },
    "forms": {
        "Form": {
            "wedge": "wedge", "d": "d", "from_terms": "from_terms",
            "__add__": "add", "__sub__": "add", "__neg__": "neg", "__rmul__": "mul",
            "__eq__": "eq", "__str__": "str", "__repr__": "str",
            "zero": "zero", "from_scalar": "from_scalar", "scalar_part": "scalar_part",
        },
        "VectorField": {
            "contract": "contract", "lie": "lie", "bracket": "bracket", "apply": "apply",
            "__add__": "add", "__sub__": "add", "__neg__": "neg", "__rmul__": "mul",
            "__eq__": "eq", "__str__": "str", "__repr__": "str", "zero": "zero",
        },
        None: {"one_forms": "one_forms", "coordinate_vectors": "coordinate_vectors"},
    },
    "generalized": {
        "GeneralizedForm": {
            "wedge": "wedge", "d": "d",
            "__add__": "add", "__sub__": "add", "__neg__": "neg", "__rmul__": "mul",
            "__eq__": "eq", "__str__": "str", "__repr__": "str",
            "zero": "zero", "from_form": "from_form",
        },
        "GeneralizedVector": {
            "scaled_by": "scaled_by", "contract": "contract",
            "lie_cartan": "lie_cartan", "lie": "lie", "commutator": "commutator",
            "__add__": "add", "__sub__": "add", "__neg__": "neg", "__rmul__": "mul",
            "__eq__": "eq", "__str__": "str", "__repr__": "str",
            "zero": "zero", "from_vector": "from_vector",
        },
        None: {"cartan_residual": "cartan_residual"},
    },
    "harness": {None: {"run_identity": "run_identity"}},
    "session": {
        "Session": {"render": "render"},
        None: {"parse_session": "parse", "substitute": "substitute"},
    },
    "cli": {None: {"main": "main"}},
}

# Ops reported one by one; every other wrapped boundary still counts towards
# its layer's self time.
REPORTED_OPS = {
    "scalars": ("mul", "add", "neg", "diff", "from_terms", "eq", "str", "eval_at"),
    "forms": ("wedge", "d", "from_terms", "contract", "lie", "bracket", "apply"),
    "generalized": ("wedge", "d", "contract", "lie", "lie_cartan", "commutator",
                    "scaled_by", "cartan_residual"),
}
IDENTITY_NAMES = tuple(f"P{i}" for i in range(1, 18))

_MARK = "_genform_bench_wrapper"


def _term_count(value) -> int:
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if value else 0  # an int or Fraction operand becomes a constant


class Tracer:
    """Patch, record and restore.  One tracer may be installed at a time."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}  # (layer, op) -> [calls, incl, self]
        self.term_products = 0
        self.terms_out_max = 0
        self.parse_bytes = 0
        self.compare_s = 0.0
        self.trial_time: dict[str, list] = {}  # identity -> [trials, seconds]
        self._stack: list[list] = []  # [layer, child seconds]
        self._sites: list[tuple] = []
        self._installed = False

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._sites:
            self._sites = self._plan()
        for owner, name, _, wrapper in self._sites:
            setattr(owner, name, wrapper)
        self._installed = True

    def restore(self) -> None:
        for owner, name, original, _ in reversed(self._sites):
            setattr(owner, name, original)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _plan(self) -> list[tuple]:
        """Every (owner, attribute, original, wrapper) to swap, found once."""
        assert_clean()
        sites = []
        modules = _genform_modules()
        for layer, groups in PATCHES.items():
            home = sys.modules[f"genform.{layer}"]
            for owner_name, attrs in groups.items():
                for attr, op in attrs.items():
                    if owner_name is None:
                        original = getattr(home, attr)
                        wrapper = self._wrap(layer, op, original)
                        sites += [(module, name, original, wrapper) for module in modules
                                  for name, value in vars(module).items() if value is original]
                        continue
                    owner = getattr(home, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._wrap(layer, op, raw.__func__))
                    else:
                        wrapper = self._wrap(layer, op, raw)
                    sites.append((owner, attr, raw, wrapper))
        return sites

    def _wrap(self, layer: str, op: str, fn):
        stats = self.stats.setdefault((layer, op), [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = self._hook(layer, op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += spent
                stats[0] += 1
                stats[1] += spent
                stats[2] += spent - frame[1]
            if hook is not None:
                hook(args, result, spent, parent)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- counters recorded at the boundary ---------------------------------

    def _hook(self, layer: str, op: str):
        if layer == "scalars" and op == "mul":
            return self._count_mul
        if layer == "session" and op == "parse":
            return self._count_parse
        if layer == "harness" and op == "run_identity":
            return self._count_trials
        if op == "eq":
            return self._count_compare
        return None

    def _count_mul(self, args, result, spent, parent):
        if result is NotImplemented:
            return
        self.term_products += len(args[0].terms) * _term_count(args[1])
        self.terms_out_max = max(self.terms_out_max, len(result.terms))

    def _count_parse(self, args, result, spent, parent):
        self.parse_bytes += len(args[0].encode("utf-8"))

    def _count_trials(self, args, result, spent, parent):
        entry = self.trial_time.setdefault(args[0], [0, 0.0])
        entry[0] += args[2]
        entry[1] += spent

    def _count_compare(self, args, result, spent, parent):
        # the == checks run_identity makes itself, not the nested ones
        if parent is not None and parent[0] == "harness":
            self.compare_s += spent

    # -- results -------------------------------------------------------------

    def counts(self) -> dict:
        """The exact counters: identical for identical inputs."""
        out = {f"{layer}.{op}.calls": s[0] for (layer, op), s in sorted(self.stats.items())}
        out["scalars.mul.term_products"] = self.term_products
        out["scalars.mul.terms_out_max"] = self.terms_out_max
        return out

    def metrics(self, passes: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics for ``passes`` identical traced passes.

        Counts and seconds are per pass; ``self_us``/``incl_us`` are means per
        call; an op that was never called reports 0.
        """
        def stat(layer, op):
            return self.stats.get((layer, op), [0, 0.0, 0.0])

        def per_call(seconds, calls):
            return seconds / calls * 1e6 if calls else 0.0

        layer_self = {layer: 0.0 for layer in LAYERS}
        for (layer, _), s in self.stats.items():
            layer_self[layer] += s[2]
        m: dict[str, tuple[float, str]] = {}
        for layer, ops in REPORTED_OPS.items():
            for op in ops:
                calls, incl, own = stat(layer, op)
                m[f"{layer}.{op}.calls"] = (calls // passes, "count")
                m[f"{layer}.{op}.self_us"] = (per_call(own, calls), "us")
                if layer == "generalized":
                    m[f"{layer}.{op}.incl_us"] = (per_call(incl, calls), "us")
        m["scalars.mul.term_products"] = (self.term_products // passes, "count")
        m["scalars.mul.terms_out_max"] = (self.terms_out_max, "count")
        for layer in ("scalars", "forms", "generalized", "harness"):
            m[f"{layer}.self_s"] = (layer_self[layer] / passes, "s")
            m[f"{layer}.share"] = (layer_self[layer] / traced_wall, "share")
        m["harness.compare_s"] = (self.compare_s / passes, "s")
        for name in IDENTITY_NAMES:
            trials, seconds = self.trial_time.get(name, (0, 0.0))
            m[f"harness.{name}.trial_ms"] = (seconds / trials * 1e3 if trials else 0.0, "ms")
        parse_calls, parse_incl, parse_self = stat("session", "parse")
        render_calls, _, render_self = stat("session", "render")
        m["session.parse.calls"] = (parse_calls // passes, "count")
        m["session.parse.self_s"] = (parse_self / passes, "s")
        m["session.parse.bytes_per_s"] = (
            self.parse_bytes / parse_incl if parse_incl else 0.0, "B/s")
        m["session.render.self_us"] = (per_call(render_self, render_calls), "us")
        m["session.share"] = (layer_self["session"] / traced_wall, "share")
        m["cli.self_s"] = (layer_self["cli"] / passes, "s")
        m["trace.overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
        return m


def _genform_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "genform" or name.startswith("genform."))]


def assert_clean() -> None:
    """Raise if any patch site still holds a tracing wrapper."""
    for module in _genform_modules():
        for name, value in vars(module).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"tracing wrapper left in {module.__name__}.{name}")
            if isinstance(value, type) and value.__module__.startswith("genform"):
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(fn, _MARK, False):
                        raise RuntimeError(
                            f"tracing wrapper left in {value.__qualname__}.{attr}")
