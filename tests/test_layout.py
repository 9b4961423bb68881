"""Only ``genform.scalars`` knows the layout of a scalar field.

A scalar field stores integer numerators (``_num``) over one denominator
(``_den``).  Every other module builds scalars through the builders of
``scalars`` and measures them through its size queries, so the layout can
change in that one module.  These tests read each source file with ``ast``:
no other module may read ``._num`` or ``._den`` (as an attribute, or by name
in a string, as ``attrgetter`` would) or import the integer kernel's
``_from_ints`` or the multiply-accumulate builder ``_mac_for``.

Likewise only ``genform.session`` knows the size limits of a value: the
digits of a literal, the integer bounds of products and printing, and the
``_fault`` test built on them.  Other modules call ``session``'s readers
(``parse_rational``, ``value_at``), so a limit that a test patches there is
the one every input meets.

And only ``genform.forms`` and ``genform.generalized`` read the parts of a
value (``.components``, ``.ordinary``, ``.companion``, ``.v1``, ``.v0``):
every other module walks a value's coefficients through its ``_map`` and
``_coefficients``.  ``harness.py`` is exempt, because its reference
expansions of the pair formulas are written on the parts themselves.

The trial generator has one draw rule: every random integer ``harness.py``
draws is one ``_below(bits, m)`` call, CPython's ``_randbelow`` on
``rng.getrandbits``.  The only other generator call is ``rng.random()``, so
no ``randint``, ``randrange``, ``shuffle`` or ``choice`` appears, nothing
calls ``getrandbits`` outside ``_below``, and no loop but ``_below``'s
rejects a draw.

The benchmark's tracer (``bench/tracer.py``) wraps each method it patches by
reading it from its class's own ``__dict__``, so every patched method must be
defined or bound in that class, not inherited.  The value types therefore
have no base but ``object``, and the rules they share are bound into each
class by ``forms._value_type`` and ``scalars._sealed``: ``+`` and the zero
test among them, so each type defines only its partwise sum ``_plus``.  The
two pair types share one more rule, ``generalized._pair_type``: their
``chart``, ``_map`` and ``_coefficients`` come from one body each, read off
the type's two fields, and ``_map`` builds through the type's one trusted
constructor.
"""

import ast
import importlib
import importlib.util
import random
from pathlib import Path

import genform
from genform import (Form, GeneralizedForm, GeneralizedVector, ScalarField, VectorField, forms,
                     generalized, scalars)

SRC = Path(genform.__file__).parent
LAYOUT = {"_num", "_den"}
KERNEL = {"_from_ints", "_mac_for"}
LIMITS = {"MAX_LITERAL_DIGITS", "_PRODUCT_BITS", "_PRINTABLE_BITS", "_fault"}
PARTS = {"components", "ordinary", "companion", "v1", "v0"}
PART_READERS = {"forms.py", "generalized.py", "harness.py"}
# the field of each node kind that may hold a name
NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
               ast.FunctionDef: "name", ast.Constant: "value"}


def layout_uses(path: Path) -> list[str]:
    """Each place in one source file that reads the layout or imports the kernel."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT:
            uses.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in LAYOUT:
            uses.append(f"{path.name}:{node.lineno}: names {node.value!r}")
        elif isinstance(node, ast.ImportFrom):
            uses += [f"{path.name}:{node.lineno}: imports {alias.name}"
                     for alias in node.names if alias.name in KERNEL]
    return uses


def test_no_module_but_scalars_reads_the_scalar_layout():
    modules = sorted(SRC.glob("*.py"))
    assert {"scalars.py", "forms.py", "generalized.py", "session.py", "harness.py"} <= {
        path.name for path in modules}
    assert [use for path in modules if path.name != "scalars.py"
            for use in layout_uses(path)] == []


def test_the_search_finds_the_layout_where_it_is_read():
    uses = layout_uses(SRC / "scalars.py")
    assert any("reads ._num" in use for use in uses)
    assert any("reads ._den" in use for use in uses)
    assert any("names '_num'" in use for use in uses)
    assert KERNEL <= set(vars(scalars))  # the guard names the kernel's current builders


def limit_uses(path: Path) -> list[str]:
    """Each place in one source file that names a size limit of the session."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        field = NAME_FIELDS.get(type(node))
        if field and getattr(node, field) in LIMITS:
            uses.append(f"{path.name}:{node.lineno}: names {getattr(node, field)}")
    return uses


def test_no_module_but_session_names_the_size_limits():
    modules = sorted(SRC.glob("*.py"))
    assert {"cli.py", "harness.py", "session.py"} <= {path.name for path in modules}
    assert [use for path in modules if path.name != "session.py"
            for use in limit_uses(path)] == []


def test_the_search_finds_the_limits_where_they_are_named():
    uses = " ".join(limit_uses(SRC / "session.py"))
    assert all(f"names {name}" in uses for name in LIMITS)


def part_uses(path: Path) -> list[str]:
    """Each place in one source file that reads a part of a value."""
    return [f"{path.name}:{node.lineno}: reads .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr in PARTS]


def test_no_module_but_the_value_modules_reads_the_parts_of_a_value():
    modules = sorted(SRC.glob("*.py"))
    assert PART_READERS | {"cli.py", "session.py"} <= {path.name for path in modules}
    assert [use for path in modules if path.name not in PART_READERS
            for use in part_uses(path)] == []


def test_the_search_finds_the_parts_where_they_are_read():
    assert any("reads .components" in use for use in part_uses(SRC / "forms.py"))
    uses = " ".join(part_uses(SRC / "generalized.py"))
    assert all(f"reads .{part}" in uses for part in PARTS - {"components"})


# the drawing methods of a generator, all but the two the draw rule keeps
DRAWS = {name for name in dir(random.Random) if not name.startswith("__")} - {
    "random", "getrandbits", "seed", "getstate", "setstate", "VERSION"}


def draw_uses(source: str) -> list[str]:
    """Each place in harness source that draws other than by ``_below`` or ``rng.random()``."""
    tree = ast.parse(source)
    inside_below = {id(node) for function in ast.walk(tree)
                    if isinstance(function, ast.FunctionDef) and function.name == "_below"
                    for node in ast.walk(function)}
    bits_names = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "getrandbits"
                  for target in node.targets if isinstance(target, ast.Name)}
    uses = []
    for node in ast.walk(tree):
        if id(node) in inside_below:
            continue
        if isinstance(node, ast.While):
            uses.append(f"{node.lineno}: rejection loop")
        elif isinstance(node, ast.Attribute) and node.attr in DRAWS:
            uses.append(f"{node.lineno}: calls {node.attr}")
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in bits_names
                or isinstance(node.func, ast.Attribute) and node.func.attr == "getrandbits"):
            uses.append(f"{node.lineno}: calls getrandbits")
    return uses


def test_the_generator_draws_every_integer_through_below():
    source = (SRC / "harness.py").read_text()
    assert "def _below(" in source
    assert draw_uses(source) == []


def test_the_search_finds_draws_outside_below():
    source = """
def _below(bits, m):
    r = bits(m.bit_length())
    while r >= m:
        r = bits(m.bit_length())
    return r

def draw(rng):
    bits = rng.getrandbits
    count = bits(3)
    while count >= 5:
        count = bits(3)
    rng.shuffle([rng.randint(0, 1), rng.randrange(4), rng.choice("ab"), rng.getrandbits(2)])
    return _below(bits, 4) + rng.random()
"""
    assert {use.split(": ", 1)[1] for use in draw_uses(source)} == {
        "rejection loop", "calls getrandbits", "calls shuffle", "calls randint",
        "calls randrange", "calls choice"}
    assert {"randint", "randrange", "shuffle", "choice", "_randbelow"} <= DRAWS


VALUE_TYPES = (ScalarField, Form, VectorField, GeneralizedForm, GeneralizedVector)
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_patches() -> dict:
    """The tracer's ``PATCHES`` table: layer -> class name (or None) -> attribute -> op."""
    spec = importlib.util.spec_from_file_location("genform_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # the tracer imports only the standard library
    return tracer.PATCHES


def test_every_method_the_tracer_patches_is_in_its_class_own_dict():
    patched = {}
    for layer, groups in tracer_patches().items():
        module = importlib.import_module(f"genform.{layer}")
        for owner, attrs in groups.items():
            if owner is not None:
                patched[getattr(module, owner)] = set(attrs)
    assert set(VALUE_TYPES) <= set(patched)
    assert {cls.__name__: sorted(attrs - set(vars(cls))) for cls, attrs in patched.items()} == {
        cls.__name__: [] for cls in patched}


def test_the_shared_rules_are_bound_into_each_value_type():
    for cls in VALUE_TYPES:
        own = vars(cls)
        assert cls.__bases__ == (object,)
        assert own["__hash__"] is None
        assert own["__repr__"] is own["__str__"]
        if cls is not ScalarField:  # its own faster operators
            assert own["__bool__"] is forms._nonzero
            assert own["__neg__"] is forms._neg
            assert own["__sub__"] is forms._sub
            assert own["__rmul__"] is forms._rmul
            assert own["__add__"] is forms._add
            assert own["is_zero"].fget is forms._is_zero


def test_both_pair_types_share_one_body_per_protocol_member():
    pair_types = (GeneralizedForm, GeneralizedVector)
    for cls in pair_types:
        assert {"chart", "is_zero", "_map", "_coefficients"} <= set(vars(cls))
    form, vector = (vars(cls) for cls in pair_types)
    assert form["_map"].__code__ is vector["_map"].__code__
    assert form["_coefficients"].__code__ is vector["_coefficients"].__code__
    assert form["is_zero"].fget.__code__ is vector["is_zero"].fget.__code__
    assert forms._trusted_two_part(GeneralizedForm) is generalized._trusted_pair
    assert forms._trusted_two_part(GeneralizedVector) is generalized._trusted_gvector
