"""Only ``genform.scalars`` knows the layout of a scalar field.

A scalar field stores integer numerators (``_num``) over one denominator
(``_den``).  Every other module builds scalars through the builders of
``scalars`` and measures them through its size queries, so the layout can
change in that one module.  These tests read each source file with ``ast``:
no other module may read ``._num`` or ``._den`` (as an attribute, or by name
in a string, as ``attrgetter`` would) or import the integer kernel's
``_from_ints`` or ``_mac``.

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

The benchmark's tracer (``bench/tracer.py``) wraps each method it patches by
reading it from its class's own ``__dict__``, so every patched method must be
defined or bound in that class, not inherited.  The value types therefore
have no base but ``object``, and the rules they share are bound into each
class by ``forms._value_type`` and ``scalars._sealed``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import genform
from genform import Form, GeneralizedForm, GeneralizedVector, ScalarField, VectorField, forms

SRC = Path(genform.__file__).parent
LAYOUT = {"_num", "_den"}
KERNEL = {"_from_ints", "_mac"}
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
