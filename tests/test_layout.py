"""Only ``genform.scalars`` knows the layout of a scalar field.

A scalar field stores integer numerators (``_num``) over one denominator
(``_den``).  Every other module builds scalars through the builders of
``scalars`` and measures them through its size queries, so the layout can
change in that one module.  These tests read each source file with ``ast``:
no other module may read ``._num`` or ``._den`` (as an attribute, or by name
in a string, as ``attrgetter`` would) or import the integer kernel's
``_from_ints`` or ``_mac``.
"""

import ast
from pathlib import Path

import genform

SRC = Path(genform.__file__).parent
LAYOUT = {"_num", "_den"}
KERNEL = {"_from_ints", "_mac"}


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
