"""Every name that a library module imports is used in that module.

The check reads the source with ``ast``: a name counts as used when it
appears as a name anywhere in the module, annotations included.  The
package ``__init__.py`` re-exports names and is left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "arcdeg"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_library_modules_use_every_import():
    modules = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 10
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_check_sees_names_and_attributes():
    source = "import re\nfrom . import geometry\nfrom .moves import down_moves, extrema as ex\nex(geometry.f)\n"
    assert unused_imports(source) == ["re", "down_moves"]
