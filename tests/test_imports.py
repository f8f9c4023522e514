"""Every name that a library module imports is used in that module, and
every private name that a library module defines is read in the library.

The checks read the source with ``ast``.  An import counts as used when
its name appears as a name anywhere in the module, annotations included;
the package ``__init__.py`` re-exports names and is left out.  A
module-level private name (``_x``) counts as read when it is loaded as a
name, or as an attribute of a module, in any library module outside its
own definition.  A module-level public function or class, re-exported
by the package or not, counts as called when the library reads it the
same way, or a demo or a file under ``bench/`` reads it.  A public
classmethod counts as read when one of those sources reads it through
its class: as ``Cls.name`` (or ``module.Cls.name``) anywhere, or as
``cls.name`` inside the class.  No library function, nested or method,
calls itself, so no input meets the interpreter's recursion limit.
No library code writes through ``object.__setattr__``, and library
code reads ``tuple.__new__``, which builds a value without its
constructor's check, only in the functions listed here.  Every library
``lru_cache`` has a finite ``maxsize`` but ``homcalc.hom_indec``'s,
whose bound its module docstring gives.  No library handler catches
``BaseException`` or everything (a bare ``except:``).  A cold import
of the package, its sweep and its command line loads none of
``dataclasses``, ``inspect`` and ``typing``.
"""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arcdeg"


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


def _private_definitions(tree: ast.Module):
    """(index of the top-level statement, name) of each module-level
    private name the module binds."""
    for k, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((k, name) for name in names if name.startswith("_") and not name.startswith("__"))


def _reads(tree: ast.Module):
    """(index of the top-level statement, name) of each name the module
    loads, or reads as an attribute."""
    for k, node in enumerate(tree.body):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield k, sub.id
            elif isinstance(sub, ast.Attribute):
                yield k, sub.attr


def _readers(trees: dict[str, ast.Module]):
    """name -> (module, statement index) of each read in the modules."""
    readers = defaultdict(set)
    for module, tree in trees.items():
        for k, name in _reads(tree):
            readers[name].add((module, k))
    return readers


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    readers = _readers(trees)
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for k, name in _private_definitions(tree)
        if not readers[name] - {(module, k)}
    ]


def test_library_reads_every_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    assert unread_private_names(sources) == []


def test_private_name_check_skips_the_definition_itself():
    sources = {
        "a.py": "_T = {}\n_U = 1\ndef _f(n):\n    return _f(n - 1) + _U\n",
        "b.py": "from . import a\nx = a._U\n",
    }
    assert unread_private_names(sources) == ["a.py:_T", "a.py:_f"]


def uncalled_public_names(library: dict[str, str], callers: list[str]) -> list[str]:
    """module:name of each public module-level function or class that
    no library module reads outside its own definition and that none of
    the caller sources reads.  A re-export in ``__init__.py`` is not a
    read."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    readers = _readers(trees)
    outside = {name for source in callers for _, name in _reads(ast.parse(source))}
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for k, node in enumerate(tree.body)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not readers[node.name] - {(module, k)}
    ]


def test_every_public_name_has_a_caller():
    library = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("demos/*.py"))]
    callers += [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("bench/**/*.py"))]
    assert len(library) >= 10 and len(callers) >= 5
    assert uncalled_public_names(library, callers) == []


def test_public_name_check_counts_other_modules_and_callers():
    library = {
        "__init__.py": "from .a import shown\n",
        "a.py": "def shown(): pass\ndef helper(): pass\ndef lonely(): return lonely()\ndef benched(): pass\n",
        "b.py": "from . import a\nclass Unread: pass\nclass Read: pass\nx = a.helper(), Read()\n",
    }
    callers = ["import arcdeg.a\narcdeg.a.benched()\n"]
    assert uncalled_public_names(library, callers) == ["a.py:shown", "a.py:lonely", "b.py:Unread"]


def _class_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) of each attribute the module reads through a class."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            reads.add((node.value.id, node.attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            reads.add((node.value.attr, node.attr))
        elif isinstance(node, ast.ClassDef):
            reads.update(
                (node.name, sub.attr)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == "cls"
            )
    return reads


def unread_classmethods(library: dict[str, str], callers: list[str]) -> list[str]:
    """module:Class.name of each public classmethod of a module-level
    class that no library module and none of the caller sources reads
    through its class."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    reads = set().union(*map(_class_reads, trees.values()), *(_class_reads(ast.parse(s)) for s in callers))
    return [
        f"{module}:{cls.name}.{fn.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and any(isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list)
        and (cls.name, fn.name) not in reads
    ]


def test_every_public_classmethod_has_a_reader():
    library = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("demos/*.py"))]
    callers += [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("bench/**/*.py"))]
    assert len(library) >= 10 and len(callers) >= 5
    assert unread_classmethods(library, callers) == []


def test_classmethod_check_reads_through_the_class_only():
    library = {
        "a.py": (
            "class A:\n"
            "    @classmethod\n    def made(cls): return cls.parsed()\n"
            "    @classmethod\n    def parsed(cls): pass\n"
            "    @classmethod\n    def benched(cls): pass\n"
            "    @classmethod\n    def lonely(cls): pass\n"
            "    @classmethod\n    def _hidden(cls): pass\n"
            "    def method(self): return self.lonely()\n"
        ),
        "b.py": "from .a import A\nx = A.made()\n",
    }
    callers = ["import arcdeg\narcdeg.A.benched()\na = arcdeg.A()\na.lonely()\n"]
    assert unread_classmethods(library, callers) == ["a.py:A.lonely"]


def _calls_name(node: ast.AST, name: str) -> bool:
    """True when node calls ``name``, ``self.name`` or ``cls.name``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
        return func.attr == name
    return isinstance(func, ast.Name) and func.id == name


def recursive_functions(source: str) -> list[str]:
    """Qualified name of each function, nested ones and methods included,
    whose body calls its own name, in sorted order."""
    found = []
    stack = [(ast.parse(source), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(_calls_name(sub, child.name) for sub in ast.walk(child)):
                    found.append(name)
                stack.append((child, name + ".<locals>."))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + "."))
            else:
                stack.append((child, prefix))
    return sorted(found)


def test_library_has_no_recursive_functions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    found = {module: recursive_functions(source) for module, source in sources.items()}
    assert {module: names for module, names in found.items() if names} == {}


def test_recursion_check_sees_nested_functions_and_methods():
    source = (
        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
        "def walk(xs):\n    def rec(i):\n        return [] if i == len(xs) else [xs[i]] + rec(i + 1)\n"
        "    return rec(0)\n"
        "def loop(n):\n    return [fact(k) for k in range(n)]\n"
        "class A:\n"
        "    def down(self, n):\n        return n and self.down(n - 1)\n"
        "    def text(self):\n        return ''.join(x.text() for x in self.items)\n"
        "    @classmethod\n    def build(cls, n):\n        return cls.build(n - 1) if n else cls()\n"
    )
    assert recursive_functions(source) == ["A.build", "A.down", "fact", "walk.<locals>.rec"]


def object_setattr_reads(source: str) -> list[int]:
    """Line of each read of ``object.__setattr__``, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def test_library_writes_nothing_through_object_setattr():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    found = {module: object_setattr_reads(source) for module, source in sources.items()}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_object_setattr_check_sees_reads_only():
    source = "x = 1\nobject.__setattr__(x, 'a', 1)\nsetattr = object.__setattr__\nx.__setattr__('b', 2)\n"
    assert object_setattr_reads(source) == [2, 3]


def tuple_new_sites(source: str) -> list[str]:
    """Qualified name of the function around each read of
    ``tuple.__new__`` (``<module>`` outside any function), in sorted
    order, once per read."""
    found = []
    stack = [(ast.parse(source), "<module>")]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, child.name if owner == "<module>" else f"{owner}.{child.name}"))
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__new__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "tuple"
            ):
                found.append(owner)
            stack.append((child, owner))
    return sorted(found)


# each of these builds a value from parts already known to be valid and
# canonical; the objects and partitions docstrings say why for each
TRUSTED_TUPLE_NEW = {
    "moves.py": ["_node_dims"],
    "objects.py": ["diagram_of_object", "enumerate_objects"],
    "partitions.py": ["Partition.__new__"],
    "verify.py": ["_partitions_below"],
}


def test_library_bypasses_constructors_only_in_listed_functions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    found = {module: tuple_new_sites(source) for module, source in sources.items()}
    assert {module: sites for module, sites in found.items() if sites} == TRUSTED_TUPLE_NEW


def test_tuple_new_check_sees_functions_methods_and_aliases():
    source = (
        "x = tuple.__new__(tuple, ())\n"
        "def f():\n    return tuple.__new__(C, ())\n"
        "def g():\n    new = tuple.__new__\n    def h():\n        return tuple.__new__(C, ())\n    return new\n"
        "class C(tuple):\n    def __new__(cls, xs):\n        return tuple.__new__(cls, xs)\n"
        "    def other(self):\n        return super().__new__(C, ()), object.__new__(C), self.__new__\n"
    )
    assert tuple_new_sites(source) == ["<module>", "C.__new__", "f", "g", "g.h"]


def unbounded_caches(source: str) -> list[str]:
    """Name of each function whose ``lru_cache`` decorator sets no
    integer ``maxsize`` (an omitted one is 128), or that ``cache``
    decorates, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            func = call.func if call else decorator
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            size = [*call.args, *(k.value for k in call.keywords if k.arg == "maxsize")] if call else []
            bounded = not size or isinstance(size[0], ast.Constant) and type(size[0].value) is int
            if name == "cache" or name == "lru_cache" and not bounded:
                found.append(node.name)
    return found


def test_library_caches_are_bounded_but_hom_indec():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    found = {module: unbounded_caches(source) for module, source in sources.items()}
    assert {module: names for module, names in found.items() if names} == {"homcalc.py": ["hom_indec"]}


def test_cache_bound_check_sees_every_spelling():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache\ndef a(): pass\n"
        "@lru_cache(maxsize=8)\ndef b(): pass\n"
        "@functools.lru_cache(16, typed=True)\ndef c(): pass\n"
        "@lru_cache(typed=True)\ndef d(): pass\n"
        "@lru_cache(maxsize=None)\ndef e(): pass\n"
        "@functools.lru_cache(None)\ndef f(): pass\n"
        "@cache\ndef g(): pass\n"
        "@functools.cache\ndef h(): pass\n"
        "SIZE = 4\n@lru_cache(maxsize=SIZE)\ndef i(): pass\n"
    )
    assert unbounded_caches(source) == ["e", "f", "g", "h", "i"]


def catch_all_handlers(source: str) -> list[int]:
    """Line of each ``except BaseException`` (also in a tuple) or bare
    ``except:`` handler, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or isinstance(c, ast.Name) and c.id == "BaseException" for c in caught):
                found.append(node.lineno)
    return sorted(found)


def test_library_has_no_catch_all_handlers():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    found = {module: catch_all_handlers(source) for module, source in sources.items()}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_catch_all_check_sees_both_spellings():
    source = (
        "try:\n    pass\nexcept ValueError:\n    pass\n"
        "try:\n    pass\nexcept BaseException:\n    raise\n"
        "try:\n    pass\nexcept:\n    raise\n"
        "try:\n    pass\nexcept (KeyError, BaseException) as e:\n    raise\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
    )
    assert catch_all_handlers(source) == [7, 11, 15]


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips site, so only what the package itself imports is loaded
    heavy = ("dataclasses", "inspect", "typing")
    code = f"import sys, arcdeg, arcdeg.verify, arcdeg.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
