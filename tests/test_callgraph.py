"""Every function, class, method and field that src/navstruct/ defines is
used by the program, and every import in src/ and tests/ is used: a name that
only tests reach is dead weight."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "navstruct"

# names that only callers outside src/ use: the fixture generators the README
# names, the reader navbench/check.py imports, the reference helpers tests
# compare against, and the report accessor the tests read stages through
ALLOWED = {
    "maze_graph", "load_structure_json",
    "shoelace_sign", "tree_path_interior_counts", "stage",
}

# annotated class fields that nothing in src/ or navbench/ reads
ALLOWED_FIELDS: set[str] = set()


def _trees(paths):
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def _scan():
    """(name -> first definition site, every name that src/ refers to)."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path, tree in _trees(sorted(SRC.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):  # a re-export in __init__ counts
                referenced.add(node.name)
    return defined, referenced


def _fields():
    """(field name -> first class.field site in src/, every attribute name
    that src/ or navbench/'s modules load)."""
    fields: dict[str, str] = {}
    loaded: set[str] = set()
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "navbench").glob("*.py"))
    for path, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and path.parent == SRC:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields.setdefault(
                            stmt.target.id, f"{path.name}:{stmt.lineno} {node.name}"
                        )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return fields, loaded


def _unused_imports(path: Path, tree: ast.Module) -> list[str]:
    """Names that `path` imports and never refers to; names listed in
    `__all__` count as used."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_definition_in_src_is_used_in_src():
    defined, referenced = _scan()
    unused = {
        name: site for name, site in defined.items()
        if name not in referenced and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused == {}


def test_every_allowed_name_is_still_defined_and_unused():
    defined, referenced = _scan()
    assert ALLOWED <= defined.keys()
    assert not ALLOWED & referenced


def test_every_field_in_src_is_read():
    fields, loaded = _fields()
    unread = {
        name: site for name, site in fields.items()
        if name not in loaded and name not in ALLOWED_FIELDS
    }
    assert unread == {}
    assert ALLOWED_FIELDS <= fields.keys()  # an allowed field is still defined
    assert not ALLOWED_FIELDS & loaded      # and still unread


def test_every_src_module_parses_as_the_oldest_supported_python():
    """pyproject.toml declares Python >= 3.10; `feature_version` rejects
    newer syntax such as `except*`, on a best-effort basis."""
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_every_import_in_src_and_tests_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [site for path, tree in _trees(paths) for site in _unused_imports(path, tree)]
    assert unused == []
