"""Every function, class and method that src/navstruct/ defines is used
somewhere in src/: a name that only tests reach is dead weight."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "navstruct"

# names that only callers outside src/ use: the fixture generators the README
# names, the reader navbench/check.py imports, the reference helpers tests
# compare against, and the report accessor the tests read stages through
ALLOWED = {
    "maze_graph", "plus_hub", "l_corridor", "load_structure_json",
    "shoelace_sign", "tree_path_interior_counts", "stage",
}


def _scan():
    """(name -> first definition site, every name that src/ refers to)."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):  # a re-export in __init__ counts
                referenced.add(node.name)
    return defined, referenced


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
