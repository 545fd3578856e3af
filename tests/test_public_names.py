"""Every public name of the package has a caller outside the tests: each
public top-level function and class in `src/labelsplit`, and each public
method of such a class, is referenced, as an `ast` name or attribute,
somewhere in `src/` or in `bench/*.py`. A helper only the tests call lives
in `tests/`. Seven names are referenced only by `bench/`, which imports or
wraps them by name: `linalg.rref`, `lts.format_lts`, `petri.enabled` and
`petri.fire`, `regions.separating_regions`, `splitting.parse_splitting`
and `reduction.extract_solution`. They wait on a benchmark change that
stops naming them. The check goes by the bare name, so a method also
passes where a variable shares its name (`Lts.edges`)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "labelsplit").glob("*.py"))


def public_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
    return names


def referenced(tree: ast.Module) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + sorted((ROOT / "bench").glob("*.py"))}
    refs = set().union(*map(referenced, trees.values()))
    defined = [f"{path.stem}.{name}" for path in SOURCES for name in public_names(trees[path])]
    assert defined
    assert [name for name in defined if name.rsplit(".", 1)[-1] not in refs] == []
