"""Every top-level function and class of the package is reached from an entry point."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weaklab"

# module.name of each top-level function or class that no entry point reaches,
# with the ROADMAP item that will give it a caller or delete it. The list only
# shrinks: a name that gets a caller, or goes, must leave it too.
UNREACHED = {
    "correction.l1_discrepancy": "item 12: curves.csv (acceptance criteria 4 and 5)",
    "correction.optimized_classes": "item 12: curves.csv (acceptance criteria 4 and 5)",
    "datagen._bits": "item 14: corrupt --report, or deleted (corruption_report's helper)",
    "datagen.corruption_report": "item 14: corrupt --report, or deleted (perfbench's prep)",
    "labelspace.balanced_error_rate": "item 12: run telemetry (acceptance criterion 6)",
    "labelspace.mean_row_entropy": "item 12: run telemetry (acceptance criterion 6)",
    "model.load_params": "item 13: weaklab compare (perfbench's prep)",
}


def unreached(sources: dict, roots) -> list:
    """module.name of each top-level function or class of sources (module ->
    source) that the walk does not reach. It starts from the root names and
    from each module's top-level statements and decorators, and follows every
    name read, an ast.Name id or an ast.Attribute attr, to each top-level
    definition of that name; a reached definition is walked whole."""
    defs, pending = {}, [ast.Name(name, ast.Load()) for name in roots]
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", node))
                pending += node.decorator_list
            else:
                pending.append(node)
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                pending += [found for _, found in defs.pop(node.id, [])]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                pending += [found for _, found in defs.pop(node.attr, [])]
    return sorted(name for entries in defs.values() for name, _ in entries)


def test_the_walk_finds_an_unreached_definition():
    sources = {
        "cli": "from . import lib\nTABLE = {'k': lib.schema}\n\n@lib.register\ndef main():\n"
               "    lib.orphan = lib.helper()\n\ndef _unused():\n    return lib.orphan\n",
        "lib": "def helper():\n    return _inner()\n\ndef _inner(): ...\n\ndef schema(): ...\n\n"
               "def register(f):\n    return f\n\nclass Dead:\n    def main(self): ...\n\n"
               "def orphan(): ...\n\ndef exported(): ...\n",
    }
    # a name stored, a method's name and a read in unreached code reach nothing
    assert unreached(sources, ["main"]) == ["cli._unused", "lib.Dead", "lib.exported",
                                            "lib.orphan"]
    assert unreached(sources, ["main", "exported", "_unused"]) == ["lib.Dead"]


def test_every_definition_is_reached_from_an_entry_point():
    # the entry points: the console script's cli.main and the package's exports
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [alias.name for node in init.body if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    found = unreached(sources, ["main", *exports])
    assert sorted(set(found) - set(UNREACHED)) == [], "unreached: call it or delete it"
    assert sorted(set(UNREACHED) - set(found)) == [], "reached or gone: take it off UNREACHED"
