"""No unused import and no definition without a caller in src/stemcharts.

A top-level function or class, or a method, must be named somewhere in
src/stemcharts, be exported from the package, or be a layer that
bench/spans.py wraps by name (its `TARGETS`, read here, never edited).
Names are matched as identifiers: the check finds dead code, it does not
prove that code is live.  A name defined in more than one place passes when
any one of them is called, so every such collision is listed, by holder, in
ACCEPTED_COLLISIONS: a new one fails until it is added there on purpose.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted((ROOT / "src" / "stemcharts").glob("*.py"))}
USED = {module: {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        for module, tree in TREES.items()}

# name -> every "module" (top-level function or class) or "module.Class"
# (method) that defines it; each holder was checked to have a caller of its
# own, in src/stemcharts unless noted
ACCEPTED_COLLISIONS = {
    "add": {"fields.SmallFiniteField", "fpt._Span"},
    "coefficient": {"poly.Poly", "series.Series"},
    "from_json": {"charts.BigradedChart", "fields.FieldDescriptor",
                  "fields.WittData", "fpt.FptModule"},
    "group": {"charts.BigradedChart", "extcharts.ExtChart", "kmw.KMWChart"},
    "is_zero": {"charts.AbGroupDesc", "poly.Poly", "series.Series"},
    "one": {"fields.SmallFiniteField", "poly.PolyRing"},
    "order": {"charts.AbGroupDesc", "fgl.FormalGroupLaw"},
    "reduce": {"fields.SquareClassModel", "fpt._Span"},
    "scale": {"poly.Poly", "series.Series"},
    # GradedRingPresentation.to_json, HopfAlgebroid.to_json: reached only
    # from bench/workloads.py
    "to_json": {"charts.AbGroupDesc", "charts.BigradedChart",
                "extcharts.ExtChart", "fgl.GradedRingPresentation",
                "fields.FieldDescriptor", "fields.WittData", "fpt.Decomposition",
                "fpt.FptModule", "hopf.HopfAlgebroid", "kmw.KMWChart",
                "stems.SyntheticChart"},
    "zero": {"fields.SmallFiniteField", "poly.PolyRing", "series.Series"},
}


def test_no_unused_imports():
    unused = [f"{module}: {alias.asname or alias.name}"
              for module, tree in TREES.items() if module != "__init__.py"
              for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__" for alias in node.names
              if (alias.asname or alias.name).split(".")[0] not in USED[module]]
    assert unused == []


def test_every_definition_has_a_caller():
    live = set().union(*USED.values()) | {
        alias.asname or alias.name for node in TREES["__init__.py"].body
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    spans = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    live |= {part for entry in targets.elts for part in entry.elts[2].value.split(".")}
    dead = [f"{module}: {node.name}" for module, tree in TREES.items()
            for top in tree.body
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in live]
    assert dead == []


def test_name_collisions_are_accepted():
    holders: dict[str, set[str]] = {}
    for module, tree in TREES.items():
        for top in tree.body:
            owner = module.removesuffix(".py")
            methods = top.body if isinstance(top, ast.ClassDef) else []
            for node, holder in [(top, owner),
                                 *((n, f"{owner}.{top.name}") for n in methods)]:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    holders.setdefault(node.name, set()).add(holder)
    assert {name: h for name, h in holders.items() if len(h) > 1} \
        == ACCEPTED_COLLISIONS
