"""Every ramat module exports only names it defines, none builds a graph
through an edge list, and none queries a full-width lattice."""

import ast
import importlib
import pkgutil
from pathlib import Path

import ramat
from ramat import intlin


def test_all_names_exist_and_star_import_works():
    names = ["ramat"] + [
        f"ramat.{info.name}" for info in pkgutil.iter_modules(ramat.__path__)
    ]
    assert "ramat.intlin" in names and "ramat.cli" in names
    for name in names:
        mod = importlib.import_module(name)
        exported = getattr(mod, "__all__", [])
        assert [n for n in exported if not hasattr(mod, n)] == [], name
        ns = {}
        exec(f"from {name} import *", ns)
        assert set(exported) <= set(ns), name


def test_every_import_is_used_or_exported():
    # an import that no line of its module reads and its __all__ does not
    # re-export is dead, e.g. a helper left behind when its caller moved
    for path in sorted(Path(ramat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        name = "ramat" if path.stem == "__init__" else f"ramat.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        assert sorted(imported - used - exported) == [], path.name


def _calls(names) -> dict:
    """Module file name -> line numbers of its calls to any of ``names``,
    by bare name or as an attribute, for every ramat module that has one."""
    found = {}
    for path in sorted(Path(ramat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
        ]
        if lines:
            found[path.name] = lines
    return found


def test_no_module_builds_a_graph_from_an_edge_list():
    # every builder writes adjacency masks; from_edges is for callers only
    assert _calls({"from_edges"}) == {}


def test_no_module_queries_a_full_width_lattice():
    # every graph quantity, the mod-p kernel included, is read off the
    # packed lattice and its quotient; the full Hermite basis and the dense
    # RA and Kronecker matrices are for callers and tests only, and the
    # dense lattice queries and the renumbering of unpeeled columns are gone
    assert _calls({"ra_lattice", "ra_matrix", "kronecker_product"}) == {}
    gone = {"lattice_smith_form", "lattice_contains", "minimal_axis_multiple",
            "_packed", "kronecker_product", "_axis_multiple", "_snf_divisors",
            "_squeeze"}
    for path in sorted(Path(ramat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)}
        assert defined & gone == set(), path.name


def test_smith_rounds_have_one_caller():
    # every divisor chain, the public Smith form's included, every order
    # and every membership test is read off the one Smith pair of an
    # ``intlin._Quotient``, whose rounds run on its block H alone
    assert {k: len(v) for k, v in _calls({"_smith_coordinates"}).items()} == {
        "intlin.py": 1}


def test_only_the_quotient_reads_its_presentation():
    # Z^n/L is read through the methods of ``intlin._Quotient`` alone: no
    # other module reads its images or asks the order of an image, and the
    # quotient hands its block H to the kernel as rows, not as a matrix
    for path in sorted(Path(ramat.__file__).parent.glob("*.py")):
        if path.name == "intlin.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "images"]
        assert reads == [], path.name
    assert set(_calls({"order"})) <= {"intlin.py"}
    tree = ast.parse(Path(intlin.__file__).read_text(encoding="utf-8"))
    quot = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Quotient")
    built = [node.lineno for node in ast.walk(quot)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in {"IntMatrix", "kernel_basis_mod_p"}]
    assert built == []
