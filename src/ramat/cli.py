"""Command-line surface: generation, products, analysis, batch counts,
predictors, kernels, the group oracle, and the verification suites.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import reduce
from math import comb, prod

from . import theorems, verify
from .graphs import (
    Graph,
    binary_graph,
    complement,
    complete,
    complete_bipartite,
    crown,
    cube,
    cycle,
    folded_cube,
    girth,
    graph6_decode,
    graph6_encode,
    is_bipartite,
    is_neighborhood_distinguishable,
    kneser,
    path,
    read_graph6_lines,
    subgraph,
)
from .graphs import connected_components
from .group_oracle import (
    BudgetExceededError,
    dihedral,
    heisenberg,
    matrix_power,
    oracle_record,
)
from .intlin import IntMatrix, kernel_basis_mod_p
from .products import (
    cartesian,
    disjoint_union,
    join,
    prism,
    pyramid,
    strong,
    tensor,
    tensor_all,
)
from .ra_core import classification_record, classify, elementary_divisors, ra_matrix

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2

# Input budgets, checked before any work starts.  Every graph read from
# graph6 input and every graph built from parameters (gen, construct, every
# product, the predict --check graph) has at most MAX_VERTICES vertices; the
# largest the tests, demos and verify suites build is Kn(15,3), with 455.
# predict kneser-prism tests k + 1 binomials mod 3, so k is held to
# KNESER_PRISM_MAX_K (about 0.3 s).
MAX_VERTICES = 1024
KNESER_PRISM_MAX_K = 10 ** 5


def _err(msg: str) -> None:
    print(f"ramat: {msg}", file=sys.stderr)


def _check_vertices(what: str, count) -> None:
    if count > MAX_VERTICES:
        raise ValueError(f"{what} is past the budget of {MAX_VERTICES} vertices")


def _check_input(g: Graph) -> Graph:
    """Hold one decoded graph6 input to the vertex budget."""
    _check_vertices(f"a graph6 input of {g.n} vertices", g.n)
    return g


def _decode(text: str) -> Graph:
    return _check_input(graph6_decode(text))


def _read_lines(lines):
    """``read_graph6_lines`` with each graph held to the vertex budget; a graph
    past it is yielded as the ValueError of its line."""
    for lineno, g in read_graph6_lines(lines):
        if isinstance(g, Graph):
            try:
                _check_input(g)
            except ValueError as exc:
                g = exc
        yield lineno, g


def _read_graph6_file(path):
    """``_read_lines`` over a file; a non-ASCII byte becomes U+FFFD, so its
    line is reported as a parse error like any other bad line."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        yield from _read_lines(fh)


def _read_stdin():
    """``_read_lines`` over stdin, its bytes decoded like
    ``_read_graph6_file``; a text-only stream (``io.StringIO``) is read as is."""
    raw = getattr(sys.stdin, "buffer", None)
    lines = sys.stdin if raw is None else (b.decode("ascii", "replace") for b in raw)
    yield from _read_lines(lines)


def _iter_graph6_inputs(args):
    """Yield (source, line_number, Graph or ValueError) for graph6 arguments:
    each argument is a file path if one exists, '-' for stdin, else a
    literal string.  A path that cannot be read (a directory, say) yields
    (source, None, OSError) and ends that argument only."""
    if not args:
        args = ["-"]
    for arg in args:
        if arg == "-":
            source, lines = "stdin", _read_stdin()
        elif os.path.exists(arg):
            source, lines = arg, _read_graph6_file(arg)
        else:
            source, lines = "arg", _read_lines([arg])
        try:
            for lineno, g in lines:
                yield source, lineno, g
        except OSError as exc:
            yield source, None, exc


def _records_for(g: Graph):
    """Classification records, one per connected component."""
    comps = connected_components(g)
    parts = [g] if len(comps) == 1 else [subgraph(g, comp) for comp in comps]
    out = []
    for part in parts:
        rec = classification_record(part, classify(part))
        rec["graph6"] = graph6_encode(part)
        out.append(rec)
    return out


_TSV_FIELDS = (
    "graph6", "n", "girth", "bipartite", "connected",
    "divisors", "nullity", "status", "mu",
)


def _print_record(rec: dict, fmt: str, axis: bool) -> None:
    if fmt == "json":
        print(json.dumps(rec, sort_keys=False))
        return
    row = []
    for f in _TSV_FIELDS:
        v = rec[f]
        if f == "divisors":
            v = ",".join(str(d) for d in v)
        row.append("" if v is None else str(v))
    if axis:
        row.append(",".join(str(a) for a in rec["axis_multiples"]))
    print("\t".join(row))


def cmd_analyze(ns) -> int:
    fmt = "tsv" if ns.tsv else "json"
    had_error = False
    for source, lineno, g in _iter_graph6_inputs(ns.inputs):
        if isinstance(g, Exception):
            _err(str(g) if lineno is None else f"{source} line {lineno}: {g}")
            had_error = True
            continue
        for rec in _records_for(g):
            _print_record(rec, fmt, ns.axis)
    return EXIT_INPUT if had_error else EXIT_OK


def _kneser_size(n: int, k: int):
    """C(n, k), the vertex count of Kn(n, k), or n once n alone is past the
    budget (C(n, k) >= n for 1 <= k < n, and the builder walks all of
    1..n); 0 for parameters ``kneser`` itself rejects."""
    if not 1 <= k <= n:
        return 0
    return n if n > MAX_VERTICES else comb(n, k)


# family -> (builder, parameter count, vertex count from the parameters); a
# count is cheap for any integers and stays within the budget for the small
# or negative parameters a builder rejects, so its own message stands
_FAMILIES = {
    "path": (path, 1, lambda n: n),
    "cycle": (cycle, 1, lambda n: n),
    "complete": (complete, 1, lambda n: n),
    "complete-bipartite": (complete_bipartite, 2, lambda m, n: m + n),
    "cube": (cube, 1, lambda d: 2 ** min(max(d, 0), 64)),
    "folded-cube": (folded_cube, 1, lambda d: 2 ** min(max(d - 1, 0), 64)),
    "crown": (crown, 1, lambda n: n),
    "kneser": (kneser, 2, _kneser_size),
    "binary": (binary_graph, 1, lambda n: n + (n - 1).bit_length()),
}


def cmd_gen(ns) -> int:
    fam = ns.family.replace("_", "-")
    if fam == "complement":
        if len(ns.params) != 1:
            raise ValueError("complement takes one graph6 argument")
        print(graph6_encode(complement(_decode(ns.params[0]))))
        return EXIT_OK
    if fam not in _FAMILIES:
        raise ValueError(
            f"unknown family {ns.family!r} (families: {', '.join(_FAMILIES)}, complement)"
        )
    func, arity, size = _FAMILIES[fam]
    if len(ns.params) != arity:
        raise ValueError(f"{fam} takes {arity} integer parameter(s)")
    params = [int(p) for p in ns.params]
    _check_vertices(" ".join([fam, *ns.params]), size(*params))
    print(graph6_encode(func(*params)))
    return EXIT_OK


def cmd_product(ns) -> int:
    binary_ops = {"cartesian": cartesian, "tensor": tensor, "strong": strong,
                  "join": join}
    unary_ops = {"prism": prism, "pyramid": pyramid}
    graphs = [_decode(s) for s in ns.graphs]
    sizes = [g.n for g in graphs]
    op = ns.op
    if op in unary_ops:
        if len(graphs) != 1:
            raise ValueError(f"{op} takes exactly one graph")
        _check_vertices(f"{op} product", 2 * sizes[0] if op == "prism" else sizes[0] + 1)
        result = unary_ops[op](graphs[0])
    elif op in binary_ops:
        if len(graphs) < 2:
            raise ValueError(f"{op} takes at least two graphs")
        _check_vertices(f"{op} product", sum(sizes) if op == "join" else prod(sizes))
        result = reduce(binary_ops[op], graphs)
    else:
        _check_vertices("union product", sum(sizes))
        result = disjoint_union(graphs)
    print(graph6_encode(result))
    return EXIT_OK


def cmd_construct(ns) -> int:
    divisors = [int(d) for d in ns.divisors.split(",")] if ns.divisors else []
    # a lower bound: a crown of 2d + 4 vertices per divisor, a binary graph of
    # more than `nullity` vertices, and the apex; construct_prescribed
    # rejects a negative term before it builds anything
    _check_vertices("construct", sum(2 * d + 4 for d in divisors) + ns.nullity + 1)
    g = theorems.construct_prescribed(divisors, ns.nullity)
    c = classify(g)
    got = sorted(d for d in c.divisors if d > 1)
    verified = got == sorted(divisors) and c.nullity == ns.nullity
    record = {
        "graph6": graph6_encode(g),
        "n": g.n,
        "prescribed_divisors": sorted(divisors),
        "prescribed_nullity": ns.nullity,
        "divisors": list(c.divisors),
        "nullity": c.nullity,
        "status": c.status,
        "verified": verified,
    }
    print(graph6_encode(g))
    print(json.dumps(record))
    return EXIT_OK if verified else EXIT_VERIFY


BATCH_CATEGORIES = (
    ("3", "nbhd-indistinguishable"),
    ("3", "nbhd-distinguishable-ra"),
    ("3", "nbhd-distinguishable-not-ra"),
    ("4", "ra"),
    ("4", "not-ra"),
    ("5+", "all"),
)


def batch_category(g: Graph):
    """Table bucket for one graph: girth band, distinguishability, RA status."""
    gi = girth(g)
    if gi == 3:
        if not is_neighborhood_distinguishable(g):
            return ("3", "nbhd-indistinguishable")
        ra = all(d == 1 for d in elementary_divisors(g).divisors)
        return ("3", "nbhd-distinguishable-ra" if ra else "nbhd-distinguishable-not-ra")
    if gi == 4:
        ra = all(d == 1 for d in elementary_divisors(g).divisors)
        return ("4", "ra" if ra else "not-ra")
    return ("5+", "all")


def _count_categories(graphs) -> Counter:
    return Counter(batch_category(g) for g in graphs)


def cmd_batch(ns) -> int:
    graphs = []
    had_error = False
    try:
        for lineno, g in _read_graph6_file(ns.file):
            if isinstance(g, ValueError):
                _err(f"{ns.file} line {lineno}: {g}")
                had_error = True
            else:
                graphs.append(g)
    except OSError as exc:
        _err(str(exc))
        return EXIT_INPUT
    # a fork pool starts all its workers at the first submit
    workers = min(ns.workers, os.cpu_count() or 1)
    counts: Counter = Counter()
    if workers > 1 and len(graphs) > 100:
        chunk = (len(graphs) + workers - 1) // workers
        chunks = [graphs[i:i + chunk] for i in range(0, len(graphs), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_count_categories, chunks):
                counts.update(part)
    else:
        counts = _count_categories(graphs)
    total = sum(counts.values())
    print("girth\tcategory\tcount")
    for key in BATCH_CATEGORIES:
        print(f"{key[0]}\t{key[1]}\t{counts.get(key, 0)}")
    print(f"total\t\t{total}")
    return EXIT_INPUT if had_error else EXIT_OK


def cmd_predict(ns) -> int:
    preds, check = _run_predictor(ns.theorem.replace("_", "-"), ns)
    out = []
    for p in preds:
        rec = {
            "theorem_id": p.theorem_id,
            "applicable": p.applicable,
            "mu": p.mu,
            "ingredients": p.ingredients,
        }
        if not p.applicable:
            rec["reason"] = p.reason
        out.append(rec)
    exit_code = EXIT_OK
    if ns.check and check is not None:
        size, build = check
        _check_vertices("the --check graph", size)
        cls = classify(build())
        cls_list = cls if isinstance(cls, list) else [cls]
        computed = [c.mu for c in cls_list]
        predicted = [p.mu for p in preds]
        match = all(p.applicable for p in preds) and predicted == computed
        for rec, c in zip(out, cls_list):
            rec["computed_mu"] = c.mu
            rec["computed_status"] = c.status
        if not match:
            exit_code = EXIT_VERIFY
    for rec in out:
        print(json.dumps(rec))
    return exit_code


def _decode_args(args, count):
    if len(args) != count:
        raise ValueError(f"expected {count} graph6 argument(s)")
    return [_decode(s) for s in args]


def _run_predictor(tid: str, ns):
    """The predictions, and the --check graph as (vertex count, builder), or
    None; the builder runs only under --check, after its count is checked."""
    args = ns.inputs
    if tid == "girth4":
        (g,) = _decode_args(args, 1)
        return [theorems.mu_girth4(g)], (g.n, lambda: g)
    if tid == "prism":
        (g,) = _decode_args(args, 1)
        return [theorems.mu_prism(g)], (2 * g.n, lambda: prism(g))
    if tid == "negatively-neighborly":
        (g,) = _decode_args(args, 1)
        return [theorems.mu_negatively_neighborly(g)], (g.n, lambda: g)
    if tid == "neighborly":
        (g,) = _decode_args(args, 1)
        if ns.parts:
            sides = ns.parts.split("/")
            if len(sides) != 2:
                raise ValueError("--parts wants 'v1,v2/<v3,v4' with two sides")
            parts = tuple(
                tuple(int(v) for v in side.split(",") if v) for side in sides
            )
        else:
            parts = is_bipartite(g)
            if parts is None:
                parts = (tuple(g.vertices()), ())
        return [theorems.mu_neighborly(g, parts)], (g.n, lambda: g)
    if tid == "cartesian":
        a, b = _decode_args(args, 2)
        return [theorems.mu_cartesian(a, b)], (a.n * b.n, lambda: cartesian(a, b))
    if tid == "tensor":
        a, b = _decode_args(args, 2)
        p = theorems.mu_tensor(a, b)
        preds = list(p) if isinstance(p, tuple) else [p]
        return preds, (a.n * b.n, lambda: tensor(a, b))
    if tid == "tensor-completes":
        if len(args) != 1:
            raise ValueError("tensor-completes wants one comma list, e.g. 2,5")
        sizes = [int(x) for x in args[0].split(",")]
        # complete(m) rejects m < 1 before building, so only sizes >= 1 count
        return [theorems.mu_tensor_completes(sizes)], (
            prod(max(m, 1) for m in sizes),
            lambda: tensor_all([complete(m) for m in sizes]),
        )
    if tid == "tensor-scaled":
        if len(args) != 2:
            raise ValueError("tensor-scaled wants a graph6 and nu")
        lam = _decode(args[0])
        nu = int(args[1])
        return [theorems.mu_tensor_scaled(lam, nu)], (
            lam.n * (nu + 2),
            lambda: tensor(lam, complete(nu + 2)),
        )
    if tid == "kneser-prism":
        if len(args) != 2:
            raise ValueError("kneser-prism wants a and b")
        a, b = int(args[0]), int(args[1])
        # k = 3**a + 1 + 2b, with a bounded before the power is taken
        if 3 ** min(max(a, 0), 64) + 1 + 2 * b > KNESER_PRISM_MAX_K:
            raise ValueError(f"kneser-prism k is past the budget of {KNESER_PRISM_MAX_K}")
        n, k = theorems.kneser_prism_params(a, b)
        print(json.dumps({
            "n": n, "k": k,
            "conditions_hold": theorems.kneser_prism_conditions(n, k),
        }))
        return [], None
    raise ValueError(f"unknown theorem id {tid!r}")


def cmd_kernel(ns) -> int:
    g = _decode(ns.graph)
    basis = kernel_basis_mod_p(ra_matrix(g).matrix, ns.mod)
    for vec in basis:
        print(" ".join(str(x) for x in vec))
    return EXIT_OK


def _parse_group(text: str, cap: int):
    """Build the group named by ``text``, refusing up front a group whose
    multiplication table (order**2 entries) would exceed ``cap``."""
    makers = {"heisenberg": heisenberg, "dihedral": dihedral}
    name, _, param = text.partition(":")
    if not param:
        raise ValueError("group spec looks like heisenberg:2 or dihedral:8")
    if name not in makers:
        raise ValueError(f"unknown group {name!r}")
    param = int(param)
    order = param ** 3 if name == "heisenberg" else param
    if order ** 2 > cap:
        raise BudgetExceededError(
            f"{text} has a table of {order}**2 entries, over the cap {cap}"
        )
    return makers[name](param)


def cmd_oracle(ns) -> int:
    group = _parse_group(ns.group, ns.cap)
    if ns.matrix:
        m = IntMatrix.from_text(ns.matrix.replace(";", "\n"))
        sub = matrix_power(group, m, ns.cap)
        print(json.dumps({
            "group": group.name,
            "matrix": m.to_text().replace("\n", ";"),
            "order": len(sub),
        }))
        return EXIT_OK
    if not ns.graph:
        raise ValueError("oracle wants a graph6 argument or --matrix")
    g = _decode(ns.graph)
    rec = oracle_record(group, g, ns.cap, descriptor=graph6_encode(g))
    print(json.dumps(rec))
    return EXIT_OK


def cmd_verify(ns) -> int:
    failures = 0
    rows = 0
    for row in verify.run_suite(ns.suite, slow=ns.slow):
        rows += 1
        print("\t".join(str(x) for x in row))
        if row[-1] != "pass":
            failures += 1
    print(f"# {rows} checks, {failures} failures")
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramat",
        description="RA matrices of graphs: elementary divisors, classification, "
        "constructions, and a finite-group oracle.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify graph6 inputs")
    p.add_argument("inputs", nargs="*",
                   help="graph6 strings, files, or '-' for stdin")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON lines (default)")
    fmt.add_argument("--tsv", action="store_true", help="tab-separated rows")
    p.add_argument("--axis", action="store_true",
                   help="append axis multiples to TSV rows")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen", help="generate a named family member")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("product", help="combine graphs")
    p.add_argument("op", choices=["cartesian", "tensor", "strong", "join",
                                  "prism", "pyramid", "union"])
    p.add_argument("graphs", nargs="+")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("construct",
                       help="build a graph with prescribed divisors and nullity")
    p.add_argument("--divisors", default="", help="comma list, e.g. 2,4")
    p.add_argument("--nullity", type=int, default=0)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("batch", help="category counts over a graph6 file")
    p.add_argument("file")
    p.add_argument("--summary", default="girth-category",
                   choices=["girth-category"])
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("predict", help="closed-form divisor predictors")
    p.add_argument("theorem")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--parts", default=None,
                   help="explicit partition for 'neighborly': 1,2/3,4")
    p.add_argument("--check", action="store_true",
                   help="cross-validate against direct classification")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("kernel", help="mod-p kernel basis of the RA matrix")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("graph")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("oracle", help="finite-group oracle")
    p.add_argument("--group", required=True, help="heisenberg:P or dihedral:ORDER")
    p.add_argument("graph", nargs="?")
    p.add_argument("--matrix", default=None,
                   help="integer matrix, rows ';'-separated: '1 0;0 4'")
    p.add_argument("--cap", type=int, default=10 ** 7)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default="all",
                   choices=list(verify.SUITES) + ["all"])
    p.add_argument("--slow", action="store_true",
                   help="include the long-running table entries")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    """Run one subcommand.  This is the one place an input error (a
    ``ValueError`` or an over-budget request) becomes ``ramat: <message>``
    on stderr and exit code 2."""
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, BudgetExceededError) as exc:
        _err(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
