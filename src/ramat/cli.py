"""Command-line surface: generation, products, analysis, batch counts,
predictors, kernels, the group oracle, and the verification suites.
``analyze``, ``batch`` and ``verify --suite all`` spread their tasks over
forked worker processes through one ordered map, ``_fork_map``.

Exit codes are a stable contract: 0 success, 1 verification failure (or
a lost worker process, or a stdout closed early), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter, deque
from functools import partial, reduce
from itertools import chain, islice

from . import theorems, verify
from .graphs import (
    Graph,
    _graph6_chunk,
    _graph6_lines,
    binary_graph,
    complement,
    complete,
    complete_bipartite,
    connected_components,
    crown,
    cube,
    cycle,
    folded_cube,
    girth,
    graph6_decode,
    graph6_encode,
    is_bipartite,
    is_connected,
    is_neighborhood_distinguishable,
    kneser,
    path,
    subgraph,
)
from .group_oracle import (
    BudgetExceededError,
    dihedral,
    heisenberg,
    matrix_power,
    oracle_record,
)
from .intlin import IntMatrix
from .products import (
    _complete_tensor,
    cartesian,
    disjoint_union,
    join,
    prism,
    pyramid,
    strong,
    tensor,
)
from .ra_core import (
    _lane_verdicts,
    _record,
    _verdict,
    classify,
    is_ra,
    kernel_mod_p,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


def _err(msg: str) -> None:
    print(f"ramat: {msg}", file=sys.stderr)


def _read_graph6_file(path):
    """The (line_number, text) graph6 lines of a file; a non-ASCII byte
    becomes U+FFFD, so its line is reported as a parse error like any other
    bad line."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        yield from _graph6_lines(fh)


def _read_stdin():
    """The graph6 lines of stdin (``OSError`` if it is closed), its bytes
    decoded like ``_read_graph6_file``; a text-only stream is read as is."""
    if sys.stdin is None:
        raise OSError("stdin is closed")
    raw = getattr(sys.stdin, "buffer", None)
    lines = sys.stdin if raw is None else (b.decode("ascii", "replace") for b in raw)
    yield from _graph6_lines(lines)


def _iter_graph6_inputs(args):
    """Yield (source, line_number, text) for the graph6 lines of the
    arguments: each argument is a file path if one exists, '-' for stdin,
    else a literal string.  A path that cannot be read (a directory, say)
    yields (source, None, message) and ends that argument only."""
    if not args:
        args = ["-"]
    for arg in args:
        if arg == "-":
            source, lines = "stdin", _read_stdin()
        elif os.path.exists(arg):
            source, lines = arg, _read_graph6_file(arg)
        else:
            source, lines = "arg", _graph6_lines([arg])
        try:
            for lineno, text in lines:
                yield source, lineno, text
        except OSError as exc:
            yield source, None, str(exc)


def _graphs_of(chunk, errors: list, connected: bool = False) -> list:
    """The (graph, text, verdict) triple of each (source, line_number,
    text) item of a chunk that decodes, in order, appending the message
    of each item that is no graph to ``errors``.  The lines are decoded by
    ``graphs._graph6_chunk``, and the verdict is the lanes' for a graph
    they decide (``ra_core._lane_verdicts``, with ``connected``), else
    None."""
    texts = [text for _, lineno, text in chunk if lineno is not None]
    decoded, lanes = _graph6_chunk(texts)
    ready = [None] * len(texts)
    for n, (picked, adj) in lanes.items():
        for i, c in zip(picked, _lane_verdicts(n, adj, len(picked), connected)):
            ready[i] = c
    out, got = [], iter(zip(decoded, texts, ready))
    for source, lineno, text in chunk:
        if lineno is None:  # the source itself could not be read
            errors.append(text)
            continue
        item = next(got)
        if isinstance(item[0], ValueError):
            errors.append(f"{source} line {lineno}: {item[0]}")
        else:
            out.append(item)
    return out


def _records_for(g: Graph, text: str | None = None, verdict=None):
    """Classification records, one per connected component.  Connectivity
    is decided here, by one search unless the graph falls apart; each part
    is connected, so its verdict and record skip the search.  ``verdict``,
    when given, is g's ``_verdict`` read off the lanes, and is used only
    when g is connected.

    ``text``, the stripped graph6 line g was decoded from, is a connected
    g's graph6 as it stands when it is the canonical encoding: no
    '>>graph6<<' prefix, and the one-byte size header when n <= 62.  The
    decoder refuses a wrong body length and nonzero padding bits, so the
    body is the only one for g."""
    if is_connected(g):
        rec = _record(g, _verdict(g) if verdict is None else verdict, True)
        canonical = text and text[0] != ">" and (g.n > 62 or text[0] != "~")
        rec["graph6"] = text if canonical else graph6_encode(g)
        return [rec]
    out = []
    for comp in connected_components(g):
        part = subgraph(g, comp)
        rec = _record(part, _verdict(part), True)
        rec["graph6"] = graph6_encode(part)
        out.append(rec)
    return out


_TSV_FIELDS = (
    "graph6", "n", "girth", "bipartite", "connected",
    "divisors", "nullity", "status", "mu",
)


def _format_record(rec: dict, tsv: bool, axis: bool) -> str:
    """One output line.  The JSON line is ``json.dumps(rec)`` byte for
    byte, written out for the fixed keys of ``_record`` plus graph6, whose
    one character JSON escapes is the backslash."""
    if not tsv:
        gi, mu = rec["girth"], rec["mu"]
        g6 = rec["graph6"].replace("\\", "\\\\")
        return (
            f'{{"n": {rec["n"]}, "girth": {"null" if gi is None else gi}, '
            f'"bipartite": {"true" if rec["bipartite"] else "false"}, '
            f'"connected": {"true" if rec["connected"] else "false"}, '
            f'"divisors": [{", ".join(map(str, rec["divisors"]))}], '
            f'"nullity": {rec["nullity"]}, "status": "{rec["status"]}", '
            f'"mu": {"null" if mu is None else mu}, '
            f'"axis_multiples": [{", ".join(map(str, rec["axis_multiples"]))}], '
            f'"graph6": "{g6}"}}\n')
    row = []
    for f in _TSV_FIELDS:
        v = rec[f]
        if f == "divisors":
            v = ",".join(str(d) for d in v)
        row.append("" if v is None else str(v))
    if axis:
        row.append(",".join(str(a) for a in rec["axis_multiples"]))
    return "\t".join(row) + "\n"


def _analyze_chunk(chunk, tsv: bool, axis: bool):
    """The stdout text of a chunk of ``analyze`` and its error messages.
    A disconnected graph's records are its components', so the lanes
    spend no difference round on it."""
    errors: list = []
    text = "".join(_format_record(rec, tsv, axis)
                   for g, line, c in _graphs_of(chunk, errors, True)
                   for rec in _records_for(g, line, c))
    return text, errors


# Lines per chunk of the analyze and batch pipeline: a chunk is the unit of
# work a worker process takes and of the output printed at once.  A corpus
# analyze on 2 cores took the same time with chunks of 128 to 2048 lines,
# and its peak RSS rose about 0.6 MB at 1024.
_CHUNK = 512


def _cpu_count() -> int:
    """The number of CPUs this process may run on, or 1 where it cannot fork
    workers, so that every command then runs in this process."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class WorkerLost(Exception):
    """A worker process ended before it returned the result of its task."""


def _send(fd: int, obj) -> None:
    """Write ``obj`` to a pipe as a pickle, after its length in 8 bytes."""
    import pickle
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _recv(fh):
    """The next object ``_send`` wrote to the pipe read by ``fh``;
    ``EOFError`` if the pipe closed before all of it came."""
    import pickle
    head = fh.read(8)
    size = int.from_bytes(head, "little")
    data = fh.read(size)
    if len(head) < 8 or len(data) < size:
        raise EOFError
    return pickle.loads(data)


def _outcome(fn, args):
    """(True, fn(*args)), or (False, the exception it raised)."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _serve(tasks, results: int) -> None:
    """A worker's loop: for each (fn, args) read from ``tasks``, write the
    ``_outcome`` of ``fn(*args)`` to ``results``, until ``tasks`` closes."""
    while True:
        try:
            fn, args = _recv(tasks)
        except EOFError:
            return
        _send(results, _outcome(fn, args))


def _fork_map(fn, tasks, workers: int, ahead: int):
    """Yield (args, outcome) for each args tuple of ``tasks``, in task
    order: the outcome of ``fn(*args)`` is (True, its value), (False, the
    exception it raised) or (False, ``WorkerLost``).

    With fewer than two workers each task runs here.  Otherwise
    ``workers`` processes are forked at the start, each fed over a task
    pipe and answering over a result pipe.  At most ``ahead`` tasks are
    taken ahead of the one yielded next, and each goes to whichever worker
    is free.  A worker gets its next task only once its last result is
    read, so a message of any length can be written while its reader
    waits.  A worker that ends without a result (killed, say) fails its
    task with ``WorkerLost``; once none is left, so does every task still
    waiting.  Ending or closing the map kills and reaps every worker and
    closes every pipe end.

    Forking is safe because the CLI starts no thread (a spawned worker
    would import ramat afresh: 0.15-0.2 s more on a corpus ``analyze``).
    A worker closes the pipe ends it inherited from earlier workers, so it
    sees its task pipe close when this process ends, and it leaves only
    through ``os._exit``, so it never flushes the stdio it inherited.
    A map that forks imports ``selectors`` and ``SIGKILL`` before it does,
    so that its ``finally`` imports nothing at exit, and only such a map
    imports ``pickle`` and ``selectors``."""
    if workers < 2:
        yield from ((args, _outcome(fn, args)) for args in tasks)
        return
    import selectors
    from signal import SIGKILL
    tasks = iter(tasks)
    # the result pipe reader of each worker not lost is registered, with
    # the worker's (pid, task pipe fd, result pipe reader) as its data
    selector = selectors.DefaultSelector()
    busy = {}  # worker -> the [args, outcome] entry of its task
    pending = deque()  # the entries not yet yielded, in task order
    queue = deque()  # the entries not yet handed to a worker
    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker
                code = 1
                try:
                    os.close(task_w)
                    os.close(result_r)
                    for key in selector.get_map().values():
                        os.close(key.data[1])
                        key.fileobj.close()
                    _serve(open(task_r, "rb"), result_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(task_r)
            os.close(result_w)
            results = open(result_r, "rb")
            selector.register(results, selectors.EVENT_READ, (pid, task_w, results))
        while True:
            while len(pending) < ahead and (args := next(tasks, None)) is not None:
                pending.append([args, None])
                queue.append(pending[-1])
            if not pending:
                return
            idle = [key.data for key in selector.get_map().values() if key.data not in busy]
            while queue and idle:
                worker = idle.pop()
                busy[worker] = queue.popleft()
                try:
                    _send(worker[1], (fn, busy[worker][0]))
                except BrokenPipeError:  # the worker ended; select finds it
                    pass
            if not selector.get_map():
                for entry in queue:
                    entry[1] = False, WorkerLost("lost every worker process")
                queue.clear()
            if pending[0][1] is not None:
                yield tuple(pending.popleft())
                continue
            for key, _ in selector.select():
                try:
                    outcome = _recv(key.fileobj)
                except EOFError:  # the worker ended: reap it, close its pipes
                    pid, tasks_fd, results = key.data
                    selector.unregister(results)
                    os.close(tasks_fd)
                    results.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    outcome = False, WorkerLost(f"lost worker process {pid} ({how})")
                if key.data in busy:
                    busy.pop(key.data)[1] = outcome
    finally:
        for pid, tasks_fd, results in [key.data for key in selector.get_map().values()]:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            os.close(tasks_fd)
            results.close()
        selector.close()


def _value(outcome, where: str):
    """The value of a ``_fork_map`` outcome, or its exception raised, with
    ``where`` added to a lost worker's message."""
    ok, value = outcome
    if ok:
        return value
    if isinstance(value, WorkerLost):
        raise WorkerLost(f"{where}: {value}") from None
    raise value


def _chunk_span(chunk) -> str:
    """Where a chunk's lines come from: 'SOURCE lines A-B', or both ends
    when the chunk spans two sources."""
    (first, a, _), (last, b, _) = chunk[0], chunk[-1]
    return f"{first} lines {a}-{b}" if first == last else f"{first} line {a} to {last} line {b}"


def _run_chunks(work, items, workers: int):
    """Yield ``work(chunk)`` for each chunk of ``_CHUNK`` items, in input
    order, mapped over one worker per chunk up to ``workers``, so that
    input of one chunk, or one worker, runs here.  At most two chunks per
    worker are taken ahead of the output, and each result is yielded as
    soon as those before it are.  A lost worker's ``WorkerLost`` names the
    lines of its chunk."""
    it = iter(items)
    chunks = iter(lambda: list(islice(it, _CHUNK)), [])
    head = list(islice(chunks, max(workers, 1)))
    tasks = ((chunk,) for chunk in chain(head, chunks))
    for (chunk,), outcome in _fork_map(work, tasks, len(head), 2 * len(head)):
        yield _value(outcome, _chunk_span(chunk))


def cmd_analyze(ns) -> int:
    had_error = False
    work = partial(_analyze_chunk, tsv=ns.tsv, axis=ns.axis)
    for text, errors in _run_chunks(work, _iter_graph6_inputs(ns.inputs),
                                    _cpu_count()):
        sys.stdout.write(text)
        for msg in errors:
            _err(msg)
            had_error = True
    return EXIT_INPUT if had_error else EXIT_OK


# family -> (builder, parameter count)
_FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete-bipartite": (complete_bipartite, 2),
    "cube": (cube, 1),
    "folded-cube": (folded_cube, 1),
    "crown": (crown, 1),
    "kneser": (kneser, 2),
    "binary": (binary_graph, 1),
}


def cmd_gen(ns) -> int:
    fam = ns.family.replace("_", "-")
    if fam == "complement":
        if len(ns.params) != 1:
            raise ValueError("complement takes one graph6 argument")
        print(graph6_encode(complement(graph6_decode(ns.params[0]))))
        return EXIT_OK
    if fam not in _FAMILIES:
        raise ValueError(
            f"unknown family {ns.family!r} (families: {', '.join(_FAMILIES)}, complement)"
        )
    func, arity = _FAMILIES[fam]
    if len(ns.params) != arity:
        raise ValueError(f"{fam} takes {arity} integer parameter(s)")
    print(graph6_encode(func(*[int(p) for p in ns.params])))
    return EXIT_OK


def cmd_product(ns) -> int:
    binary_ops = {"cartesian": cartesian, "tensor": tensor, "strong": strong,
                  "join": join}
    unary_ops = {"prism": prism, "pyramid": pyramid}
    graphs = [graph6_decode(s) for s in ns.graphs]
    op = ns.op
    if op in unary_ops:
        if len(graphs) != 1:
            raise ValueError(f"{op} takes exactly one graph")
        result = unary_ops[op](graphs[0])
    elif op in binary_ops:
        if len(graphs) < 2:
            raise ValueError(f"{op} takes at least two graphs")
        result = reduce(binary_ops[op], graphs)
    else:
        result = disjoint_union(graphs)
    print(graph6_encode(result))
    return EXIT_OK


def cmd_construct(ns) -> int:
    divisors = [int(d) for d in ns.divisors.split(",")] if ns.divisors else []
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


def batch_category(g: Graph, verdict=None):
    """Table bucket for one graph: girth band, distinguishability, RA status.
    A graph with closed twins is never RA (its RA matrix has two equal
    columns), so its row, nbhd-indistinguishable, asks no lattice.
    ``verdict``, when given, is g's ``_verdict`` read off the lanes: "RA"
    for a twin-free graph, and for a graph with twins only ever
    "general"."""
    gi = girth(g)
    if verdict is not None and gi in (3, 4):
        ra = verdict.status == "RA"
        if gi == 3:
            return ("3", "nbhd-distinguishable-ra" if ra else "nbhd-indistinguishable")
        return ("4", "ra" if ra else "not-ra")
    if gi == 3:
        if not is_neighborhood_distinguishable(g):
            return ("3", "nbhd-indistinguishable")
        return ("3", "nbhd-distinguishable-ra" if is_ra(g) else "nbhd-distinguishable-not-ra")
    if gi == 4:
        return ("4", "ra" if is_ra(g) else "not-ra")
    return ("5+", "all")


def _batch_chunk(chunk):
    """The category ``Counter`` of a chunk of ``batch`` and its error
    messages."""
    errors: list = []
    return Counter(batch_category(g, c) for g, _, c in _graphs_of(chunk, errors)), errors


def cmd_batch(ns) -> int:
    cpus = _cpu_count()
    workers = cpus if ns.workers is None else min(ns.workers, cpus)
    items = ((ns.file, lineno, text) for lineno, text in _read_graph6_file(ns.file))
    counts: Counter = Counter()
    had_error = False
    try:
        for part, errors in _run_chunks(_batch_chunk, items, workers):
            counts.update(part)
            for msg in errors:
                _err(msg)
                had_error = True
    except OSError as exc:
        _err(str(exc))
        return EXIT_INPUT
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
        cls = classify(check())
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
    return [graph6_decode(s) for s in args]


def _run_predictor(tid: str, ns):
    """The predictions, and a builder of the --check graph or None; the
    builder runs only under --check."""
    args = ns.inputs
    if tid == "girth4":
        (g,) = _decode_args(args, 1)
        return [theorems.mu_girth4(g)], lambda: g
    if tid == "prism":
        (g,) = _decode_args(args, 1)
        return [theorems.mu_prism(g)], lambda: prism(g)
    if tid == "negatively-neighborly":
        (g,) = _decode_args(args, 1)
        return [theorems.mu_negatively_neighborly(g)], lambda: g
    if tid == "neighborly":
        (g,) = _decode_args(args, 1)
        if ns.parts:
            sides = ns.parts.split("/")
            if len(sides) != 2:
                raise ValueError("--parts wants 'v1,v2/v3,v4' with two sides")
            parts = tuple(
                tuple(int(v) for v in side.split(",") if v) for side in sides
            )
        else:
            parts = is_bipartite(g)
            if parts is None:
                parts = (tuple(g.vertices()), ())
        return [theorems.mu_neighborly(g, parts)], lambda: g
    if tid == "cartesian":
        a, b = _decode_args(args, 2)
        return [theorems.mu_cartesian(a, b)], lambda: cartesian(a, b)
    if tid == "tensor":
        a, b = _decode_args(args, 2)
        p = theorems.mu_tensor(a, b)
        preds = list(p) if isinstance(p, tuple) else [p]
        return preds, lambda: tensor(a, b)
    if tid == "tensor-completes":
        if len(args) != 1:
            raise ValueError("tensor-completes wants one comma list, e.g. 2,5")
        sizes = [int(x) for x in args[0].split(",")]
        pred = theorems.mu_tensor_completes(sizes)
        return [pred], lambda: _complete_tensor(sizes)
    if tid == "tensor-scaled":
        if len(args) != 2:
            raise ValueError("tensor-scaled wants a graph6 and nu")
        lam = graph6_decode(args[0])
        nu = int(args[1])
        return [theorems.mu_tensor_scaled(lam, nu)], lambda: tensor(lam, complete(nu + 2))
    if tid == "kneser-prism":
        if len(args) != 2:
            raise ValueError("kneser-prism wants a and b")
        n, k = theorems.kneser_prism_params(int(args[0]), int(args[1]))
        print(json.dumps({
            "n": n, "k": k,
            "conditions_hold": theorems.kneser_prism_conditions(n, k),
        }))
        return [], None
    raise ValueError(f"unknown theorem id {tid!r}")


def cmd_kernel(ns) -> int:
    g = graph6_decode(ns.graph)
    basis = kernel_mod_p(g, ns.mod)
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
    g = graph6_decode(ns.graph)
    rec = oracle_record(group, g, ns.cap, descriptor=graph6_encode(g))
    print(json.dumps(rec))
    return EXIT_OK


def _suite_rows(name: str, slow: bool):
    """The rows of one suite, and the input error that ended it early or
    None, so that the rows before an error are printed as in one process."""
    rows = []
    try:
        for row in verify.run_suite(name, slow=slow):
            rows.append(row)
    except (ValueError, BudgetExceededError) as exc:
        return rows, exc
    return rows, None


def _pooled_suite_rows(slow: bool, workers: int):
    """Yield the rows of every suite in ``verify.SUITES`` order, each suite
    one task of a map over ``workers`` processes.  All suites are handed
    over at once, longest first, and their rows are yielded once every
    suite is done; an input error of a suite is raised after its rows, as
    in one process.  A lost worker's ``WorkerLost`` names its suite."""
    tasks = [(name, slow) for name in verify.LONGEST_FIRST]
    outcomes = {name: outcome for (name, _), outcome
                in _fork_map(_suite_rows, tasks, workers, len(tasks))}
    for name in verify.SUITES:
        rows, error = _value(outcomes[name], f"suite {name}")
        yield from rows
        if error is not None:
            raise error


def cmd_verify(ns) -> int:
    workers = min(_cpu_count(), len(verify.SUITES)) if ns.suite == "all" else 1
    if workers > 1:
        suite_rows = _pooled_suite_rows(ns.slow, workers)
    else:
        suite_rows = verify.run_suite(ns.suite, slow=ns.slow)
    failures = 0
    rows = 0
    for row in suite_rows:
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
    p.add_argument("--workers", type=int, default=None,
                   help="at most this many processes (default: one per CPU)")
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
    on stderr and exit code 2, and a lost worker process one such line and
    exit code 1.  A reader that closes stdout early gives exit code 1 and
    no message, and stdout goes to ``os.devnull`` for the flush at exit."""
    ns = build_parser().parse_args(argv)
    try:
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VERIFY
    except (ValueError, BudgetExceededError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except WorkerLost as exc:
        _err(str(exc))
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
