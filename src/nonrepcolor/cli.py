"""Command-line surface: verify / solve / sa / construct / reproduce.

Exit codes: 0 property holds (all claims pass), 1 property fails (witness
printed), 2 usage error, 3 budget exhausted (partial report), 4 internal
error (a construction failed its own checks) or out of memory.  All JSON
outputs carry a "schema": 1 field.  --budget sets the search node budget
of solve and construct; --time-budget is the one deadline of reproduce,
which has none without it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

from . import construct, decide, reproduce, saseq, search
from .model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    _graph_json,
    cycle_graph,
    is_distance2,
    path_graph,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _node_budget(args) -> int:
    """--budget, else the default; a positive integer."""
    if args.budget is None:
        return search.DEFAULT_NODE_BUDGET
    if args.budget < 1:
        raise InvalidArgumentError(
            f"--budget must be a positive node count, not {args.budget}")
    return args.budget


def _graph_spec(spec: str) -> tuple:
    """(n, build) of the spec path:N, cycle:N or a graph file: its number
    of vertices, read before the graph is built, and the call that builds
    the graph."""
    if spec.startswith(("path:", "cycle:")):
        try:
            n = int(spec.partition(":")[2])
        except ValueError:
            raise InvalidArgumentError(f"bad graph size in {spec!r}")
        line = path_graph if spec.startswith("path:") else cycle_graph
        return n, partial(line, n)
    try:
        with open(spec) as fh:
            n, edges = _graph_json(fh.read())
    except (OSError, ValueError, InvalidArgumentError) as exc:
        raise InvalidArgumentError(f"cannot load graph from {spec!r}: {exc}")
    return n, partial(Graph.from_edges, n, edges)


def _load_colored_graph(args):
    """The graph and coloring that verify and sa encode read, of one size.

    A graph larger than the coloring is refused before it is built, as it
    takes memory in proportion to its size; a smaller one once built, so
    that its own checks come first."""
    c = _load_coloring(args)
    n, build = _graph_spec(args.graph)
    g = n <= c.n and build()
    if c.n != n:
        raise InvalidArgumentError(
            f"coloring has {c.n} entries but the graph has {n} vertices")
    return g, c


def _load_coloring(args) -> Coloring:
    if args.colors is not None:
        c = Coloring.from_digits(args.colors)
    elif args.colors_file is not None:
        try:
            with open(args.colors_file) as fh:
                data = json.load(fh)
            if not (isinstance(data, list)
                    and all(type(x) is int for x in data)):
                raise InvalidArgumentError("colors must be a list of integers")
            c = Coloring.from_colors(data)
        except (OSError, ValueError, InvalidArgumentError) as exc:
            raise InvalidArgumentError(f"cannot load coloring: {exc}")
    else:
        raise InvalidArgumentError(
            "a coloring is required (--colors or --colors-file)")
    return c


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps({"schema": 1, **payload}))
    else:
        print(human)


def cmd_verify(args) -> int:
    g, c = _load_colored_graph(args)
    prop = args.property
    if prop == "dist2":
        pair = is_distance2(g, c)
        if pair is None:
            _emit(args, {"property": prop, "holds": True}, "OK: distance-2")
            return EXIT_OK
        _emit(args, {"property": prop, "holds": False,
                     "violating_pair": list(pair)},
              f"FAIL: vertices {pair[0]} and {pair[1]} are within distance 2 "
              f"and share color {c.colors[pair[0]]}")
        return EXIT_FAIL
    w = decide.find_witness(g, c, prop)
    if w is None:
        _emit(args, {"property": prop, "holds": True},
              f"OK: coloring is {prop}-nonrepetitive")
        return EXIT_OK
    verts = list(w.walk.vertices)
    seq = c.sequence_of(verts)  # as solve prints certificates
    seq = "".join(map(str, seq)) if c.k <= 9 else list(seq)
    _emit(args, {"property": prop, "holds": False,
                 "witness": {"walk": verts, "colors": seq,
                             "violated": w.violated}},
          f"FAIL: repetitive {w.violated} witness {verts} with colors {seq}")
    return EXIT_FAIL


def cmd_solve(args) -> int:
    g = _graph_spec(args.graph)[1]()
    report = search.solve(g, args.property, args.max_colors,
                          node_budget=_node_budget(args))
    if args.json:
        print(report.to_json())
    else:
        if report.aborted:
            print(f"ABORTED after {report.nodes_visited} nodes (no claim)")
        elif report.feasible:
            cert = report.certificate
            text = cert.to_digits() if cert.k <= 9 else list(cert.colors)
            print(f"value {report.value}  certificate {text}  "
                  f"nodes {report.nodes_visited}")
        else:
            print(f"infeasible for k <= {args.max_colors}  "
                  f"nodes {report.nodes_visited}")
    return EXIT_BUDGET if report.aborted else EXIT_OK


def cmd_sa(args) -> int:
    action = args.action
    if action == "longest":
        # the longest has 19 letters; 25 caps the search, as in claim_lemma5
        words, max_len = saseq.enumerate_h_free(25)
        longest = [w for w in words if len(w) == max_len]
        _emit(args, {"max_length": max_len, "words": longest},
              f"maximum length {max_len}: {' '.join(longest)}")
        return EXIT_OK
    if action == "encode":
        g, c = _load_colored_graph(args)
        word = saseq.encode_sa(g, c)
        _emit(args, {"word": word}, word)
        return EXIT_OK
    if action == "decode":
        try:
            c = saseq.decode_sa(args.word, args.kind)
        except saseq.InconsistentWordError as exc:
            _emit(args, {"consistent": False, "reason": str(exc)},
                  f"FAIL: {exc}")
            return EXIT_FAIL
        _emit(args, {"consistent": True, "coloring": c.to_digits()},
              c.to_digits())
        return EXIT_OK
    if action == "check":
        hit = saseq.is_h_free(args.word, cyclic=args.cyclic)
        if hit is None:
            _emit(args, {"h_free": True}, "OK: no forbidden factor")
            return EXIT_OK
        _emit(args, {"h_free": False, "position": hit[0], "factor": hit[1]},
              f"FAIL: forbidden factor {hit[1]} at position {hit[0]}")
        return EXIT_FAIL
    if action == "witness":
        n, walk, seq = saseq.h_witness_stroll(args.word)
        seq_str = "".join(map(str, seq))
        _emit(args, {"path_order": n, "walk": list(walk.vertices),
                     "colors": seq_str},
              f"P{n}: stroll {list(walk.vertices)} with colors {seq_str}")
        return EXIT_OK
    raise InvalidArgumentError(f"unknown sa action {action!r}")


def cmd_construct(args) -> int:
    what = args.what
    if what == "table1":
        value, c = construct.table1_coloring(args.n)
        _emit(args, {"n": args.n, "value": value, "coloring": c.to_digits()},
              f"sigma(C{args.n}) = {value}: {c.to_digits()}")
        return EXIT_OK
    if what == "sigma-cycle":
        trace, c = construct.sigma_cycle_coloring(
            args.n, node_budget=_node_budget(args))
        payload = {"n": args.n, "value": 4, "coloring": c.to_digits()}
        if args.trace:
            payload["trace"] = trace.to_json_dict()
        _emit(args, payload, f"sigma(C{args.n}) <= 4: {c.to_digits()}"
              + (f"\ntrace: {trace.to_json()}" if args.trace else ""))
        return EXIT_OK
    if what in ("rho-path", "rho-cycle"):
        builder = (construct.rho_path_coloring if what == "rho-path"
                   else construct.rho_cycle_coloring)
        value, c = builder(args.n, node_budget=_node_budget(args))
        kind = "P" if what == "rho-path" else "C"
        _emit(args, {"n": args.n, "value": value, "coloring": c.to_digits()},
              f"rho({kind}{args.n}) = {value}: {c.to_digits()}")
        return EXIT_OK
    if what == "fig1":
        g, c = construct.figure1_fixture()
        _emit(args, {"graph": json.loads(g.to_json()),
                     "coloring": c.to_digits()},
              f"graph {g.to_json()}\ncoloring {c.to_digits()}")
        return EXIT_OK
    raise InvalidArgumentError(f"unknown construction {what!r}")


def cmd_reproduce(args) -> int:
    budget = args.time_budget
    if budget is not None and not 0 < budget < math.inf:  # nan fails too
        raise InvalidArgumentError("--time-budget must be a positive, finite "
                                   f"number of seconds, not {budget:g}")
    rows, aborted = reproduce.run(args.claim, budget)
    ok = all(r["pass"] for r in rows) and not aborted
    if args.json:
        print(json.dumps({"schema": 1, "claim": args.claim, "pass": ok,
                          "aborted": aborted, "rows": rows}))
    else:
        for r in rows:
            status = "PASS" if r["pass"] else "FAIL"
            detail = f"  ({r['detail']})" if r["detail"] else ""
            print(f"{status}  {r['check']}{detail}")
        print(f"{'PASS' if ok else 'ABORTED' if aborted else 'FAIL'}: "
              f"{args.claim} "
              f"({sum(r['pass'] for r in rows)}/{len(rows)} checks)")
    if aborted:
        return EXIT_BUDGET
    return EXIT_OK if ok else EXIT_FAIL


def _add_graph_arg(p) -> None:
    p.add_argument("graph",
                   help="graph spec: path:N, cycle:N, or a JSON file path")


def _add_coloring_args(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--colors", help="digit-string coloring (k <= 9)")
    group.add_argument("--colors-file",
                       help="JSON array coloring file (for k > 9)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonrepcolor",
        description="verify, search for, and construct nonrepetitive "
                    "colorings of paths and cycles")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a coloring against a property")
    _add_graph_arg(p)
    _add_coloring_args(p)
    p.add_argument("--property", required=True,
                   choices=(*decide.PROPERTIES, "dist2"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exact chromatic value by backtracking")
    _add_graph_arg(p)
    p.add_argument("--property", required=True, choices=decide.PROPERTIES)
    p.add_argument("--max-colors", type=int, required=True)
    p.add_argument("--budget", type=int, help="node budget override")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    # one sub-parser per sa action and per construct target, each with only
    # the flags it reads, so that argparse rejects any other
    p = sub.add_parser("sa", help="symmetry-word operations")
    p.set_defaults(func=cmd_sa)
    acts = p.add_subparsers(dest="action", required=True)
    q = acts.add_parser("encode", help="the word of a proper 3-coloring")
    _add_graph_arg(q)
    _add_coloring_args(q)
    q = acts.add_parser("decode", help="the 3-coloring a word determines")
    q.add_argument("--word", required=True, help="word over {S, A}")
    q.add_argument("--kind", choices=("path", "cycle"), default="path")
    q = acts.add_parser("check", help="find a forbidden factor")
    q.add_argument("--word", required=True, help="word over {S, A}")
    q.add_argument("--cyclic", action="store_true",
                   help="check factors over all rotations")
    acts.add_parser("longest", help="the longest words with no "
                                    "forbidden factor")
    q = acts.add_parser("witness", help="the repetitive stroll of a "
                                        "forbidden factor")
    q.add_argument("--word", required=True, help="a forbidden factor")
    for q in acts.choices.values():
        q.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build certificate colorings")
    p.set_defaults(func=cmd_construct)
    targets = p.add_subparsers(dest="what", required=True)
    for what in ("table1", "sigma-cycle", "rho-path", "rho-cycle", "fig1"):
        q = targets.add_parser(what)
        if what != "fig1":
            q.add_argument("--n", type=int, required=True)
        if what == "sigma-cycle":
            q.add_argument("--trace", action="store_true")
        if what not in ("table1", "fig1"):
            q.add_argument("--budget", type=int, help="node budget override")
        q.add_argument("--json", action="store_true")

    p = sub.add_parser("reproduce", help="re-derive a published claim")
    p.add_argument("claim", choices=sorted(reproduce.CLAIMS))
    p.add_argument("--time-budget", type=float,
                   help="seconds before aborting with a partial table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 on --help
        return exc.code
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except search.BudgetExhausted as exc:
        print(f"ABORTED: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
