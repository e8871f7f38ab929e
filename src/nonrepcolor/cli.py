"""Command-line surface: verify / solve / sa / construct / reproduce.

Exit codes: 0 property holds (all claims pass), 1 property fails (witness
printed), 2 usage error, 3 budget exhausted (partial report), 4 internal
error (a construction failed its own checks).  All JSON
outputs carry a "schema": 1 field.  The NONREP_BUDGET environment variable
overrides the default search node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import construct, decide, reproduce, saseq, search
from .model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    cycle_graph,
    is_distance2,
    path_graph,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


def _node_budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("NONREP_BUDGET")
    return int(env) if env else search.DEFAULT_NODE_BUDGET


def _load_graph(args) -> Graph:
    spec = args.graph
    if spec.startswith("path:") or spec.startswith("cycle:"):
        kind, _, num = spec.partition(":")
        try:
            n = int(num)
        except ValueError:
            raise UsageError(f"bad graph size in {spec!r}")
        try:
            return path_graph(n) if kind == "path" else cycle_graph(n)
        except InvalidArgumentError as exc:
            raise UsageError(str(exc))
    try:
        with open(spec) as fh:
            return Graph.from_json(fh.read())
    except (OSError, ValueError, KeyError, InvalidArgumentError) as exc:
        raise UsageError(f"cannot load graph from {spec!r}: {exc}")


def _load_coloring(args, g: Graph) -> Coloring:
    if args.colors is not None:
        try:
            c = Coloring.from_digits(args.colors)
        except InvalidArgumentError as exc:
            raise UsageError(str(exc))
    elif args.colors_file is not None:
        try:
            with open(args.colors_file) as fh:
                data = json.load(fh)
            c = Coloring.from_colors(data)
        except (OSError, ValueError, InvalidArgumentError) as exc:
            raise UsageError(f"cannot load coloring: {exc}")
    else:
        raise UsageError("a coloring is required (--colors or --colors-file)")
    if c.n != g.n:
        raise UsageError(
            f"coloring has {c.n} entries but the graph has {g.n} vertices")
    return c


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps({"schema": 1, **payload}))
    else:
        print(human)


def cmd_verify(args) -> int:
    g = _load_graph(args)
    c = _load_coloring(args, g)
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
    seq = "".join(str(x) for x in c.sequence_of(verts))
    _emit(args, {"property": prop, "holds": False,
                 "witness": {"walk": verts, "colors": seq,
                             "violated": w.violated}},
          f"FAIL: repetitive {w.violated} witness {verts} with colors {seq}")
    return EXIT_FAIL


def cmd_solve(args) -> int:
    g = _load_graph(args)
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
        words, max_len = saseq.enumerate_h_free(args.max_len)
        longest = [w for w in words if len(w) == max_len]
        _emit(args, {"max_length": max_len, "words": longest},
              f"maximum length {max_len}: {' '.join(longest)}")
        return EXIT_OK
    if action == "encode":
        if args.graph is None:
            raise UsageError("encode needs a graph spec")
        g = _load_graph(args)
        c = _load_coloring(args, g)
        try:
            word = saseq.encode_sa(g, c)
        except InvalidArgumentError as exc:
            raise UsageError(str(exc))
        _emit(args, {"word": word}, word)
        return EXIT_OK
    if action == "decode":
        if args.word is None:
            raise UsageError("decode needs --word")
        try:
            c = saseq.decode_sa(args.word, args.kind)
        except InvalidArgumentError as exc:
            raise UsageError(str(exc))
        except saseq.InconsistentWordError as exc:
            _emit(args, {"consistent": False, "reason": str(exc)},
                  f"FAIL: {exc}")
            return EXIT_FAIL
        _emit(args, {"consistent": True, "coloring": c.to_digits()},
              c.to_digits())
        return EXIT_OK
    if action == "check":
        if args.word is None:
            raise UsageError("check needs --word")
        try:
            hit = saseq.is_h_free(args.word, cyclic=args.cyclic)
        except InvalidArgumentError as exc:
            raise UsageError(str(exc))
        if hit is None:
            _emit(args, {"h_free": True}, "OK: no forbidden factor")
            return EXIT_OK
        _emit(args, {"h_free": False, "position": hit[0], "factor": hit[1]},
              f"FAIL: forbidden factor {hit[1]} at position {hit[0]}")
        return EXIT_FAIL
    if action == "witness":
        if args.word is None:
            raise UsageError("witness needs --word (a forbidden factor)")
        try:
            n, walk, seq = saseq.h_witness_stroll(args.word)
        except InvalidArgumentError as exc:
            raise UsageError(str(exc))
        seq_str = "".join(map(str, seq))
        _emit(args, {"path_order": n, "walk": list(walk.vertices),
                     "colors": seq_str},
              f"P{n}: stroll {list(walk.vertices)} with colors {seq_str}")
        return EXIT_OK
    raise UsageError(f"unknown sa action {action!r}")


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
    raise UsageError(f"unknown construction {what!r}")


def cmd_reproduce(args) -> int:
    rows, aborted = reproduce.run_claim(args.claim, budget=args.time_budget)
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
    p.add_argument("--colors", help="digit-string coloring (k <= 9)")
    p.add_argument("--colors-file",
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

    p = sub.add_parser("sa", help="symmetry-word operations")
    p.add_argument("action",
                   choices=("encode", "decode", "check", "longest", "witness"))
    p.add_argument("graph", nargs="?",
                   help="graph spec (encode only)")
    _add_coloring_args(p)
    p.add_argument("--word", help="word over {S, A}")
    p.add_argument("--kind", choices=("path", "cycle"), default="path")
    p.add_argument("--cyclic", action="store_true",
                   help="check factors over all rotations")
    p.add_argument("--max-len", type=int, default=25)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sa)

    p = sub.add_parser("construct", help="build certificate colorings")
    p.add_argument("what", choices=("table1", "sigma-cycle", "rho-path",
                                    "rho-cycle", "fig1"))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--budget", type=int, help="node budget override")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("reproduce", help="re-derive a published claim")
    p.add_argument("claim", choices=sorted(reproduce.CLAIMS))
    p.add_argument("--time-budget", type=float,
                   help="seconds before aborting with a partial table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except search.BudgetExhausted as exc:
        print(f"ABORTED: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
