"""Command-line frontend with deterministic text output.

Exit codes: 0 success, 1 verification failure (with witness), 2 input or
usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import cohomology, external, factorize, represent, weights
from .errors import NotACocycle, QcgError
from .graph import cut_edges, parse_graph

SUBCOMMANDS = (
    "enumerate",
    "orbits",
    "cohomology",
    "ext-cocycle",
    "rep",
    "verify-parity",
    "verify-functorial",
    "verify-characterization",
    "cut",
    "oracle-count",
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qcgraph")
    sub = p.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--graph", required=True)
        sp.add_argument("--level", type=int, required=True)
        sp.add_argument("--cap", type=int, default=4096)
        sp.add_argument("--output", default="-")
        if name == "cut":
            sp.add_argument("--edges", default="", help="comma-separated edge ids")
    return p


def _cycle_label(graph, mask: int) -> str:
    return ",".join(graph.support_edge_ids(mask)) or "0"


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    out_lines: list[str] = []
    try:
        with open(args.graph, encoding="utf-8") as fh:
            graph, boundary = parse_graph(fh.read())
        k = args.level
        if k < 1:
            raise QcgError(f"level must be positive, got {k}")
        status = _dispatch(args, graph, boundary, k, out_lines)
        text = "\n".join(out_lines) + ("\n" if out_lines else "")
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (QcgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


def _dispatch(args, graph, boundary, k, out) -> int:
    cmd = args.command
    if cmd == "enumerate":
        for w in weights.enumerate_admissible(graph, k, boundary):
            out.append("\t".join(str(x) for x in w))
        return 0
    if cmd == "orbits":
        for orb in weights.orbits(graph, k, boundary):
            stab = ";".join(_cycle_label(graph, b) for b in orb.stabilizer_basis)
            rep = ",".join(str(x) for x in orb.representative)
            out.append(f"orbit {rep} size {len(orb.members)} stabilizer [{stab}]")
        return 0
    if cmd == "cohomology":
        order = cohomology.cohomology_group_order(graph, k, boundary)
        out.append(f"order {order}")
        for orb in weights.orbits(graph, k, boundary):
            rep = ",".join(str(x) for x in orb.representative)
            out.append(f"orbit {rep} stabilizer-dim {orb.stabilizer_dim}")
        return 0
    if cmd == "oracle-count":
        n = cohomology.brute_force_class_count(graph, k, boundary, args.cap)
        out.append(f"classes {n}")
        return 0
    if cmd == "ext-cocycle":
        t = external.construct_external_cocycle(graph, k, boundary)
        out.extend(t.serialize().splitlines())
        for orb in weights.orbits(graph, k, boundary):
            rep = ",".join(str(x) for x in orb.representative)
            for lam in orb.stabilizer:
                if lam == 0:
                    continue
                ex = ",".join(graph.support_edge_ids(graph.cycle_edges(lam)[0])) or "-"
                val = external.external_target(graph, k, orb.representative, lam)
                out.append(
                    f"report orbit {rep} cycle {_cycle_label(graph, lam)} "
                    f"external [{ex}] target {val}"
                )
        return 0
    if cmd == "rep":
        t = external.construct_external_cocycle(graph, k, boundary)
        if not cohomology.is_twisted_cocycle(t):
            raise NotACocycle("table fails the twisted cocycle identity")
        for b in t.basis:
            m = represent.rep_matrix(t, b, checked=False)
            out.append(f"cycle {_cycle_label(graph, b)}")
            for i in range(m.dim):
                out.append(f"{i} -> {m.perm[i]}, {m.scalars[i]}")
        return 0
    if cmd == "verify-parity":
        ok = True
        for orb in weights.orbits(graph, k, boundary):
            good = external.check_parity_identity(graph, k, orb)
            rep = ",".join(str(x) for x in orb.representative)
            out.append(f"{'PASS' if good else 'FAIL'} orbit {rep}")
            ok = ok and good
        return 0 if ok else 1
    if cmd == "verify-functorial":
        ok = factorize.verify_functoriality(graph, k, boundary, args.cap)
        out.append("PASS" if ok else "FAIL")
        return 0 if ok else 1
    if cmd == "verify-characterization":
        ok = factorize.verify_characterization(graph, k, boundary, args.cap)
        out.append("PASS" if ok else "FAIL")
        return 0 if ok else 1
    if cmd == "cut":
        edges = [e for e in args.edges.split(",") if e]
        res = cut_edges(graph, set(edges))
        for eid, (w1, w2) in sorted(res.pairing.items()):
            out.append(f"pair {eid} {w1} {w2}")
        for i, sub in enumerate(res.component_subgraphs()):
            ids = ",".join(sub.edge_ids)
            out.append(f"component {i} [{ids}]")
        return 0
    raise QcgError(f"unknown command {cmd!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
