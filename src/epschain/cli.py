"""Command-line surface: clouds and chains in, JSON reports and SVG out.

Exit codes: 0 success, 1 negative mathematical result (a requested property
does not hold), 2 usage or input error, 3 the verdict came back unknown
where a decision was requested.  Reports embed every parameter needed to
reproduce them and are byte-identical across runs with equal inputs.
"""

from __future__ import annotations

import argparse
import sys

from . import joinability, rips, space, svgfig
from .chain import chain_from_doc, chain_to_doc, components, find_chain
from .documents import SCHEMA_VERSION, DocumentError, dumps_doc, read_doc, write_doc
from .homotopy import SearchBudget, are_homotopic, is_short
from .space import SpaceSpec, generate, load_cloud, save_cloud

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _budget(args) -> SearchBudget | None:
    if args.budget_len is None and args.budget_states is None:
        return None
    return SearchBudget(max_chain_length=args.budget_len or 10 ** 4,
                        max_states=args.budget_states or 10 ** 6)


def _emit(doc: dict, out: str | None) -> None:
    if out:
        write_doc(doc, out)
    else:
        sys.stdout.write(dumps_doc(doc))


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-len", type=int, default=None,
                   help="max raw chain length during search")
    p.add_argument("--budget-states", type=int, default=None,
                   help="max stored search states")


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="epschain",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a space family into a cloud document")
    g.add_argument("--family", required=True, choices=space.FAMILIES)
    gs = g.add_argument_group("sampling", "a flag left unset takes the family sampler's own default")
    gs.add_argument("--n", type=int, help="circle point count")
    gs.add_argument("--h", type=float, help="curve/axis sampling step")
    gs.add_argument("--hseg", dest="h_segment", type=float, metavar="HSEG",
                    help="segment sampling step")
    gs.add_argument("--m-end", type=float, help="domain end, in units of pi")
    gs.add_argument("--gap", type=float, help="parallel-lines vertical gap")
    gs.add_argument("--step", type=float, help="line/interval step")
    gs.add_argument("--length", type=float, help="line/interval length")
    g.add_argument("--must-include", type=_parse_pair, action="append", default=[],
                   metavar="X,Y", help="exact coordinate forced into the sample")
    g.add_argument("--include-pair-at", type=int, default=None, metavar="N",
                   help="force the curve/axis pair at x = N*pi (texas_circle)")
    g.add_argument("--name", default=None)
    g.add_argument("--out", default=None)

    c = sub.add_parser("components", help="chain-connectivity blocks at a scale")
    c.add_argument("--space", required=True)
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--out", default=None)

    ch = sub.add_parser("chain", help="shortest chain between two points")
    ch.add_argument("--space", required=True)
    ch.add_argument("--eps", type=float, required=True)
    ch.add_argument("--from", dest="src", type=int, required=True)
    ch.add_argument("--to", dest="dst", type=int, required=True)
    ch.add_argument("--out", default=None)

    h = sub.add_parser("homotopy", help="decide whether two chains are homotopic")
    h.add_argument("--space", required=True)
    h.add_argument("--c1", required=True)
    h.add_argument("--c2", required=True)
    _add_budget_flags(h)
    h.add_argument("--out", default=None)

    s = sub.add_parser("short", help="decide whether a chain is short")
    s.add_argument("--space", required=True)
    s.add_argument("--chain", required=True)
    _add_budget_flags(s)
    s.add_argument("--out", default=None)

    sc = sub.add_parser("scan", help="local joinability scan over close pairs")
    sc.add_argument("--space", required=True)
    sc.add_argument("--eps", type=float, required=True)
    sc.add_argument("--delta", type=float, required=True)
    sc.add_argument("--sigma", type=float, required=True)
    sc.add_argument("--seed", type=int, default=0)
    _add_budget_flags(sc)
    sc.add_argument("--out", default=None)

    gp = sub.add_parser("gp", help="build a generalized-path approximation")
    gp.add_argument("--space", required=True)
    gp.add_argument("--from", dest="src", type=int, required=True)
    gp.add_argument("--to", dest="dst", type=int, required=True)
    gp.add_argument("--filtration", required=True,
                    help="comma-separated decreasing scales, e.g. 0.5,0.25,0.1")
    _add_budget_flags(gp)
    gp.add_argument("--out", default=None)

    t = sub.add_parser("texas", help="run the full texas_circle obstruction")
    ts = t.add_argument_group("experiment", "a flag left unset takes the report's own default")
    ts.add_argument("--n", type=int, help="query pair at x = N*pi")
    ts.add_argument("--mprime", type=int, help="dichotomy cut at (MPRIME-1)*pi")
    ts.add_argument("--h", type=float, help="dichotomy sample step")
    ts.add_argument("--eps", type=float, help="coarsest scale")
    ts.add_argument("--m-end", type=float, help="domain end, in units of pi")
    _add_budget_flags(t)
    t.add_argument("--out", default=None)

    pl = sub.add_parser("plot", help="emit an SVG figure of a cloud")
    pl.add_argument("--space", required=True)
    pl.add_argument("--chain", action="append", default=[],
                    help="chain document to overlay (repeatable)")
    pl.add_argument("--width", type=int, default=900)
    pl.add_argument("--out", required=True)
    return ap


def _given(args, names) -> dict:
    """The named flags the user set; unset ones keep the callee's defaults."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _cmd_generate(args) -> int:
    if args.family == "explicit":
        raise DocumentError("explicit clouds come from documents, not generate")
    params = _given(args, ("n", "h", "h_segment", "m_end", "gap", "step", "length"))
    must = list(args.must_include)
    if args.include_pair_at is not None:
        must.extend(space.texas_pair(args.include_pair_at))
    spec = SpaceSpec(args.family, params, tuple(must), args.name or args.family)
    cloud = generate(spec)
    text = save_cloud(cloud, args.out)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_components(args) -> int:
    cloud = load_cloud(args.space)
    blocks = components(cloud, args.eps)
    _emit({"schema_version": SCHEMA_VERSION, "kind": "components_report",
           "space": cloud.name, "parameters": {"eps": args.eps},
           "count": len(blocks), "components": blocks}, args.out)
    return EXIT_OK


def _cmd_chain(args) -> int:
    cloud = load_cloud(args.space)
    chain = find_chain(cloud, args.src, args.dst, args.eps)
    if chain is None:
        _emit({"schema_version": SCHEMA_VERSION, "kind": "chain_report",
               "space": cloud.name,
               "parameters": {"eps": args.eps, "from": args.src, "to": args.dst},
               "found": False}, args.out)
        return EXIT_NEGATIVE
    _emit(chain_to_doc(chain), args.out)
    return EXIT_OK


def _verdict_exit(verdict) -> int:
    if verdict.is_homotopic:
        return EXIT_OK
    if verdict.is_not_homotopic:
        return EXIT_NEGATIVE
    return EXIT_UNKNOWN


def _cmd_homotopy(args) -> int:
    cloud = load_cloud(args.space)
    c1 = chain_from_doc(read_doc(args.c1, "chain"), cloud)
    c2 = chain_from_doc(read_doc(args.c2, "chain"), cloud)
    verdict = are_homotopic(c1, c2, _budget(args))
    _emit({"schema_version": SCHEMA_VERSION, "kind": "homotopy_report",
           "space": cloud.name,
           "parameters": {"eps": c1.scale.epsilon,
                          "c1": list(c1.vertices), "c2": list(c2.vertices)},
           "verdict": verdict.to_record()}, args.out)
    return _verdict_exit(verdict)


def _cmd_short(args) -> int:
    cloud = load_cloud(args.space)
    c = chain_from_doc(read_doc(args.chain, "chain"), cloud)
    verdict = is_short(c, _budget(args))
    _emit({"schema_version": SCHEMA_VERSION, "kind": "shortness_report",
           "space": cloud.name,
           "parameters": {"eps": c.scale.epsilon, "chain": list(c.vertices)},
           "verdict": verdict.to_record()}, args.out)
    return _verdict_exit(verdict)


def _cmd_scan(args) -> int:
    cloud = load_cloud(args.space)
    report = joinability.local_joinability_scan(
        cloud, args.eps, args.delta, args.sigma, budget=_budget(args),
        seed=args.seed)
    _emit(report.to_doc(), args.out)
    if report.passed:
        return EXIT_OK
    counts = report.counts()
    return EXIT_NEGATIVE if counts["refuted"] else EXIT_UNKNOWN


def _cmd_gp(args) -> int:
    cloud = load_cloud(args.space)
    scales = tuple(float(s) for s in args.filtration.split(","))
    approx = joinability.build_generalized_path(cloud, args.src, args.dst,
                                                scales, _budget(args))
    _emit(approx.to_doc(), args.out)
    return EXIT_OK if approx.accepted else EXIT_NEGATIVE


def _cmd_texas(args) -> int:
    report = joinability.texas_obstruction_report(
        **_given(args, ("n", "mprime", "h", "eps", "m_end")), budget=_budget(args))
    _emit(report, args.out)
    return EXIT_OK if report["reproduced"] else EXIT_NEGATIVE


def _cmd_plot(args) -> int:
    cloud = load_cloud(args.space)
    chains = [chain_from_doc(read_doc(p, "chain"), cloud) for p in args.chain]
    svgfig.write_figure(cloud, args.out, chains=chains, width=args.width)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "components": _cmd_components,
    "chain": _cmd_chain,
    "homotopy": _cmd_homotopy,
    "short": _cmd_short,
    "scan": _cmd_scan,
    "gp": _cmd_gp,
    "texas": _cmd_texas,
    "plot": _cmd_plot,
}


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (DocumentError, ValueError, IndexError, OSError) as exc:
        print(f"epschain {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
