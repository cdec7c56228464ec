"""Command-line surface.

Presentations come from files or from `catalog:NAME` pseudo-paths.  Exit
status is 0 on success, 1 on validation or verification failure, 2 on usage
errors (argparse's own convention).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds as bounds_mod
from .arc_presentation import (
    PresentationError,
    catalog,
    catalog_names,
    equal_length_parts,
    validate_presentation,
)
from .circular_diagram import to_circular
from .documents import (
    DocumentError,
    dumps_document,
    embedding_from_doc,
    embedding_to_doc,
    equilateral_from_doc,
    equilateral_to_doc,
    presentation_from_doc,
    presentation_to_doc,
    to_obj,
)
from .equilateral_builder import EquilateralError, build_parts
from .graph_core import GraphError
from .randgen import PROFILES, GenerationExhausted, random_presentation
from .stick_builder import BuildError, build
from .verifier import check_equilateral, check_simplicity, verify_stick_embedding


def _load_presentation(path: str):
    if path.startswith("catalog:"):
        return catalog(path[len("catalog:"):])
    with open(path, encoding="utf-8") as fh:
        return presentation_from_doc(json.load(fh))


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_validate(args) -> int:
    vp = validate_presentation(_load_presentation(args.presentation))
    comps = len(vp.vgraph.components)
    print(f"valid: n={vp.n} e={vp.e} v={vp.v} m={vp.m} components={comps}")
    if vp.params is not None:
        p = vp.params
        tag = " (heuristic)" if p.heuristic else ""
        print(f"params: c={p.c} b={p.b} k={p.k}{tag}")
    return 0


def _cmd_classify(args) -> int:
    vp = validate_presentation(_load_presentation(args.presentation))
    cd = to_circular(vp)
    n2, n1, n0 = cd.counts
    print(f"m={cd.m} crossings={len(cd.crossings)}")
    print("initiating pages:", ",".join(str(p) for p in cd.initiating))
    print("chord classes:", ",".join(c.kind for c in cd.classes))
    print(f"(n_2,n_1,n_0)=({n2},{n1},{n0})")
    return 0


def _cmd_build_stick(args) -> int:
    vp = validate_presentation(_load_presentation(args.presentation))
    cd = to_circular(vp)
    se = build(cd)
    report = verify_stick_embedding(se, cd)
    print(f"sticks: {len(se.sticks)}")
    print(f"max height: {max(se.heights.values())}")
    if args.out:
        _write(args.out, dumps_document(embedding_to_doc(se)))
    if args.obj:
        _write(args.obj, to_obj(se))
    if not report.ok:
        print(report.summary())
        return 1
    print("verified: simplicity, projection, crossing order")
    return 0


def _cmd_build_eq(args) -> int:
    vps = [validate_presentation(_load_presentation(p)) for p in args.presentation]
    emb = build_parts([part for vp in vps for part in equal_length_parts(vp)], M=args.M)
    print(f"sticks: {len(emb.sticks)}  M: {emb.M}  components: {len(emb.components)}")
    if emb.tolerance is not None:
        t = emb.tolerance
        print(f"max length deviation: {t.max_length_dev_rel:.3e} rel")
        print(f"min clearance: {t.min_clearance:.6g} ({t.min_clearance_rel:.3e} rel)")
    if emb.certificate is not None:
        state = "passed" if emb.certificate.passed else "FAILED"
        print(f"certificate: {state}  {emb.certificate.detail}")
    if args.out:
        _write(args.out, dumps_document(equilateral_to_doc(emb)))
    if args.obj:
        _write(args.obj, to_obj(emb))
    return 0 if emb.certificate is None or emb.certificate.passed else 1


def _cmd_bounds(args) -> int:
    torus = None
    if args.torus:
        try:
            p, q = (int(x) for x in args.torus.split(","))
        except ValueError:
            print(f"--torus wants p,q integers, got {args.torus!r}", file=sys.stderr)
            return 2
        torus = (p, q)
    report = bounds_mod.bounds_report(
        c=args.c, e=args.e, v=args.v, b=args.b, k=args.k,
        alpha=args.alpha, n0=args.n0,
        two_bridge=args.two_bridge, torus=torus)
    for line in report.lines():
        print(line)
    if args.out:
        doc = {
            "format": "stickforge/bounds/1",
            "inputs": {k: v for k, v in report.inputs.items() if v is not None},
            "bounds": [
                {"formula": e.formula, "value": str(e.value),
                 "floor": e.floor, "ceil": e.ceil, "note": e.note}
                for e in report.entries
            ],
        }
        _write(args.out, dumps_document(doc))
    return 0


def _cmd_verify(args) -> int:
    with open(args.embedding, encoding="utf-8") as fh:
        doc = json.load(fh)
    vp = validate_presentation(_load_presentation(args.presentation))
    mode = doc.get("mode") if isinstance(doc, dict) else None
    if mode == "exact":
        report = verify_stick_embedding(embedding_from_doc(doc), to_circular(vp))
    elif mode == "decimal":
        emb = equilateral_from_doc(doc)
        want = [part.n for part in equal_length_parts(vp)]
        have = [c.n_arcs for c in emb.components]
        report = check_equilateral(emb)
        report.add("equilateral.presentation", have == want,
                   f"document components have {have} arcs, the presentation's parts {want}")
        segs = [(s.a, s.b) for s in emb.sticks]
        report.merge(check_simplicity(segs, scale=emb.M))
    else:
        raise DocumentError(f"unknown coordinate mode {mode!r}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_catalog(args) -> int:
    if not args.name:
        for name in catalog_names():
            print(name)
        return 0
    ap = catalog(args.name)
    _write(args.out, dumps_document(presentation_to_doc(ap)))
    return 0


def _cmd_random(args) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("STICKFORGE_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            print(f"error: STICKFORGE_SEED must be an integer, got {text!r}", file=sys.stderr)
            return 2
    ap = random_presentation(seed, profile=args.profile, max_arcs=args.max_arcs)
    _write(args.out, dumps_document(presentation_to_doc(ap)))
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stickforge",
        description="Stick embeddings of spatial graphs from arc presentations.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a presentation document")
    p.add_argument("presentation", help="path or catalog:NAME")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="chord classes and counts")
    p.add_argument("presentation")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("build-stick", help="exact rational stick embedding")
    p.add_argument("presentation")
    p.add_argument("-o", "--out", help="write embedding document")
    p.add_argument("--obj", help="write Wavefront OBJ polylines")
    p.set_defaults(func=_cmd_build_stick)

    p = sub.add_parser("build-eq", help="equal-length stick embedding")
    p.add_argument("presentation", nargs="+")
    p.add_argument("-M", type=float, default=None, help="stick length")
    p.add_argument("-o", "--out", help="write embedding document")
    p.add_argument("--obj", help="write Wavefront OBJ polylines")
    p.set_defaults(func=_cmd_build_eq)

    p = sub.add_parser("bounds", help="evaluate bound formulas")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--n0", type=int, default=None)
    p.add_argument("--two-bridge", action="store_true")
    p.add_argument("--torus", help="p,q")
    p.add_argument("-o", "--out", help="write bounds document")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="re-check an embedding document")
    p.add_argument("embedding")
    p.add_argument("presentation")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="list or print built-in presentations")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("-o", "--out", help="write presentation document")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("random", help="seeded random presentation")
    p.add_argument("--seed", type=int, default=None,
                   help="default: STICKFORGE_SEED env var, else 0")
    p.add_argument("--profile", choices=PROFILES, default="knot")
    p.add_argument("--max-arcs", type=int, default=12)
    p.add_argument("-o", "--out", help="write presentation document")
    p.set_defaults(func=_cmd_random)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, PresentationError, BuildError, EquilateralError,
            bounds_mod.BoundsError, DocumentError, GenerationExhausted,
            OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
