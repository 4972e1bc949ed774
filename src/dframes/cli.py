"""Batch command-line front end.

Subcommands: check, gen, dsub, hat, classify, props, mine.  Reports render
as text (default) or JSON (--json); documents and DOT output are written
where asked.  Exit codes: 0 success, 1 a verdict failed, 2 input error.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import cache

import numpy as np

from . import documents
from .density import classify, dense_core, dense_members, is_dense_sub_d_locale, is_dually_subfit
from .dframe import dense_hom_witness, is_dense_hom
from .errors import DFramesError, InvalidDFrame, NotASubDLocale, SizeGuardExceeded
from .fixtures import (componentwise_dense_counterexample, double_negation_without_excluded_middle,
                       incorrigible_minimal, three_three)
from .reports import Report
from .search import frame_pool, mine, random_dframe, standard_corpus
from .subdlocale import enumerate_sub_d_locales
from .sweeps import full_sweep


def positive(text: str) -> int:
    """An integer of at least 1, for the sizes, guards and caps."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--strict", action="store_true",
                        help="validate relation lists literally instead of closing generators")


def _add_guard(parser):
    """The size guard, for the subcommands that enumerate sub-d-locales."""
    parser.add_argument("--max-pairs", type=positive, default=400,
                        help="sub-d-locale enumeration guard: sublocale pairs, "
                             "2^(primes of minus + primes of plus)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dframes",
        description="Finite d-frame computations: validation, sub-d-locale "
                    "lattices, dense cores and structural classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the axioms of a documented d-frame")
    p.add_argument("path")
    _add_common(p)

    p = sub.add_parser("gen", help="generate a d-frame document from a spec string")
    p.add_argument("spec", help="e.g. min:chain:3:chain:3 or sym:bool:2")
    p.add_argument("-o", "--out", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("dsub", help="enumerate the lattice of sub-d-locales")
    p.add_argument("path")
    _add_common(p)
    _add_guard(p)
    p.add_argument("--dot", metavar="PATH", default=None,
                   help="also write the cover diagram as DOT")

    p = sub.add_parser("hat", help="compute the smallest dense sub-d-locale")
    p.add_argument("path")
    _add_common(p)
    _add_guard(p)

    p = sub.add_parser("classify", help="decide the structural predicates")
    p.add_argument("path")
    _add_common(p)

    p = sub.add_parser("props", help="run the property suites over a corpus or document")
    p.add_argument("target", nargs="?", default="corpus",
                   help="'corpus' or a document path (default: corpus)")
    p.add_argument("--seed", type=int, default=None,
                   help="append seeded random d-frames to the corpus")
    p.add_argument("--corpus-size", type=positive, default=5,
                   help="lattice size bound for the generated corpus")
    _add_common(p)
    _add_guard(p)

    p = sub.add_parser("mine", help="bounded-exhaustive search for finite witnesses")
    p.add_argument("--max-frame", type=positive, default=3)
    p.add_argument("--max-candidates", type=positive, default=20000,
                   help="stop after this many d-frames; a window holding a frame "
                        "pair with more than 2^18 con x tot candidates is refused "
                        "(exit 2) before this limit can stop the search")
    p.add_argument("--json", action="store_true")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), run once per process: parsing leaves a parser as it was."""
    return build_parser()


def _emit(report, args, out) -> int:
    """Write the report as asked; the exit code is 1 if a verdict failed."""
    out.write(report.render_json() if args.json else report.render_text())
    return 0 if report.ok else 1


def _validated(df, report, args, out) -> bool:
    """Whether df passes the axioms; if not, its report is written with the
    failed axioms verdict."""
    axioms = df.validate()
    if not axioms.ok:
        report.verdict("axioms", False, str(axioms.first_failure))
        _emit(report, args, out)
    return axioms.ok


def cmd_check(args, out) -> int:
    df = documents.load_path(args.path, strict=args.strict)
    report = Report("check", {"path": args.path, "strict": args.strict, "name": df.name})
    axioms = df.validate()
    for check in axioms.checks:
        report.verdict(check.name, check.ok, "" if check.ok else str(check.witness))
    report.section("carriers", [
        f"minus: {list(df.minus.elements)}",
        f"plus: {list(df.plus.elements)}",
        f"con pairs: {df.con_pairs()}",
        f"tot pairs: {df.tot_pairs()}",
    ])
    return _emit(report, args, out)


def cmd_gen(args, out) -> int:
    df = documents.dframe_from_spec(args.spec)
    text = documents.dumps(df)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def cmd_dsub(args, out) -> int:
    df = documents.load_path(args.path, strict=args.strict)
    report = Report("dsub", {"path": args.path, "name": df.name})
    if not _validated(df, report, args, out):
        return 1
    ds = enumerate_sub_d_locales(df, max_pairs=args.max_pairs)
    report.section("members", [
        f"{i}: {label}" for i, label in enumerate(ds.labels)
    ])
    report.section("order", ["".join(row) for row in np.where(ds.leq, "1", ".").tolist()])
    witness = ds.distributivity_witness()
    report.section("distributive", [str(witness is None)] +
                   ([f"witness: {witness}"] if witness else []))
    witness_m = ds.modularity_witness()
    report.section("modular", [str(witness_m is None)] +
                   ([f"witness: {witness_m}"] if witness_m else []))
    report.verdict("member count", ds.n >= 1, f"{ds.n} members")
    report.verdict("lattice bounds realised", True,
                   f"top {ds.labels[ds.top]}, bottom {ds.labels[ds.bottom]}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(ds.dot())
    return _emit(report, args, out)


def cmd_hat(args, out) -> int:
    df = documents.load_path(args.path, strict=args.strict)
    report = Report("hat", {"path": args.path, "name": df.name})
    if not _validated(df, report, args, out):
        return 1
    core = dense_core(df)
    report.section("core carriers", [
        f"minus: {{{', '.join(df.minus.names(core.core.minus.members))}}}",
        f"plus: {{{', '.join(df.plus.names(core.core.plus.members))}}}",
        f"label: {core.core.label}",
    ])
    report.section("saturation nuclei", [
        f"{side}: " + ", ".join(f"{lat.elements[a]}->{lat.elements[b]}"
                                for a, b in enumerate(nu.mapping))
        for side, lat, nu in (("minus", df.minus, core.nu_minus), ("plus", df.plus, core.nu_plus))])
    report.verdict("core is dense", is_dense_sub_d_locale(core.core))
    report.verdict("core is dually subfit", is_dually_subfit(core.as_dframe))
    try:
        ds = enumerate_sub_d_locales(df, max_pairs=args.max_pairs)
        dense, core_mask = dense_members(ds), ds.mask_of(core.core.minus, core.core.plus)
        report.verdict("core below every dense sub-d-locale",
                       ((ds.masks[dense] & core_mask) == core_mask).all(),
                       f"{dense.sum()} dense members")
    except SizeGuardExceeded:
        report.section("minimality", ["skipped: enumeration exceeds the size guard"])
    props = classify(df)
    report.section("classification", [f"{k}: {v}" for k, v in sorted(props.as_dict().items())])
    return _emit(report, args, out)


def cmd_classify(args, out) -> int:
    df = documents.load_path(args.path, strict=args.strict)
    report = Report("classify", {"path": args.path, "name": df.name})
    if not _validated(df, report, args, out):
        return 1
    props = classify(df)
    for key, value in sorted(props.as_dict().items()):
        report.section(key, [str(value)])
    report.verdict("implication chain", True,
                   "excluded middle => double negation => corrigible, dually subfit")
    return _emit(report, args, out)


def cmd_props(args, out) -> int:
    report = Report("props", {
        "target": args.target,
        "seed": args.seed,
        "corpus_size": args.corpus_size,
    })
    if args.target == "corpus":
        corpus = standard_corpus(args.corpus_size)
        corpus += [three_three(), double_negation_without_excluded_middle(),
                   incorrigible_minimal()]
    else:
        df = documents.load_path(args.target, strict=args.strict)
        if not _validated(df, report, args, out):
            return 1
        corpus = [df]
    if args.seed is not None:
        rng = random.Random(args.seed)
        pool = frame_pool(4)
        corpus += [random_dframe(rng, pool=pool) for _ in range(6)]

    sweep = full_sweep(corpus, max_pairs=args.max_pairs)
    failures = sweep.failures()
    report.verdict("property suites", sweep.ok,
                   f"{len(sweep.verdicts)} checks" if sweep.ok else str(failures[0]))
    report.section("suite size", [f"{len(sweep.verdicts)} checks over {len(corpus)} d-frames"])
    if failures:
        report.section("failures", [f"{n} :: {d}" for n, d in failures[:20]])

    dom, cod, hom = componentwise_dense_counterexample()
    witness = dense_hom_witness(hom)
    report.verdict(
        "componentwise-dense counterexample",
        hom.minus.is_dense and hom.plus.is_dense and not is_dense_hom(hom)
        and witness == ("bc", "ab"),
        f"witness {witness}",
    )
    return _emit(report, args, out)


def cmd_mine(args, out) -> int:
    result = mine(max_frame=args.max_frame, max_candidates=args.max_candidates)
    report = Report("mine", {
        "max_frame": args.max_frame,
        "max_candidates": args.max_candidates,
    })
    report.section("findings", result.summary_lines())
    report.verdict("search completed", True, f"{result.searched} d-frames examined")
    return _emit(report, args, out)


_COMMANDS = {
    "check": cmd_check,
    "gen": cmd_gen,
    "dsub": cmd_dsub,
    "hat": cmd_hat,
    "classify": cmd_classify,
    "props": cmd_props,
    "mine": cmd_mine,
}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, stdout)
    except (InvalidDFrame, NotASubDLocale) as exc:
        stderr.write(f"error: {exc}\n")
        return 1
    except DFramesError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
