"""Command-line front end.

Exit status: 0 on success; 2 on usage errors (unknown verb, malformed
permutation, pipe dream, word or integer option, an out-of-range option,
a tripped size guard or a malformed SCHUBERT_MAX_N), which the verbs check
at this boundary; 1 on verification failure and on any other error (a broken
library invariant, a Groebner reduction past its coefficient bound, a
library defect), each reported as one ``error:`` line; 1 and no line when
the reader of standard output closes early (``| head``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import checks, grobner, hilbert, ideal, perm, pipedream, poly, subword
from .limits import INTEGER, InvariantError, SizeGuardError, size_guard
from .perm import Perm


class UsageError(Exception):
    pass


def parse_permutation(text: str) -> Perm:
    try:
        return perm.parse(text)
    except ValueError:
        raise UsageError(f"malformed permutation: {text.strip()!r}") from None


def parse_integer(option: str, text: str) -> int:
    """An optional sign and ASCII digits, as SCHUBERT_MAX_N; int() also takes "0_3"."""
    if not INTEGER.fullmatch(text):
        raise UsageError(f"{option} {text!r} is not an integer")
    return int(text)


def _emit_poly(f, as_json: bool) -> None:
    print(poly.poly_to_json(f) if as_json else poly.poly_str(f))


def _emit_dreams(dreams, args) -> None:
    ordered = sorted(dreams, key=lambda d: d.sorted_crosses())
    if args.json:
        print(json.dumps([d.to_jsonable() for d in ordered]))
        return
    for d in ordered:
        if args.render:
            print(d.render())
            print()
        else:
            print(d.to_json())


def cmd_family(args) -> int:
    """The schubert and grothendieck verbs: one family, single or double."""
    single, double = args.family
    w = parse_permutation(args.permutation)
    _emit_poly(double(w) if args.double else single(w), args.json)
    return 0


def cmd_rp(args) -> int:
    w = parse_permutation(args.permutation)
    dreams = (
        pipedream.rp_bruteforce(w) if args.method == "brute" else pipedream.rp_mitosis(w)
    )
    _emit_dreams(dreams, args)
    return 0


def parse_dream(text: str) -> pipedream.PipeDream:
    try:
        return pipedream.PipeDream.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        # JSON of the wrong shape: a missing key, a list for an object, ...
        raise UsageError(
            f"malformed pipe dream: {text.strip()!r} ({type(exc).__name__}: {exc})"
        ) from None


def cmd_mitosis(args) -> int:
    row = parse_integer("--row", args.row)
    dream = parse_dream(args.dream)
    size_guard(dream.n, "mitosis")
    if dream.n < 2:
        raise UsageError(f"--row {row}: a dream with n = {dream.n} has no row to mutate")
    if not 1 <= row < dream.n:
        raise UsageError(f"--row {row} is not in 1..{dream.n - 1}")
    _emit_dreams(pipedream.mitosis(row, dream), args)
    return 0


def cmd_ideal(args) -> int:
    w = parse_permutation(args.permutation)
    minors = sorted(
        ideal.schubert_generators(w), key=lambda m: (m.size, m.rows, m.cols)
    )
    jw = ideal.antidiagonal_ideal(w)
    gens = sorted(sorted(g) for g in jw.generators)
    if args.json:
        print(
            json.dumps(
                {
                    "minors": [m.to_jsonable() for m in minors],
                    "antidiagonal_ideal": [[list(c) for c in g] for g in gens],
                }
            )
        )
        return 0
    print(f"{len(minors)} minors")
    for m in minors:
        print(f"  rows {list(m.rows)} cols {list(m.cols)}")
    print(f"antidiagonal ideal, {len(gens)} generators")
    for g in gens:
        print("  " + "*".join(poly.var_name(poly.zvar(i, j)) for (i, j) in g))
    return 0


def cmd_gb_verify(args) -> int:
    if args.all_s4 == (args.permutation is not None):
        raise UsageError("gb-verify needs exactly one of a permutation and --all-s4")
    perms = list(perm.all_perms(4)) if args.all_s4 else [parse_permutation(args.permutation)]
    size_guard(len(perms[0]), "verify_theorem_b")  # before the n^2 x n^2 order is built
    order = grobner.TERM_ORDERS[args.order](len(perms[0]))  # one n per run
    if not order.antidiagonal:
        raise UsageError(f"gb-verify needs an antidiagonal order, not {args.order!r}")
    results = []
    for w in perms:
        t0 = time.perf_counter()
        passed = grobner.verify_theorem_b(w, order)
        dt = time.perf_counter() - t0
        results.append(
            {
                "permutation": list(w),
                "order": args.order,
                "pass": passed,
                "generators": len(ideal.schubert_generators(w)),
                "seconds": round(dt, 4),
            }
        )
    if args.json:
        print(json.dumps(results))
    else:
        for r in results:
            status = "PASS" if r["pass"] else "FAIL"
            print(
                f"{status} {''.join(map(str, r['permutation']))} {r['order']}"
                f" gens={r['generators']} t={r['seconds']}s"
            )
    return 0 if all(r["pass"] for r in results) else 1


def cmd_invariant(args) -> int:
    """The kpoly and multidegree verbs: one invariant of k[z]/J_w."""
    w = parse_permutation(args.permutation)
    _emit_poly(args.invariant(ideal.antidiagonal_ideal(w), args.grading), args.json)
    return 0


def parse_word(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not all(p.isascii() and p.isdecimal() and int(p) >= 1 for p in parts):
        raise UsageError(f"malformed word: {text.strip()!r} (letters are integers >= 1)")
    return tuple(map(int, parts))


def cmd_subword(args) -> int:
    word = parse_word(args.word)
    pi = parse_permutation(args.perm)
    n = max(len(pi), max(word, default=0) + 1)
    size_guard(n, "subword")
    cox = subword.symmetric_group(n)
    delta = subword.subword_complex(word, perm.embed(pi, n), cox)
    payload: dict = {"facets": delta.facets_sorted()}
    if args.decompose and not delta.is_void():
        tree, shelling = subword.vertex_decompose(delta)  # InvariantError unless a shelling
        payload["decomposition"] = subword.decomposition_to_jsonable(tree)
        payload["shelling"] = [sorted(f) for f in shelling]
        payload["is_shelling"] = True
    if args.json:
        print(json.dumps(payload))
    else:
        for f in payload["facets"]:
            print(" ".join(map(str, f)))
        if "shelling" in payload:
            print("shelling: " + "; ".join(" ".join(map(str, f)) for f in payload["shelling"]))
            print(f"is_shelling: {payload['is_shelling']}")
    return 0


def cmd_check_all(args) -> int:
    n = parse_integer("--n", args.n)
    if n < 1:
        raise UsageError(f"--n {n} is not a positive integer")
    results = checks.run_all(n=n, slow=args.slow)
    ok = all(passed for _, passed, _ in results)
    if args.json:
        keys = ("check", "pass", "detail")
        print(json.dumps([dict(zip(keys, result)) for result in results]))
        return 0 if ok else 1
    for name, passed, detail in results:
        line = f"{'PASS' if passed else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Schubert polynomials, pipe dreams, determinantal ideals, "
        "and their desk-scale verification",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    for verb, help_text, family in (
        ("schubert", "Schubert polynomial of a permutation",
         (poly.schubert, poly.double_schubert)),
        ("grothendieck", "Grothendieck polynomial",
         (poly.grothendieck, poly.double_grothendieck)),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("permutation")
        p.add_argument("--double", action="store_true")
        add_json(p)
        p.set_defaults(func=cmd_family, family=family)

    p = sub.add_parser("rp", help="reduced pipe dreams")
    p.add_argument("permutation")
    p.add_argument("--method", choices=["mitosis", "brute"], default="mitosis")
    p.add_argument("--render", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_rp)

    p = sub.add_parser("mitosis", help="apply a mitosis operator to a pipe dream")
    p.add_argument("--row", required=True)
    p.add_argument("--dream", required=True, help='JSON like {"n":4,"crosses":[[1,1]]}')
    p.add_argument("--render", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_mitosis)

    p = sub.add_parser("ideal", help="Schubert determinantal minors and J_w")
    p.add_argument("permutation")
    add_json(p)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("gb-verify", help="verify the Groebner-basis statement")
    p.add_argument("permutation", nargs="?")
    p.add_argument("--order", choices=list(grobner.TERM_ORDERS), default="antidiag-revlex")
    p.add_argument("--all-s4", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_gb_verify)

    for verb, help_text, invariant in (
        ("kpoly", "K-polynomial of k[z]/J_w", hilbert.k_polynomial),
        ("multidegree", "multidegree of k[z]/J_w", hilbert.multidegree_of_ideal),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("permutation")
        p.add_argument("--grading", choices=list(hilbert.GRADINGS), default="zn")
        add_json(p)
        p.set_defaults(func=cmd_invariant, invariant=invariant)

    p = sub.add_parser("subword", help="facets of a subword complex")
    p.add_argument("--word", required=True, help='letters, e.g. "3,2,3,2,3"')
    p.add_argument("--perm", required=True)
    p.add_argument("--decompose", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_subword)

    p = sub.add_parser("check-all", help="run the verification suite")
    p.add_argument("--n", default="4")
    p.add_argument(
        "--slow", action="store_true",
        help="include the slow sweeps: Theorem B on all of S6 and the 165-minor "
        "instance, and Theorem A on all of S6",
    )
    add_json(p)
    p.set_defaults(func=cmd_check_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: stdout to devnull, so the last flush cannot raise
        with contextlib.suppress(AttributeError, ValueError):  # stdout is no file
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except (UsageError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, grobner.CoefficientBlowup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a library defect, not bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
