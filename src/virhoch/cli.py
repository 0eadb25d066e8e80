"""Command-line front end: checks, dimension tables, and report bundles.

Four subcommands cover the computational claims end to end:

  gsb         re-check the defining relations and overlap ambiguities
  ddzero      resolution and cochain square-zero suites
  cohomology  dimension table at one parameter point
  report      reproduction bundle over the standard parameter points

Exit codes: 0 success, 1 a mathematical check failed, 2 results disagree
with the bundled expectations, 64 usage error.  All output is deterministic
for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, algebra, anick, cochain, cohom
from .scalars import format_rational, parse_rational

EXIT_OK = 0
EXIT_INVARIANT = 1  # an InvariantError: a failed check
EXIT_EXPECT_MISMATCH = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for
    # expectation mismatches and uses 64 for usage problems
    def error(self, message):
        raise UsageError(message)


def validate(n_max: int, s_max: int, alpha: Fraction, truncated: int | None,
             locate: bool, fmt: str) -> None:
    """Reject inconsistent table options; each command calls it once, before any work.

    ``truncated`` is the grade cutoff S, or None for the graded route.  Only
    the bounds the chosen route reads are checked: the truncated route reads
    S instead of ``s_max``.
    """
    if n_max < 1:
        raise UsageError("--nmax must be >= 1")
    lowest = anick.lowest_grade(1)  # of any chain; cohom checks S against degree n_max's
    if truncated is None and s_max < lowest:
        raise UsageError(f"--smax must be >= {lowest}")
    if truncated is None and alpha:
        raise UsageError(
            "a nonzero shift mixes grades; use --truncated S for the bounded subcomplex"
        )
    if truncated is not None and not alpha:
        raise UsageError("the truncated route needs a nonzero --alpha")
    if locate and truncated is not None:
        raise UsageError("--locate applies to the graded route (alpha = 0)")
    if locate and fmt != "table":
        raise UsageError("--locate prints its classes in the table format only")


# ---------------------------------------------------------------------------
# table computation


def compute_table(delta: Fraction, alpha: Fraction, n_max: int, s_max: int) -> cohom.DimTable:
    """The table for validated options; at a nonzero shift ``s_max`` is the cutoff S."""
    if alpha:
        return cohom.truncated_cohomology(delta, alpha, n_max=n_max, S=s_max)
    return cohom.cohomology_dims(delta, n_max=n_max, s_max=s_max)


# ---------------------------------------------------------------------------
# rendering: the text, CSV and JSON forms of a table


def render_table(table: cohom.DimTable, locate: bool) -> list[str]:
    """The text form; ``locate`` adds the classes of a graded table."""
    d, a = format_rational(table.delta), format_rational(table.alpha)
    lines = []
    if table.graded:
        lines.append(f"cohomology at delta={d}, alpha={a} (n <= {table.n_max}, s <= {table.s_max})")
        for n in sorted(table.totals):
            nonzero = [
                f"s={s}: {dim}" for (m, s), dim in sorted(table.by_grade.items()) if m == n and dim
            ]
            tail = "   [" + ", ".join(nonzero) + "]" if nonzero else ""
            lines.append(f"H^{n} = {table.totals[n]}{tail}")
    else:
        lines.append(
            f"truncated cohomology at delta={d}, alpha={a} "
            f"(n <= {table.n_max}, grades <= {table.s_max} vs {table.s_max + 1})"
        )
        for n in sorted(table.totals):
            flag = "stable" if table.stable[n] else "UNSTABLE"
            lines.append(f"H^{n} = {table.totals[n]} ({flag})")
    lines.append("totals: " + ",".join(str(table.totals[n]) for n in sorted(table.totals)))
    if locate:
        for n, found in table.classes.items():
            if found:
                chains = ", ".join(anick.chain_to_text(c) for c in found)
                lines.append(f"classes at n={n}: {chains}")
    return lines


def render_csv(table: cohom.DimTable) -> list[str]:
    """Header and one row per degree and grade; truncated tables leave s empty."""
    d, a = format_rational(table.delta), format_rational(table.alpha)
    out = ["delta,alpha,n,s,dim"]
    if table.graded:
        for (n, s), dim in sorted(table.by_grade.items()):
            out.append(f"{d},{a},{n},{s},{dim}")
    else:
        for n in sorted(table.totals):
            out.append(f"{d},{a},{n},,{table.totals[n]}")
    return out


def json_doc(table: cohom.DimTable) -> dict:
    """The JSON form: rationals as strings, maps keyed by degree or "n,s"."""
    doc = {
        "delta": format_rational(table.delta),
        "alpha": format_rational(table.alpha),
        "n_max": table.n_max,
        "s_max": table.s_max,
        "totals": {str(n): table.totals[n] for n in sorted(table.totals)},
    }
    if table.graded:
        doc["by_grade"] = {f"{n},{s}": dim for (n, s), dim in sorted(table.by_grade.items())}
    else:
        doc["stable"] = {str(n): table.stable[n] for n in sorted(table.stable)}
    return doc


def load_expected() -> dict:
    from importlib import resources  # pulls in tempfile and shutil: import on use
    with resources.files("virhoch").joinpath("expected_dims.json").open() as fh:
        return json.load(fh)


def find_expectation(delta: Fraction, alpha: Fraction) -> dict:
    """The bundled claim for this parameter point, or a usage error."""
    family = "truncated" if alpha else "graded"
    d, a = format_rational(delta), format_rational(alpha)
    for entry in load_expected()[family]:
        if entry["delta"] == d and entry["alpha"] == a:
            return entry
    raise UsageError(f"no bundled expectation for delta={d}, alpha={a} ({family})")


def check_expectation(table: cohom.DimTable, entry: dict) -> tuple[bool, str]:
    """Compare a table against one bundled claim on the degrees both have: (ok, message)."""
    shared = [n for n in entry["totals"] if int(n) in table.totals]
    got = {n: table.totals[int(n)] for n in shared}
    want = {n: entry["totals"][n] for n in shared}
    if got != want:
        return False, f"totals {got} differ from expected {want}"
    if not all(table.stable.values()):
        return False, f"cutoff-unstable degrees: {json_doc(table)['stable']}"
    return True, "match"


# ---------------------------------------------------------------------------
# subcommands


def cmd_gsb(args) -> int:
    if args.bound < 3:
        raise UsageError("--bound must be >= 3")  # below 3 no locality relation is checked
    report = algebra.verify_defining_relations(args.bound)
    if not report.ok:
        raise algebra.InvariantError("\n      ".join(report.violations))
    relations = report.locality_checked + report.commutator_checked
    print(f"overlaps: {report.overlaps_checked} ok; relations: {relations} ok")
    return EXIT_OK


def _ddzero_resolution(letters: int, s_max: int) -> int:
    checked = 0
    for n in range(2, letters + 1):
        for c in anick.enumerate_chains(n, s_max):
            residual = anick.compose_delta(c)
            if residual:
                (cp, lam), q = next(iter(residual.items()))
                head = algebra.word_to_text(lam) if lam else "1"
                raise algebra.InvariantError(
                    f"delta.delta at {anick.chain_to_text(c)}: "
                    f"{q} * {head} {anick.chain_to_text(cp)}"
                )
            checked += 1
    print(f"delta.delta = 0 on {checked} chains (letters <= {letters}, grade <= {s_max})")
    return EXIT_OK


def _ddzero_symbolic(degrees: int, s_max: int) -> int:
    chains = (c for n in range(degrees + 1) for c in anick.enumerate_chains(n + 2, s_max))
    checked = 0
    for c, square in cochain.square_rows(chains):  # lazily: the first failing chain stops it
        if square:
            src = min(square)
            raise algebra.InvariantError(
                f"d.d at {anick.chain_to_text(c)} -> "
                f"{anick.chain_to_text(src)}: {square[src]}"
            )
        checked += 1
    print(
        f"d.d = 0 symbolically on {checked} chains "
        f"(cochain degrees 0..{degrees}, grade <= {s_max})"
    )
    return EXIT_OK


def cmd_ddzero(args) -> int:
    # each suite checks only the bounds it reads; both start at 2-letter chains
    lowest = anick.lowest_grade(2)
    if args.smax < lowest:
        raise UsageError(f"--smax must be >= {lowest}")
    if args.symbolic and args.degrees < 0:
        raise UsageError("--degrees must be >= 0")
    if not args.symbolic and args.letters < 2:
        raise UsageError("--letters must be >= 2")
    with algebra.rule_defect(args.inject_defect):
        if args.symbolic:
            return _ddzero_symbolic(args.degrees, args.smax)
        return _ddzero_resolution(args.letters, args.smax)


def cmd_cohomology(args) -> int:
    delta, alpha = parse_rational(args.delta), parse_rational(args.alpha)
    validate(args.nmax, args.smax, alpha, args.truncated, args.locate, args.format)
    expected = find_expectation(delta, alpha) if args.expect else None
    bound = args.smax if args.truncated is None else args.truncated
    table = compute_table(delta, alpha, args.nmax, bound)
    if args.format == "json":
        print(json.dumps(json_doc(table), sort_keys=True, indent=2))
    elif args.format == "csv":
        print("\n".join(render_csv(table)))
    else:
        print("\n".join(render_table(table, args.locate)))
    if expected is not None:
        ok, message = check_expectation(table, expected)
        print(f"expectation ({args.expect}): {message}")
        if not ok:
            return EXIT_EXPECT_MISMATCH
    return EXIT_OK


def _point_filename(delta: Fraction, alpha: Fraction) -> str:
    def slug(x: Fraction) -> str:
        return format_rational(x).replace("-", "m").replace("/", "_")

    return f"dims_d{slug(delta)}_a{slug(alpha)}.csv"


def cmd_report(args) -> int:
    if args.format == "csv" and args.out is None:
        raise UsageError("csv reports need --out DIR")
    validate(args.nmax, args.smax, Fraction(0), None, False, args.format)
    # the standard points: the weights of the bundled graded claims, at shift 0
    weights = [parse_rational(e["delta"]) for e in load_expected()["graded"]]
    if args.out is not None:
        from pathlib import Path  # only a report written to files needs it
        args.out = Path(args.out)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"--out {args.out} is not a usable directory: {exc.strerror}")
    # one process, fixed emission order: the points share the memoized rows
    tables = [compute_table(d, Fraction(0), args.nmax, args.smax) for d in weights]

    if args.format == "json":
        bundle = {format_rational(t.delta): json_doc(t) for t in tables}
        text = json.dumps(bundle, sort_keys=True, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(text)
            return EXIT_OK
        path = args.out / "report.json"
        path.write_text(text)
        print(path)
        return EXIT_OK

    written = []
    summary = [f"cohomology dimension tables (n <= {args.nmax}, s <= {args.smax})", ""]
    for table in tables:
        path = args.out / _point_filename(table.delta, table.alpha)
        path.write_text("\n".join(render_csv(table)) + "\n")
        written.append(path)
        totals = ",".join(str(table.totals[n]) for n in sorted(table.totals))
        summary.append(
            f"delta={format_rational(table.delta)}, alpha=0: "
            f"H^1..H^{args.nmax} = {totals}"
        )
    spath = args.out / "summary.txt"
    spath.write_text("\n".join(summary) + "\n")
    written.append(spath)
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="virhoch", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"virhoch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gsb", help="re-check defining relations and overlap ambiguities")
    p.add_argument("--bound", type=int, default=10, help="max generator index (default 10)")
    p.set_defaults(fn=cmd_gsb)

    p = sub.add_parser("ddzero", help="square-zero suites for the resolution and the cochains")
    p.add_argument("--letters", type=int, default=5, help="max chain letters (default 5)")
    p.add_argument("--smax", type=int, default=8, help="max grade (default 8)")
    p.add_argument("--symbolic", action="store_true", help="check the reduced cochain rows instead")
    p.add_argument("--degrees", type=int, default=4, help="max cochain degree (default 4)")
    p.add_argument("--inject-defect", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_ddzero)

    p = sub.add_parser("cohomology", help="dimension table at one parameter point")
    p.add_argument("--delta", required=True, help="module weight, rational 'p/q'")
    p.add_argument("--alpha", default="0", help="module shift, rational 'p/q' (default 0)")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--smax", type=int, default=8)
    p.add_argument("--truncated", type=int, default=None, metavar="S",
                   help="grade cutoff for the nonzero-shift subcomplex")
    p.add_argument("--expect", choices=["paper"], default=None,
                   help="compare against the bundled expectation file")
    p.add_argument("--locate", action="store_true", help="list the chains carrying classes")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("report", help="write the reproduction bundle for the standard points")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--smax", type=int, default=8)
    p.set_defaults(fn=cmd_report)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # one parser per process, built on the first call rather than at import;
    # parsing keeps no state in it, so a process may run many commands (the
    # cmd_* functions are bound when it is built)
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except algebra.InvariantError as exc:
        # every failed check, whichever layer found it
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        # bad rationals, malformed chain literals and similar input problems
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
