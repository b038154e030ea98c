"""Command-line interface: query, table, derive, lift, verify.

`derive` selects no bound itself: `proofs.prove(m, e, external)` proves
the least output at m, an external one only under `--external`.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 internal
inconsistency (an engine bug, a `records.EngineError`: a lower bound
exceeding an upper bound, a round or lifting gate off its closed form, a
weakening off the output it stands on, or the spin criteria disagreeing;
inside `verify`, any of these fails its check instead, and the command
exits 2; an `AssertionError` is not one of them),
74 (EX_IOERR) stdout could not be written (a full disk, say), 141 (128 +
SIGPIPE) stdout closed, or its reader gone before it was written.

Each subcommand forms its whole stdout and returns it with its exit code;
`main` alone writes it, once, after the command's last check, so a command
that fails leaves stdout empty.  The help that `--help` asks for is written
the same way, with the same exit codes when stdout fails.  Every
diagnostic goes through `_warn`, and a diagnostic never costs stdout or
the exit code: where stderr cannot be written, or is closed, the line is
dropped.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

# json is imported by the functions that use it: every command is a process
# of its own, and most never read or write jsonl

from . import _IMPORT_START, inductive
from .catalog import report
from .dyadic import alpha
from .lifting import (davis_mahowald_check, embedding_gate, feeding_params,
                      sharpening_drop, sharper_lifting_level)
from .records import EngineError, LensSpace, on_paths, unique_nodes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3
EXIT_IOERR = 74  # EX_IOERR
EXIT_PIPE = 128 + 13  # SIGPIPE

COLUMNS = ("m", "dim", "e", "lower", "lower_rule", "upper", "upper_rule",
           "upper_category", "gap", "eff", "exact")


class _Help(Exception):
    """The help a parser was asked for (`--help`), which `main` writes to
    stdout as it writes a command's."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # argparse builds a formatter for every argument it adds; at a fixed
        # width it does not read the terminal's, which imports shutil (and
        # bz2, lzma, zlib and fnmatch).  `build_parser` restores argparse's
        # formatter for help and usage.
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(
            prog, width=80), **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        _warn(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _to_devnull(fd: int) -> None:
    """Point `fd` at devnull, so that the interpreter's flush at exit of
    what a failed write left in a buffer goes nowhere, and silently."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), fd)


def _warn(line: str) -> None:
    """Write one diagnostic line to stderr, the only way this module does.
    A diagnostic never costs a command its stdout or its exit code: where
    stderr cannot take the line it is dropped and fd 2 goes to devnull, and
    where there is no stderr nothing is written."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(f"{line}\n")
        sys.stderr.flush()
    except OSError:
        _to_devnull(2)


# --- table rendering (byte-stable per format) ------------------------------

def table_rows(e: int, max_m: int, odd_factor: int = 1,
               conjectural: bool = False, external: bool = False) -> list[dict]:
    LensSpace(1, e, odd_factor)  # checks e and k where no row is made
    rows = []
    for m in range(1, max_m + 1):
        rep = report(LensSpace(m, e, odd_factor), conjectural=conjectural,
                     external=external)
        rows.append({
            "m": m,
            "dim": rep.space.dim,
            "e": e,
            "lower": rep.lower.dim,
            "lower_rule": rep.lower.rule_id,
            "upper": rep.upper.dim,
            "upper_rule": rep.upper.rule_id,
            "upper_category": str(rep.upper.category),
            "gap": rep.gap,
            "eff": 2 * rep.space.dim - rep.upper.dim,
            "exact": rep.exact,
        })
    return rows


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_csv(rows: list[dict]) -> list[str]:
    return [",".join(COLUMNS),
            *(",".join(_cell(r[c]) for c in COLUMNS) for r in rows)]


def render_jsonl(rows: list[dict]) -> list[str]:
    import json
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in rows]


def render_markdown(rows: list[dict]) -> list[str]:
    return ["| " + " | ".join(COLUMNS) + " |",
            "|" + "|".join(" --- " for _ in COLUMNS) + "|",
            *("| " + " | ".join(_cell(r[c]) for c in COLUMNS) + " |"
              for r in rows)]


def render_human(rows: list[dict]) -> list[str]:
    cells = [COLUMNS] + [tuple(_cell(r[c]) for c in COLUMNS) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(COLUMNS))]
    return ["  ".join(row[i].rjust(widths[i]) for i in range(len(COLUMNS)))
            for row in cells]


_RENDERERS = {"csv": render_csv, "jsonl": render_jsonl,
              "md": render_markdown, "human": render_human}


# --- timings ----------------------------------------------------------------

class _Timings:
    """Wall time per phase of one command and the derivation it prints,
    which `finish` prints to stderr under `--timings`.  The phases are the
    import (from the top of the package to `main`), then the command's
    laps, the last of which, render, forms the text that `main` writes; the
    total counts from the top of the package."""

    def __init__(self, args) -> None:
        self.args, self._mark = args, perf_counter()
        self.phases = {"import": args.started - _IMPORT_START}

    def lap(self, phase: str) -> None:
        """Close the phase that ran since the last lap."""
        now = perf_counter()
        self.phases[phase], self._mark = now - self._mark, now

    def finish(self, code: int, roots=()) -> int:
        """Print the line under `--timings`, counting the unique nodes of
        the derivation printed, from its `roots`, and their side
        conditions, and return `code`.  Only then are the nodes walked."""
        if self.args.timings:
            nodes = unique_nodes(roots)
            conditions = sum(len(n.side_conditions) for n in nodes)
            _warn(f"timing {self.args.command}: "
                  + "".join(f"{name} {s:.3f} s, "
                            for name, s in self.phases.items())
                  + f"total {self._mark - _IMPORT_START:.3f} s; "
                  f"{len(nodes)} nodes, {conditions} side conditions")
        return code


# --- subcommands ------------------------------------------------------------

def _flag_suffix(bound) -> str:
    flags = bound.flags
    return f"  [{', '.join(flags)}]" if flags else ""


def cmd_query(args) -> tuple[int, list[str]]:
    timings = _Timings(args)
    space = LensSpace(args.m, args.e, args.k)
    rep = report(space, conjectural=args.conjectural, external=args.external)
    timings.lap("report")
    lo, up = rep.lower, rep.upper
    lines = [
        f"{space}  (m={space.m}, e={space.e}, odd factor {space.odd_factor}, "
        f"manifold dimension {space.dim})",
        f"  lower: emb >= {lo.dim}  via {lo.rule_id}: {lo.citation}"
        f"{_flag_suffix(lo)}",
        f"  upper: emb <= {up.dim} ({up.category})  via {up.rule_id}: "
        f"{up.citation}{_flag_suffix(up)}",
        f"  exact: embedding dimension = {up.dim}" if rep.exact
        else f"  gap: {rep.gap}"]
    if args.all:
        lines.append("  all bounds:")
        lines.extend(f"    {b}" for b in rep.all_bounds)
    timings.lap("render")
    return timings.finish(EXIT_OK), lines


def cmd_table(args) -> tuple[int, list[str]]:
    timings = _Timings(args)
    rows = table_rows(args.e, args.max_m, args.k,
                      conjectural=args.conjectural, external=args.external)
    timings.lap("report")
    lines = _RENDERERS[args.format](rows)
    timings.lap("render")
    return timings.finish(EXIT_OK), lines


def cmd_derive(args) -> tuple[int, list[str]]:
    timings = _Timings(args)
    if args.m < 3:
        _warn(f"no inductive derivation exists for m={args.m} "
              "(the rounds start at m=3)")
        return timings.finish(EXIT_USAGE), []
    from . import proofs
    best = proofs.prove(args.m, args.e, args.external)
    timings.lap("proof")
    if best is None:
        _warn(f"no inductive derivation for (m={args.m}, e={args.e}); "
              "the best upper bound there is axiom-only")
        return timings.finish(EXIT_USAGE), []
    # replay first, so that a derivation too deep to replay is not rendered
    replayed = best.derivation.replay()
    conditions = on_paths((best.derivation,), lambda c: True)[
        id(best.derivation)]
    timings.lap("replay")
    if args.format == "jsonl":
        import json
        lines = [json.dumps(best.derivation.to_dict(), sort_keys=True)]
    else:
        lines = [f"best inductive upper bound for (m={args.m}, e={args.e}): "
                 f"R^{best.dim} ({best.category}){_flag_suffix(best)}",
                 *best.derivation.to_lines()]
    timings.lap("render")
    if not replayed:
        _warn("side-condition replay FAILED")
        return timings.finish(EXIT_VERIFY, (best.derivation,)), lines
    lines.append(f"side conditions: {conditions} replayed OK")
    return timings.finish(EXIT_OK, (best.derivation,)), lines


def cmd_lift(args) -> tuple[int, list[str]]:
    ell = args.ell
    lam = sharpening_drop(ell)
    lines = [f"ell={ell}: alpha(ell)={alpha(ell)}, "
             f"sharpening drop lambda={lam}"]
    if ell >= 2:
        ok, nu1, nu2 = davis_mahowald_check(ell)
        lines += [f"davis-mahowald: nu(C(p, 4l-4)) = {nu1} (need >= 1), "
                  f"nu(C(p, 4l-2)) = {nu2} (need >= 3) -> "
                  f"{'pass' if ok else 'fail'}",
                  f"certified BO level for mu=2: {sharper_lifting_level(ell)} "
                  f"(unsharpened baseline {8 * (ell - 1)})"]
    for mu in ((args.mu,) if args.mu else (1, 2)):
        inst = feeding_params(mu, ell, 0)
        ambient = embedding_gate(inst)
        line = (f"feeding mu={mu}: (n, m, d) = ({inst.n}, {inst.m}, {inst.d})"
                f" -> {2**mu}*eta over L({inst.n}, e) embeds in R^{ambient}")
        if lam:
            sharp = embedding_gate(feeding_params(mu, ell, 1))
            line += f", sharpened R^{sharp}"
        # the torsions whose feed it is, e >= 3 being one class
        torsions = [t for e, t in ((1, "e = 1"), (2, "e = 2"), (3, "e >= 3"))
                    if inductive._feed_admissible(mu, ell, e)]
        if len(torsions) < 3:
            line += f" for {' or '.join(torsions) or 'no e'}"
        lines.append(line)
    return EXIT_OK, lines


def cmd_verify(args) -> tuple[int, list[str]]:
    # the check code is imported on first use, and the digit-identity
    # automata only when verify_dyadic is called, so no other subcommand
    # or scope pays for them; no scope loads numpy (the README's "Sweep
    # kernels" section gives each scope's cost)
    from .verify import run_scope
    timings = [] if args.timings else None
    results = run_scope(args.scope, timings)
    for t in timings or ():
        _warn(t.line())
    failed = sum(not r.ok for r in results)
    return EXIT_VERIFY if failed else EXIT_OK, [
        *(r.line() for r in results),
        f"{'FAIL' if failed else 'PASS'}: {len(results) - failed}/"
        f"{len(results)} checks, {sum(r.cases for r in results)} cases"]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lensbounds",
                     description="Embedding-dimension bounds for 2^e-torsion "
                                 "lens spaces")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def space_args(p):
        p.add_argument("--m", type=int, required=True,
                       help="manifold parameter (dimension 2m+1)")
        p.add_argument("--e", type=int, required=True,
                       help="2-power torsion exponent")
        p.add_argument("--k", type=int, default=1,
                       help="odd torsion cofactor (default 1)")

    def rule_flags(p):
        p.add_argument("--conjectural", action="store_true",
                       help="include conjectural bounds (flagged)")
        p.add_argument("--external", action="store_true",
                       help="include external-input bounds (flagged)")

    def timings_flag(p):
        p.add_argument("--timings", action="store_true",
                       help="print the wall time of each phase (the first "
                            "is the import) and the proof nodes printed to "
                            "stderr")

    q = sub.add_parser("query", help="best bounds for one lens space")
    space_args(q)
    rule_flags(q)
    q.add_argument("--all", action="store_true",
                   help="list every applicable bound")
    timings_flag(q)
    q.set_defaults(fn=cmd_query)

    t = sub.add_parser("table", help="bounds table for m = 1..max-m")
    t.add_argument("--e", type=int, required=True)
    t.add_argument("--max-m", type=int, required=True, dest="max_m")
    t.add_argument("--k", type=int, default=1)
    t.add_argument("--format", choices=sorted(_RENDERERS), default="human")
    rule_flags(t)
    timings_flag(t)
    t.set_defaults(fn=cmd_table)

    d = sub.add_parser("derive", help="derivation tree of the best "
                                      "inductive upper bound")
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--e", type=int, required=True)
    d.add_argument("--format", choices=("human", "jsonl"), default="human")
    d.add_argument("--external", action="store_true")
    timings_flag(d)
    d.set_defaults(fn=cmd_derive)

    lf = sub.add_parser("lift", help="lifting gates for one induction "
                                     "parameter ell")
    lf.add_argument("--ell", type=int, required=True)
    lf.add_argument("--mu", type=int, choices=(1, 2))
    lf.set_defaults(fn=cmd_lift)

    v = sub.add_parser("verify", help="run the invariant sweeps")
    v.add_argument("scope", choices=("dyadic", "cohomology", "bounds",
                                     "rounds", "lifting", "all"))
    v.add_argument("--timings", action="store_true",
                   help="print each scope's wall time, cases and cases/s "
                        "to stderr")
    v.set_defaults(fn=cmd_verify)
    for p in (parser, *sub.choices.values()):
        p.formatter_class = argparse.HelpFormatter
    return parser


def _write_all(stream, text: str) -> None:
    """Write `text` to `stream` and flush it.  Under PYTHONUNBUFFERED the
    binary layer of stdout is the raw file, whose write to a pipe whose
    reader has left may return short without an error, so the bytes are
    written in a loop that checks each count: the next write raises
    BrokenPipeError.  A stream with no binary layer (an io.StringIO) takes
    the text."""
    binary = getattr(stream, "buffer", None)
    if binary is None:
        stream.write(text)
        stream.flush()
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[binary.write(data):]
    binary.flush()


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Help as exc:
        return _write_stdout(exc.args[0], EXIT_OK)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    args.started = started
    try:
        code, lines = args.fn(args)
    except EngineError as exc:
        _warn(f"internal inconsistency: {exc}")
        return EXIT_INTERNAL
    except ValueError as exc:
        _warn(f"error: {exc}")
        return EXIT_USAGE
    return _write_stdout("".join(f"{line}\n" for line in lines), code)


def _write_stdout(text: str, code: int) -> int:
    """Write `text`, a command's whole stdout, and return the command's
    exit `code`, or the code of the write that failed."""
    if sys.stdout is None:  # fd 1 was closed when the process started
        return EXIT_PIPE if text else code
    try:
        _write_all(sys.stdout, text)
    except BrokenPipeError:  # the reader has left
        _to_devnull(1)
        return EXIT_PIPE
    except OSError as exc:
        _to_devnull(1)
        _warn(f"error: cannot write stdout: {exc.strerror or exc}")
        return EXIT_IOERR
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
