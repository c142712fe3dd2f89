"""Batch front-end for counting, enumeration, bounds and discretization.

Exit codes: 0 success, 1 usage error, bad input (a library ValueError
or an unwritable output file), a failed eigensolve (EigenSolverError)
or running out of memory, 2 node budget exceeded (also by a --grid, an
--m or a search size of more points than the budget), 3 targets unmet
(a bound flag failed, certification missed its targets, or the
minimal-m search was exhausted).  Outputs carry no
timestamps and all randomness is seeded, so identical configurations
write byte-identical files.  A new or regular ``--out`` or
``--points-out`` file is written to a temp file beside it and renamed
over it, keeping its mode, so a failed run leaves no partial file;
symlinks, devices, FIFOs and hard-linked files are written in place.
``count`` and ``bounds`` build one count table per dimension, up to the
largest n of the range.  The LOWERSET_BUDGET environment variable
overrides the default DFS node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from . import core

BUDGET_ENV = "LOWERSET_BUDGET"


def _parse_range(text: str) -> range:
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected INT or INT..INT: %r" % text)
    if lo > hi:
        raise argparse.ArgumentTypeError("empty range: %r" % text)
    return range(lo, hi + 1)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, "error: %s\n" % message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lowersets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="tabulate p_d(n)")
    count.add_argument("--d", type=_parse_range, required=True)
    count.add_argument("--n", type=_parse_range, required=True)
    count.add_argument("--method", choices=["dfs", "auto"], default="auto")
    count.add_argument("--format", choices=["csv", "json", "jsonl"], default="csv")
    count.add_argument("--out")

    enum = sub.add_parser("enumerate", help="list lower sets, one JSON line each")
    enum.add_argument("--d", type=int, required=True)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--out")

    bounds_p = sub.add_parser("bounds", help="verify growth bounds on a grid")
    bounds_p.add_argument("--d", type=_parse_range, required=True)
    bounds_p.add_argument("--n", type=_parse_range, required=True)
    bounds_p.add_argument("--format", choices=["csv", "json", "jsonl"], default="csv")
    bounds_p.add_argument("--out")

    d_p = sub.add_parser("discretize", help="certify or search sample sizes")
    d_p.add_argument("--d", type=int, required=True)
    d_p.add_argument("--n", type=int, required=True)
    d_p.add_argument("--m", type=int)
    d_p.add_argument("--search", action="store_true")
    d_p.add_argument("--grid", action="store_true")
    d_p.add_argument("--seed", type=int)
    d_p.add_argument("--trials", type=int, default=10)
    d_p.add_argument("--c1", type=float, default=core.DEFAULT_C1)
    d_p.add_argument("--c2", type=float, default=core.DEFAULT_C2)
    d_p.add_argument("--m-max", type=int, dest="m_max")
    d_p.add_argument("--format", choices=["json"], default="json")
    d_p.add_argument("--out")
    d_p.add_argument("--points-out", dest="points_out")
    return parser


def _budget_from_env(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return core.DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        parser.error("%s must be a positive integer" % BUDGET_ENV)
    return value


def _check(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject invalid combinations by ``parser.error``; set ``args.budget``."""
    args.budget = _budget_from_env(parser)
    if args.command == "enumerate" and (args.d < 1 or args.n < 0):
        parser.error("need --d >= 1 and --n >= 0")
    if args.command == "bounds" and (args.d.start < 2 or args.n.start < 1):
        parser.error("bounds needs d >= 2 and n >= 1")
    if args.command != "discretize":
        return
    if args.m is None and not args.search:
        parser.error("discretize needs --m or --search")
    if args.m is not None and args.search:
        parser.error("--m and --search are mutually exclusive")
    if args.grid and args.search:
        parser.error("--grid applies only to --m certification")
    randomized = args.search or (args.m is not None and not args.grid)
    if randomized and args.seed is None:
        parser.error("randomized runs require --seed")
    if args.d < 1 or args.n < 1:
        parser.error("need --d >= 1 and --n >= 1")
    if args.m is not None and args.m < 1:
        parser.error("--m must be positive")
    if args.trials < 1:
        parser.error("--trials must be positive")
    if args.m_max is not None and args.m_max < 1:
        parser.error("--m-max must be positive")
    if not 0.0 < args.c1 <= 1.0 <= args.c2:
        parser.error("targets must satisfy 0 < c1 <= 1 <= c2")


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or to the file ``out`` (see _write_file)."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        _write_file(text, out)
    except OSError as exc:  # name the target, not the temp file
        raise type(exc)(exc.errno, exc.strerror, out) from None


def _write_file(text: str, out: str) -> None:
    """Replace a new file, or an existing regular one, atomically.

    A missing target, or a regular file of ours with one link, is
    written to a temp file beside it, given the target's mode (the
    umask's for a new file), and renamed over it; on any error the temp
    file is removed and the target is left as it was.  Any other target
    (a symlink such as /dev/stdout, a device, a FIFO, a directory, a
    hard-linked or foreign file), or one whose directory refuses the
    temp file, is written in place as ``open(out, "w")`` would.
    """
    try:
        st = os.lstat(out)
    except FileNotFoundError:
        st = None
    fd = None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                      and st.st_uid == os.geteuid()):
        if st is not None:  # refuse a target that open(out, "w") would refuse
            os.close(os.open(out, os.O_WRONLY))
        tmp = os.path.join(os.path.dirname(out), ".%s.%s.tmp" % (
            os.path.basename(out), os.urandom(8).hex()))
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except PermissionError:
            pass
    if fd is None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _count_rows(args: argparse.Namespace, method: str) -> list[tuple[int, int, int]]:
    """(d, n, p_d(n)) over the grid, read from one count table per d."""
    lo, hi = args.n.start, args.n[-1]
    if lo < 0:  # the library's dimension or size error, as the first row raises it
        core.count_lower_sets(args.d.start, lo, method)
    rows = []
    for d in args.d:
        if d == 1 and method == "auto":  # O(1) per row, no table of hi + 1 ones
            rows += [(d, n, core.count_lower_sets(d, n)) for n in args.n]
            continue
        table = core.count_table(d, hi, method=method, budget=args.budget)
        rows += [(d, n, table[n]) for n in args.n]
    return rows


def _table_text(header: str, rows: list, fmt: str) -> str:
    """Rows of values as CSV under ``header``, a JSON array or JSON lines.

    A CSV cell is empty for None, a string as it is and ``repr`` of any
    other value; JSON objects take the header's names as keys.
    """
    if fmt == "csv":
        lines = [header] + [",".join("" if v is None else v if isinstance(v, str)
                                     else repr(v) for v in row) for row in rows]
    else:
        objs = [dict(zip(header.split(","), row)) for row in rows]
        if fmt == "json":
            return json.dumps(objs, indent=2) + "\n"
        lines = [json.dumps(o) for o in objs]
    return "\n".join(lines) + "\n"


def run_count(args: argparse.Namespace) -> int:
    _emit(_table_text("d,n,p_d_n", _count_rows(args, args.method), args.format), args.out)
    return 0


def run_enumerate(args: argparse.Namespace) -> int:
    lines = [core.to_json_line(q)
             for q in core.enumerate_lower_sets(args.d, args.n, budget=args.budget)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def run_bounds(args: argparse.Namespace) -> int:
    from . import bounds as bnd  # mpmath, which count and enumerate never load

    reports = [bnd.verify_bounds(d, n, p) for d, n, p in _count_rows(args, "auto")]
    rows = [bnd.bounds_row(r) for r in reports]
    _emit(_table_text(bnd.BOUNDS_CSV_HEADER, rows, args.format), args.out)
    failed = any(f.endswith(":fail") for r in reports for f in r.flags)
    return 3 if failed else 0


def _grid_side(d: int, m: int, budget: int) -> int:
    """The least side with side**d >= m, if its side**d points fit the budget.

    Bisection on exact integers, so a huge --m neither overflows a float
    nor steps up one by one from a rounded root.  Once d reaches the bit
    length of m the only power tried is 1**d, and once it reaches that of
    the budget the check needs no power, so a huge --d builds no big int.
    """
    lo, hi = 1, 1 << -(-m.bit_length() // d)  # hi**d > m
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d >= m:
            hi = mid
        else:
            lo = mid + 1
    if lo > 1 and (d >= budget.bit_length() or lo**d > budget):  # lo**d >= 2**d
        raise core.BudgetExceededError(
            "--grid needs %d^%d points, over the node budget of %d" % (lo, d, budget))
    return lo


def run_discretize(args: argparse.Namespace) -> int:
    from . import discretization as disc  # numpy, which only this command loads

    d, n = args.d, args.n
    if args.search:
        result = disc.search_minimal_m(
            d, n, c1_target=args.c1, c2_target=args.c2,
            trials_per_m=args.trials, seed=args.seed, m_max=args.m_max,
            budget=args.budget)
        report, xs = result.report, result.witness
        extra = {"search": {"m_found": result.m, "seed": args.seed,
                            "trials_per_m": args.trials,
                            "targets": [args.c1, args.c2]}}
    else:
        if args.grid:
            side = _grid_side(d, args.m, args.budget)
            xs = disc.tensor_grid(d, [side] * d)
        else:
            if args.m > args.budget:
                raise core.BudgetExceededError(
                    "--m needs %d points, over the node budget of %d" % (args.m, args.budget))
            xs = disc.sample_points(d, args.m, args.seed)
        report = disc.universal_constants(d, n, xs, budget=args.budget)
        extra = {"targets": [args.c1, args.c2]}
    _emit(disc.report_json(report, extra) + "\n", args.out)
    if args.points_out:
        _emit(disc.points_csv(xs), args.points_out)
    met = report.c1 >= args.c1 and report.c2 <= args.c2
    return 0 if met else 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    runners = {"count": run_count, "enumerate": run_enumerate,
               "bounds": run_bounds, "discretize": run_discretize}
    try:
        return runners[args.command](args)
    except core.BudgetExceededError as exc:
        code, message = 2, str(exc)
    except core.SearchExhausted as exc:
        code, message = 3, str(exc)
    except (ValueError, OSError, core.EigenSolverError) as exc:
        code, message = 1, str(exc)
    except MemoryError as exc:
        code, message = 1, str(exc) or "out of memory"
    print("error: %s" % message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
