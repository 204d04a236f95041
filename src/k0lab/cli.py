"""Command-line front end.

Subcommands: ``cayley`` (one weighted Cayley graph), ``dihedral`` (the
dihedral family), ``scan`` (batch tables over a family), ``snf`` (raw
Smith form of a matrix file), ``compare`` (isomorphism test between two
specs).  Exit codes: 0 success, 2 non-generating set, 3 invalid spec or
hypothesis failure, 64 usage error, 65 malformed or unreadable file, 70 failed
internal check.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from functools import cache
from itertools import combinations, islice, product
from math import gcd
from multiprocessing import Pool
from typing import Callable, Iterator

from .classify import dihedral_theorem_row, kp_compare
from .errors import (
    GroupTableError,
    InternalCheckError,
    InvalidSpecError,
    NotGeneratingError,
    NotPurelyInfiniteSimpleError,
)
from .graphs import CayleySpec, build_cayley, read_group_table
from .k0 import K0Report, analyze, closed_form_S01, json_text
from .zmatrix import MatrixFormatError, cokernel_with_class, det, int_text, read_matrix

EXIT_OK = 0
EXIT_NOT_GENERATING = 2
EXIT_INVALID = 3
EXIT_USAGE = 64
EXIT_BAD_FILE = 65
EXIT_INTERNAL = 70

DEFAULT_SCAN_CAP = 100_000


class UsageError(Exception):
    pass


class _FileError(Exception):
    """A file named on the command line that cannot be opened, read or decoded."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _FileError(exc) from None
    except UnicodeDecodeError as exc:
        raise _FileError(f"bad input file: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated list of integers") from None


def _spec_from_args(args) -> CayleySpec:
    gens = _parse_int_list(args.gens, "--gens")
    if not gens:
        raise UsageError("--gens must name at least one generator")
    weights = None
    if args.weights is not None:
        weights = _parse_int_list(args.weights, "--weights")
        if len(weights) != len(gens):
            raise UsageError("--weights must match --gens in length")
    if getattr(args, "group_table", None):
        table = read_group_table(_read_text(args.group_table))
        return CayleySpec(table, tuple(gens), tuple(weights or [1] * len(gens)))
    return CayleySpec.cyclic(args.n, gens, weights)


def cmd_cayley(args) -> int:
    spec = _spec_from_args(args)
    report = analyze(spec, method=args.method)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(build_cayley(spec).to_dot())
        except OSError as exc:
            raise _FileError(exc) from None
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text(), end="")
    return EXIT_OK


def cmd_dihedral(args) -> int:
    spec = CayleySpec.dihedral(args.n)
    report = analyze(spec)
    expected_group, expected_class = dihedral_theorem_row(args.n)
    if args.json:
        data = report.to_json_dict()
        data["expected"] = {
            "k0": expected_group.display(),
            "classification": expected_class.display() if expected_class else None,
        }
        print(json_text(data))
    else:
        print(report.render_text(), end="")
        expect = expected_group.display()
        if expected_class is not None:
            expect += f", {expected_class.display()}"
        print(f"theorem row (n mod 6 = {args.n % 6}): {expect}")
    return EXIT_OK


def _report_row(report: K0Report, label: str) -> dict:
    return {
        "instance": label,
        "n": report.n,
        "generators": list(report.generators or []),
        "weights": list(report.weights or []),
        "det": int_text(report.det_value),
        "k0": report.k0.display() if report.k0 is not None else "",
        "classification": report.classification.display() if report.classification else "",
    }


def _scan_member(family: str, params: tuple) -> tuple[str, Callable[[], CayleySpec]]:
    """The instance label of one scan member and a function that makes its spec."""
    if family == "dihedral":
        (n,) = params
        return f"dihedral n={n}", lambda: CayleySpec.dihedral(n)
    if family == "complete":
        n, loops = params
        return f"complete n={n} loops={loops}", lambda: CayleySpec.complete(n, loops)
    if family == "k_cycle":
        n, w = params
        return f"k_cycle n={n} W={w}", lambda: CayleySpec.cyclic(n, [1], [w])
    if family == "s01":
        n, a, b = params
        return f"s01 n={n} a={a} b={b}", lambda: CayleySpec.cyclic(n, [0, 1], [a, b])
    if family == "cyclic_s":
        n, gens, weights = params
        label = f"cyclic n={n} S={{{','.join(map(str, gens))}}} w={{{','.join(map(str, weights))}}}"
        return label, lambda: CayleySpec.cyclic(n, list(gens), list(weights))
    raise ValueError(f"unknown family {family}")


_SCAN_ERRORS = (
    InternalCheckError,
    InvalidSpecError,
    NotGeneratingError,
    NotPurelyInfiniteSimpleError,
)


def _scan_worker(job) -> dict:
    family, params = job
    label, build = _scan_member(family, params)
    try:
        row = _report_row(analyze(build()), label)
        if family == "s01":
            row["closed_form"] = closed_form_S01(*params).display()
    except _SCAN_ERRORS as exc:
        # Same type, so the exit code stays; the message names the member.
        raise type(exc)(f"{label}: {exc}") from exc
    return row


def _scan_params(args) -> Iterator[tuple]:
    """The scan's jobs, (family, params), lazily and in output order."""
    if args.n_min > args.n_max or args.n_min < 1:
        raise UsageError("need 1 <= n-min <= n-max")
    ns = range(args.n_min, args.n_max + 1)
    family = args.family
    if family == "dihedral":
        yield from (("dihedral", (n,)) for n in ns)
    elif family == "complete":
        if args.loops < 1:
            raise UsageError("--loops must be positive")
        yield from (("complete", (n, args.loops)) for n in ns)
    elif family == "k_cycle":
        if args.w_min > args.w_max or args.w_min < 1:
            raise UsageError("need 1 <= w-min <= w-max")
        yield from (("k_cycle", (n, w)) for n in ns for w in range(args.w_min, args.w_max + 1))
    elif family == "s01":
        for bound, name in ((args.a_min, "a-min"), (args.b_min, "b-min")):
            if bound < 1:
                raise UsageError(f"--{name} must be positive")
        yield from (
            ("s01", (n, a, b))
            for n in ns
            if n >= 2
            for a in range(args.a_min, args.a_max + 1)
            for b in range(args.b_min, args.b_max + 1)
        )
    elif family == "cyclic_s":
        if args.max_gens < 1:
            raise UsageError("--max-gens must be positive")
        if args.max_weight < 1:
            raise UsageError("--max-weight must be positive")
        for n in ns:
            for size in range(1, args.max_gens + 1):
                for gens in combinations(range(n), size):
                    if gcd(n, *gens) != 1:
                        continue
                    for weights in product(range(1, args.max_weight + 1), repeat=size):
                        yield ("cyclic_s", (n, gens, weights))
    else:
        raise UsageError(f"unknown family {family!r}")


def _scan_jobs(args) -> list[tuple]:
    """The scan's jobs, refused as soon as their count passes ``--cap``."""
    jobs = list(islice(_scan_params(args), max(args.cap, 0) + 1))
    if not jobs:
        raise UsageError("scan ranges produced no instances")
    if len(jobs) > args.cap:
        raise UsageError(f"scan would visit more than {args.cap} instances, over the cap")
    return jobs


_SCAN_COLUMNS = ["instance", "n", "det", "k0", "classification"]


def _render_scan(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json_text(rows) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        fieldnames = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    widths = {c: max(len(c), max(len(str(r[c])) for r in rows)) for c in _SCAN_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in _SCAN_COLUMNS)]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in _SCAN_COLUMNS))
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    jobs = _scan_jobs(args)
    if args.parallel:
        with Pool() as pool:
            rows = pool.map(_scan_worker, jobs, chunksize=16)
    else:
        rows = [_scan_worker(job) for job in jobs]
    sys.stdout.write(_render_scan(rows, args.format))
    return EXIT_OK


def cmd_snf(args) -> int:
    m = read_matrix(_read_text(args.infile))
    diag, coker, _ = cokernel_with_class(m)
    if args.json:
        payload = {
            "rows": m.rows,
            "cols": m.cols,
            "diag": list(map(int_text, diag)),
            "coker": coker.display(),
            "det": int_text(det(m)) if m.is_square else None,
        }
        print(json_text(payload))
    else:
        print("diag: " + " ".join(map(int_text, diag)))
        print(f"coker: {coker.display()}")
        if m.is_square:
            print(f"det = {int_text(det(m))}")
    return EXIT_OK


_DESCRIPTOR_KEYS = {"cyclic": {"n", "gens", "weights", "w"}, "dihedral": {"n"},
                    "complete": {"n", "l"}, "kcycle": {"n", "w"}}


def _parse_descriptor(text: str) -> CayleySpec:
    """Spec mini-language: family:key=value:...

    cyclic:n=6:gens=2,3[:weights=1,1] | dihedral:n=5 |
    complete:n=3:l=1 | kcycle:n=4:w=3

    Each key may appear once; a cyclic spec takes w= or weights=, not both.
    """
    parts = text.split(":")
    family = parts[0]
    kv: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise UsageError(f"bad descriptor segment {part!r} in {text!r}")
        key, _, value = part.partition("=")
        if key in kv:
            raise UsageError(f"descriptor {text!r} repeats the key {key!r}")
        kv[key] = value
    if family not in _DESCRIPTOR_KEYS:
        raise UsageError(f"unknown spec family {family!r}")
    for key in kv:
        if key not in _DESCRIPTOR_KEYS[family]:
            raise UsageError(f"descriptor {text!r}: {family} takes no key {key!r}")

    def need_int(key: str) -> int:
        if key not in kv:
            raise UsageError(f"descriptor {text!r} is missing {key}=")
        try:
            return int(kv[key])
        except ValueError:
            raise UsageError(f"descriptor {text!r}: {key} must be an integer") from None

    if family == "cyclic":
        n = need_int("n")
        if "gens" not in kv:
            raise UsageError(f"descriptor {text!r} is missing gens=")
        gens = _parse_int_list(kv["gens"], "gens")
        if "weights" in kv and "w" in kv:
            raise UsageError(f"descriptor {text!r} gives both weights= and w=")
        weights = kv.get("weights", kv.get("w"))
        if weights is not None:
            weights = _parse_int_list(weights, "weights")
            if len(weights) != len(gens):
                raise UsageError("descriptor weights must match gens in length")
        return CayleySpec.cyclic(n, gens, weights)
    if family == "dihedral":
        return CayleySpec.dihedral(need_int("n"))
    if family == "complete":
        return CayleySpec.complete(need_int("n"), need_int("l"))
    return CayleySpec.cyclic(need_int("n"), [1], [need_int("w")])  # kcycle


def cmd_compare(args) -> int:
    left = analyze(_parse_descriptor(args.left))
    right = analyze(_parse_descriptor(args.right))
    if not left.pis or not right.pis:
        raise NotPurelyInfiniteSimpleError("compare needs purely infinite simple inputs")
    outcome = kp_compare(left, right)
    if args.json:
        payload = {
            "left": left.to_json_dict(),
            "right": right.to_json_dict(),
            "verdict": outcome.verdict,
            "detail": outcome.detail,
            "multiplier": outcome.multiplier,
        }
        print(json_text(payload))
    else:
        for side, report in (("left: ", left), ("right:", right)):
            print(f"{side} K0 = {report.k0.display()}, det = {int_text(report.det_value)}, "
                  f"identity order {report.order_text()}, {report.classification.display()}")
        print(f"verdict: {outcome.verdict}")
        print(f"  {outcome.detail}")
    return EXIT_OK


@cache  # one parser per process: building it costs more than a small command
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="k0lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cayley", help="analyze one weighted Cayley graph")
    p.add_argument("--n", type=int, required=True, help="cyclic group order")
    p.add_argument("--gens", required=True, help="comma-separated generators")
    p.add_argument("--weights", help="comma-separated weights, one per generator")
    p.add_argument("--group-table", help="group table file (overrides --n's cyclic group)")
    p.add_argument("--method", choices=["auto", "full", "companion", "both"], default="auto")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="FILE", help="write the graph in dot format")
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("dihedral", help="analyze the dihedral Cayley graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dihedral)

    p = sub.add_parser("scan", help="tabulate a family")
    p.add_argument("--family", required=True,
                   choices=["cyclic_s", "dihedral", "complete", "k_cycle", "s01"])
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--loops", type=int, default=1, help="complete family: loops per vertex")
    p.add_argument("--w-min", type=int, default=2, help="k_cycle family: smallest weight")
    p.add_argument("--w-max", type=int, default=2, help="k_cycle family: largest weight")
    p.add_argument("--a-min", type=int, default=1)
    p.add_argument("--a-max", type=int, default=1)
    p.add_argument("--b-min", type=int, default=1)
    p.add_argument("--b-max", type=int, default=1)
    p.add_argument("--max-gens", type=int, default=2, help="cyclic_s family: largest |S|")
    p.add_argument("--max-weight", type=int, default=1, help="cyclic_s family: largest weight")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_SCAN_CAP)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("snf", help="Smith normal form of a matrix file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("compare", help="isomorphism test between two specs")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"k0lab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotGeneratingError as exc:
        print(f"k0lab: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERATING
    except (InvalidSpecError, NotPurelyInfiniteSimpleError) as exc:
        print(f"k0lab: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (MatrixFormatError, GroupTableError) as exc:
        print(f"k0lab: bad input file: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except _FileError as exc:
        print(f"k0lab: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except InternalCheckError as exc:
        print(f"k0lab: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
