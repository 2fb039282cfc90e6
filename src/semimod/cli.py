"""Command-line driver.

Exit codes: 0 success / property verified, 1 verified negative (for
example: not projective, witness fails), 2 inconclusive because the
command's search budget ran out, 3 input or usage error, 141 standard
output closed before the output was written (as for a process killed by
SIGPIPE).  All output is deterministic for fixed inputs and budgets.

Each subcommand is one entry of ``_COMMANDS``: its help text, whether it
takes ``--budget``, which bounds the ticks of all its searches together
(one :class:`semimod.homs.Budget` per run), the function that adds its other
arguments and the function that runs it.  A run builds the parser of its
own subcommand only.  With no arguments, top-level help or an unknown name
it builds the parser of every subcommand, which also reports arguments
left over, so the usage and help text list all of them.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .core import (
    Flavor,
    ModuleStructureError,
    is_distributive_lattice,
    require_valid,
    validate_module,
)
from .families import rigidity_check
from .homs import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    enumerate_homs,
    find_left_inverse,
    find_right_inverse,
)
from .matrices import distinct_row_factorization, dualize_hom, matrix_of_hom
from .noetherian import MorphismClass, default_witness_family, witness_verify
from .projective import projectivity_certificate
from . import serialize
from .serialize import matrix_to_doc


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _module_arg(arg: str):
    """A module reference string, or else a path to a module document, which
    is refused as a document error unless it passes the axiom scan.  A file
    named like a reference (``D0`` in the working directory) is not read:
    the reference wins."""
    if not serialize.is_module_ref(arg) and os.path.exists(arg):
        mod = serialize.module_from_doc(_load_json(arg))
        require_valid(mod, "module document")
        return mod
    return serialize.resolve_module_ref(arg)


def _hom_arg(path: str):
    """A morphism document whose inline endpoint documents are valid modules
    and whose map is a homomorphism."""
    doc = _load_json(path)
    f = serialize.hom_from_doc(doc)
    for end, mod in (("source", f.source), ("target", f.target)):
        if isinstance(doc[end], dict):
            require_valid(mod, "module document")
    chk = f.check
    if not chk.ok:
        raise ModuleStructureError(
            f"input map is not a homomorphism ({chk.kind} at {chk.witness})"
        )
    return f


def _pins_arg(path: str, src, tgt) -> dict[int, tuple[int]]:
    """The pins of a ``{"pins": [[source, target], ...]}`` document, as
    allowed sets of one value; each element is a name or an id."""
    doc = _load_json(path)
    serialize.refuse_unknown_keys(doc, "pins document", {"pins"})
    pairs = doc.get("pins", [])
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pairs
    ):
        raise ModuleStructureError(
            'a pins document is {"pins": [[source, target], ...]}'
        )
    pins: dict[int, tuple[int]] = {}
    for s, t in pairs:
        s_id, t_id = _element_ref(src, s), _element_ref(tgt, t)
        if pins.setdefault(s_id, (t_id,)) != (t_id,):
            raise ModuleStructureError(f"conflicting pins for element {s!r}")
    return pins


def _witness_spec_arg(path: str) -> tuple[Flavor, int, MorphismClass]:
    """The flavor, ``max_n`` and class of a witness description
    ``{"flavor", "max_n", "class"?}``; the class defaults to injections."""
    doc = _load_json(path)
    serialize.refuse_unknown_keys(doc, "witness description", {"flavor", "max_n", "class"})
    try:
        flavor = Flavor(doc["flavor"])
        (max_n,) = serialize._ints([doc["max_n"]])
        mclass = MorphismClass(doc.get("class", MorphismClass.INJECTIONS.value))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed witness description: {exc}") from exc
    if max_n < 1:
        raise ValueError("witness description needs max_n of at least 1")
    return flavor, max_n, mclass


def _element_ref(mod, ref) -> int:
    """An element given by its name or its id, a JSON integer (not ``true``)."""
    if isinstance(ref, str):
        if ref not in mod.index_of_name:
            raise ModuleStructureError(f"pinned element {ref!r} is not in the module")
        return mod.index_of_name[ref]
    if type(ref) is int:
        if not 0 <= ref < mod.size:
            raise ModuleStructureError(f"pinned element {ref} is not an element id")
        return ref
    raise ModuleStructureError(f"pinned element {ref!r} is neither a name nor an id")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit_module(mod, fmt: str) -> str:
    if fmt == "dot":
        return serialize.dot_hasse(mod)
    if fmt == "text":
        lines = [f"{mod.flavor.value}-module with {mod.size} elements"]
        lines.append("elements: " + ", ".join(mod.names))
        return "\n".join(lines) + "\n"
    return serialize.module_to_json(mod) + "\n"


def _cmd_construct(args) -> int:
    sys.stdout.write(_emit_module(_module_arg(args.module), args.format))
    return 0


def _cmd_validate(args) -> int:
    mod = serialize.module_from_doc(_load_json(args.file))
    report = validate_module(mod)
    if report.ok:
        print("valid")
        return 0
    print(report.describe(mod))
    return 1


def _cmd_homs(args) -> int:
    src = _module_arg(args.source)
    tgt = _module_arg(args.target)
    pins = _pins_arg(args.pins, src, tgt) if args.pins else {}
    homs = enumerate_homs(src, tgt, injective=args.injective, allowed=pins, budget=args.budget)
    for h in homs:
        sys.stdout.write(json.dumps({"map": list(h.map)}) + "\n")
    sys.stderr.write(f"{len(homs)} morphisms\n")
    return 0


def _cmd_rigidity(args) -> int:
    found = rigidity_check(args.n, args.m, Flavor(args.flavor), budget=args.budget)
    identity = len(found) == 1 and found[0].is_identity()
    if identity:
        print("1 morphism (identity)")
    else:
        print(f"{len(found)} morphisms")
        for h in found:
            print("  " + h.describe())
    # as expected: the identity alone for n = m, no morphism otherwise
    return 0 if (identity if args.n == args.m else not found) else 1


def _cmd_split_check(args) -> int:
    f = _hom_arg(args.file)
    result = {"injective": f.injective, "surjective": f.surjective,
              "left_inverse": None, "right_inverse": None}
    splittable = False
    if f.injective:
        w = find_left_inverse(f, budget=args.budget)
        if w is not None:
            result["left_inverse"] = list(w.map)
            splittable = True
    if f.surjective:
        h = find_right_inverse(f, budget=args.budget)
        if h is not None:
            result["right_inverse"] = list(h.map)
            splittable = True
    print(json.dumps(result, sort_keys=True))
    return 0 if splittable else 1


def _cmd_projective(args) -> int:
    mod = _module_arg(args.module)
    cert = projectivity_certificate(mod, budget=args.budget)
    report = {"projective": cert.projective}
    if mod.flavor is Flavor.B:
        dist = is_distributive_lattice(mod)
        report["distributive"] = dist.distributive
        report["criteria_agree"] = dist.distributive == cert.projective
    if cert.section is not None:
        report["section"] = list(cert.section.map)
    print(json.dumps(report, sort_keys=True))
    return 0 if cert.projective else 1


def _cmd_factor_matrix(args) -> int:
    mat = serialize.matrix_from_doc(_load_json(args.file))
    fact = distinct_row_factorization(mat)
    out = {
        "reduced": matrix_to_doc(fact.reduced),
        "duplicator": matrix_to_doc(fact.duplicator),
        "certificate": matrix_to_doc(fact.certificate),
        "row_class": list(fact.row_class),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_dualize(args) -> int:
    f = _hom_arg(args.file)
    dual = dualize_hom(f)
    out = {
        "matrix": matrix_to_doc(matrix_of_hom(dual)),
        "map": list(dual.map),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_witness(args) -> int:
    if args.spec:
        flags = {"--flavor": args.flavor, "--max-n": args.max_n, "--class": args.morphism_class}
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ModuleStructureError(f"--spec describes the whole run; drop {', '.join(given)}")
        flavor, max_n, mclass = _witness_spec_arg(args.spec)
    else:
        if args.flavor is None or args.max_n is None:
            raise ModuleStructureError("witness needs either --spec or --flavor/--max-n")
        flavor, max_n = Flavor(args.flavor), args.max_n
        mclass = MorphismClass(args.morphism_class or MorphismClass.INJECTIONS.value)
    report = witness_verify(*default_witness_family(flavor, max_n, mclass, budget=args.budget))
    if args.format == "json":
        levels = [{"index": lv.index, "checks": [[yj, v.value] for yj, v in lv.checks]}
                  for lv in report.levels]
        doc = {"holds": report.holds, "inconclusive": report.inconclusive, "levels": levels}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(report.summary())
        for lv in report.levels:
            for yj, v in lv.checks:
                print(f"  f_{lv.index} through {yj}: {v.value}")
    if report.holds:
        return 0
    return 2 if report.inconclusive else 1


def _file_arg(p) -> None:
    p.add_argument("file")


def _module_ref_arg(p) -> None:
    p.add_argument("module", help="module reference or file")


def _construct_args(p) -> None:
    _module_ref_arg(p)
    p.add_argument("--format", choices=["json", "dot", "text"], default="json")


def _homs_args(p) -> None:
    p.add_argument("--source", required=True, help="module reference or file")
    p.add_argument("--target", required=True, help="module reference or file")
    p.add_argument("--pins", default=None, help="JSON file with pinned element pairs")
    p.add_argument("--injective", action="store_true")


def _rigidity_args(p) -> None:
    p.add_argument("--flavor", choices=["B", "Finf"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)


def _witness_args(p) -> None:
    # the run flags default to None, so that --spec can refuse them
    p.add_argument("--flavor", choices=["B", "Finf"], default=None)
    p.add_argument("--max-n", type=_positive_int, default=None, dest="max_n")
    p.add_argument("--spec", default=None, help="JSON witness description file")
    p.add_argument(
        "--class",
        dest="morphism_class",
        choices=[c.value for c in MorphismClass],
        default=None,
        help=f"morphism class (default {MorphismClass.INJECTIONS.value})",
    )
    p.add_argument("--format", choices=["json", "text"], default="text")


# name: (help, takes --budget, adds the other arguments, runs the command)
_COMMANDS = {
    "construct": ("emit a module as JSON, DOT or text", False, _construct_args, _cmd_construct),
    "validate": ("check the axioms of a module file", False, _file_arg, _cmd_validate),
    "homs": ("enumerate morphisms between two modules", True, _homs_args, _cmd_homs),
    "rigidity": ("count injective corner-pinned morphisms", True, _rigidity_args, _cmd_rigidity),
    "split-check": (
        "search one-sided inverses of a morphism file", True, _file_arg, _cmd_split_check
    ),
    "projective": (
        "certify (non-)projectivity of a module", True, _module_ref_arg, _cmd_projective
    ),
    "factor-matrix": (
        "distinct-rows factorization of a matrix file", False, _file_arg, _cmd_factor_matrix
    ),
    "dualize": ("dualize a morphism between free modules", False, _file_arg, _cmd_dualize),
    "witness": ("run the corner-embedding witness family", True, _witness_args, _cmd_witness),
}


@functools.lru_cache(maxsize=None)
def build_parser(command: Optional[str] = None) -> _Parser:
    """The argument parser of every subcommand, or of ``command`` alone.

    Both read ``_COMMANDS``, so a subcommand parses the same either way;
    a cold run builds only the one it runs, as building all nine costs a
    few milliseconds.  Each parser is built once per process: parsing keeps
    no state on it, and in-process callers run ``main`` many times.
    """
    # the top-level help shows the first two paragraphs of the module
    # docstring (which python -OO strips)
    description = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    parser = _Parser(prog="semimod", description=description)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS if command is None else (command,):
        help_text, searches, add_arguments, run = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if searches:  # only the subcommands that search take a budget
            p.add_argument(
                "--budget",
                type=_positive_int,
                default=DEFAULT_BUDGET,
                help="ticks all the searches of the command may take together",
            )
        add_arguments(p)
        p.set_defaults(func=run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no arguments, top-level help and an unknown name go to the full
    # parser, whose usage and help list every subcommand
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args, extras = build_parser(command).parse_known_args(argv)
        if extras:
            # the full parser reports them, with its own usage line
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if "budget" in vars(args):  # one budget for all the searches of the run
        args.budget = Budget(args.budget)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send the unwritten rest to the null device so
        # that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetExceededError as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 2
    except (ModuleStructureError, ValueError, KeyError, OSError) as exc:
        # after BrokenPipeError, an OSError that must still give 141; bad
        # JSON is a ValueError, an unreadable input file an OSError
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
