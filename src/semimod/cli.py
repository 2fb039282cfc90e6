"""Command-line driver.

Exit codes: 0 success / property verified, 1 verified negative (for
example: not projective, witness fails), 2 inconclusive because the
command's search budget ran out, 3 input or usage error, 141 standard
output closed before the output was written (as for a process killed by
SIGPIPE).  All output is deterministic for fixed inputs and budgets.

Each subcommand is one entry of ``_COMMANDS``: its help text, its
positional arguments, its options and the function that runs it.  The
subcommands that search take ``--budget``, which bounds the ticks of all
their searches together (one :class:`semimod.homs.Budget` per run).  A
well-formed command line is read off that table by :func:`_parse`, which
builds no parser.  Every other line goes to the argparse parser that
:func:`build_parser` builds from the same table, so help and usage errors
are argparse's own.
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


class _Opt:
    """One option of a subcommand: what ``add_argument`` is given, and what
    :func:`_parse` checks its value against.  (A plain class: a NamedTuple
    would cost every cold run about 0.2 ms at import.)"""

    __slots__ = ("flag", "dest", "type", "choices", "default", "required", "store_true", "help")

    def __init__(self, flag, dest, type=None, choices=None, default=None, required=False,
                 store_true=False, help=None):
        self.flag, self.dest, self.type, self.choices = flag, dest, type, choices
        self.default, self.required = default, required
        self.store_true, self.help = store_true, help


_FILE = (("file", None),)
_MODULE = (("module", "module reference or file"),)
# only the subcommands that search take a budget
_BUDGET = _Opt(
    "--budget", "budget", _positive_int, default=DEFAULT_BUDGET,
    help="ticks all the searches of the command may take together",
)
_FLAVORS = ("B", "Finf")

# name: (help, positionals as (name, help) pairs, options, runs the command)
_COMMANDS = {
    "construct": (
        "emit a module as JSON, DOT or text", _MODULE,
        (_Opt("--format", "format", choices=("json", "dot", "text"), default="json"),),
        _cmd_construct,
    ),
    "validate": ("check the axioms of a module file", _FILE, (), _cmd_validate),
    "homs": (
        "enumerate morphisms between two modules", (),
        (
            _BUDGET,
            _Opt("--source", "source", required=True, help="module reference or file"),
            _Opt("--target", "target", required=True, help="module reference or file"),
            _Opt("--pins", "pins", help="JSON file with pinned element pairs"),
            _Opt("--injective", "injective", default=False, store_true=True),
        ),
        _cmd_homs,
    ),
    "rigidity": (
        "count injective corner-pinned morphisms", (),
        (
            _BUDGET,
            _Opt("--flavor", "flavor", choices=_FLAVORS, required=True),
            _Opt("--n", "n", int, required=True),
            _Opt("--m", "m", int, required=True),
        ),
        _cmd_rigidity,
    ),
    "split-check": (
        "search one-sided inverses of a morphism file", _FILE, (_BUDGET,), _cmd_split_check
    ),
    "projective": (
        "certify (non-)projectivity of a module", _MODULE, (_BUDGET,), _cmd_projective
    ),
    "factor-matrix": (
        "distinct-rows factorization of a matrix file", _FILE, (), _cmd_factor_matrix
    ),
    "dualize": ("dualize a morphism between free modules", _FILE, (), _cmd_dualize),
    "witness": (
        "run the corner-embedding witness family", (),
        (
            _BUDGET,
            # the run flags default to None, so that --spec can refuse them
            _Opt("--flavor", "flavor", choices=_FLAVORS),
            _Opt("--max-n", "max_n", _positive_int),
            _Opt("--spec", "spec", help="JSON witness description file"),
            _Opt(
                "--class", "morphism_class", choices=tuple(c.value for c in MorphismClass),
                help=f"morphism class (default {MorphismClass.INJECTIONS.value})",
            ),
            _Opt("--format", "format", choices=("json", "text"), default="text"),
        ),
        _cmd_witness,
    ),
}


@functools.cache
def build_parser() -> _Parser:
    """The argparse parser of every subcommand, built from ``_COMMANDS``.

    It parses the command lines that :func:`_parse` leaves to it and writes
    all help and usage errors.  It is built once per process: parsing keeps
    no state on it, and in-process callers run ``main`` many times.
    """
    # the top-level help shows the first two paragraphs of the module
    # docstring (which python -OO strips)
    description = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    parser = _Parser(prog="semimod", description=description)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, positionals, options, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for pos, pos_help in positionals:
            p.add_argument(pos, help=pos_help)
        for o in options:
            if o.store_true:
                p.add_argument(o.flag, dest=o.dest, action="store_true", default=o.default,
                               help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, type=o.type, choices=o.choices,
                               default=o.default, required=o.required, help=o.help)
        p.set_defaults(func=run)
    return parser


def _parse(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser().parse_args(argv)`` gives for a
    well-formed command line, read off ``_COMMANDS``; None for every other.

    Well-formed: an exact subcommand name, then its exact positional count
    and exact flags, each at most once and each but a store-true one
    followed by a value that does not start with ``-`` and passes the
    option's type and choices, with every required flag given.  On such a
    line argparse takes the same tokens the same way, so the namespaces are
    equal; any other line (help, abbreviations, ``--flag=value``, repeats,
    ``--``, errors) is the full parser's.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, pos_args, specs, run = _COMMANDS[argv[0]]
    options = {o.flag: o for o in specs}
    values = {o.dest: o.default for o in specs}
    given, positionals = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        opt = options.get(token)
        if opt is None or token in given:
            return None
        given.add(token)
        if opt.store_true:
            values[opt.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = opt.type(value) if opt.type else value
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
    if len(positionals) != len(pos_args) or any(o.required and o.flag not in given for o in specs):
        return None
    values.update(zip((name for name, _ in pos_args), positionals))
    return argparse.Namespace(command=argv[0], func=run, **values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # help, or a usage error
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
