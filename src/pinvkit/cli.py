"""Batch command-line front end.

Subcommands wrap the library's pseudoinverse paths with file I/O, method
selection, self-verification, and seeded instance generation. Every command
that produces a pseudoinverse re-checks the Penrose residuals before
exiting, and the exit code encodes the verdict:

    0  success, residuals within bound
    1  unparseable command line or input data
    2  residual bound violated; --output is then not written
    3  precondition violated (parity, zero-sum, orthogonality, ...)

Reports go to stdout as single-line JSON, or as an aligned table with
--pretty. Output files are written atomically and are byte-identical across
reruns of the same command, seed, and inputs; wall time lives only in the
report stream.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .circulant import (
    _block_checked,
    _spectral_checked,
    _two_term_checked,
    _two_term_generator,
    _zero_sum_checked,
    block_pattern_generator,
    circ_spectrum,
)
from .core import (
    ResidualReport,
    _characterization,
    _normal_checked,
    _pinv_checked,
    gen_random_matrix,
    inverse_certified,
    penrose_residuals,
)
from .graphdist import (
    _tree_pinv_checked,
    _wheel_pinv_checked,
    gen_zero_sum_tree,
    tree_build,
    tree_u_and_reconstruction,
    wheel_build,
    wheel_z_identities,
)
from .linalg import svd_batch
from .matrix import (
    ConvergenceError,
    MatrixFormatError,
    PreconditionError,
    Tolerance,
    VerificationError,
    circulant_csv_blocks,
    dumps_generator_json,
    dumps_matrix_csv,
    dumps_matrix_json,
    dumps_tree_csv,
    frobenius,
    loads_generator_json,
    loads_matrix_csv,
    loads_matrix_json,
    loads_tree_csv,
    parse_complex,
    parse_generator,
)
from .sumdecomp import (
    _pair_checked,
    _rank_completion_checked,
    check_orthogonality,
    gen_rank_additive_pair,
    gen_svd_block_family,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RESIDUAL = 2
EXIT_PRECONDITION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; route through the parse code
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse reads only -12 and -1.5 as negative numbers, not -1e-3,
        # -2i, -1-2i or a list such as -1,1,0, and would take those for
        # flags; a token whose comma-separated entries parse_complex all
        # reads is a value here, as it is after --alpha= or --gen=
        single_dash = arg_string.startswith("-") and not arg_string.startswith("--")
        if single_dash and arg_string not in self._option_string_actions:
            try:
                for part in arg_string.split(","):
                    parse_complex(part)
            except MatrixFormatError:
                pass
            else:
                return None
        return super()._parse_optional(arg_string)


# --------------------------------------------------------------------------
# I/O helpers


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from None


def _load_matrix(path: str) -> tuple[np.ndarray, str]:
    text = _read_text(path)
    if path.endswith(".json"):
        return loads_matrix_json(text), _digest(text.encode())
    if path.endswith(".csv"):
        return loads_matrix_csv(text), _digest(text.encode())
    raise MatrixFormatError(f"unknown matrix format for {path}; use .json or .csv")


# os.writev takes at most this many buffers in one call
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _writev_all(fd: int, buffers: list) -> None:
    """Write buffers to fd in order by os.writev, resuming after a short
    write at the first byte not yet written."""
    while buffers:
        written = os.writev(fd, buffers)
        if written == sum(map(len, buffers)):
            return
        for index, buffer in enumerate(buffers):
            if written < len(buffer):
                break
            written -= len(buffer)
        buffers = [memoryview(buffer)[written:], *buffers[index + 1 :]]


def _write_atomic(path: str, data) -> str:
    """Write data, a str or an iterable of bytes-like buffers, to path through
    a uniquely named temporary file beside it; return the sha256 of the
    bytes written. The file gets the mode open(path, "w") would give it
    under the umask in force at the call.

    Concurrent writers to the same path each rename a complete file into
    place, so the last rename wins and no reader sees a partial file. The
    buffers go to the digest one by one and to the file in batches of at
    most _IOV_MAX, one os.writev per batch, so none is joined or copied and
    a text given in buffers is never held whole. If the buffers fail, the
    temporary file is removed and the old file at path stays.
    """
    buffers = (data.encode(),) if isinstance(data, str) else data
    digest = hashlib.sha256()
    directory, name = os.path.split(path)
    try:
        while True:  # a fresh random name whenever one is taken
            tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
            with contextlib.suppress(FileExistsError):
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
        try:
            try:
                batch = []
                for buffer in buffers:
                    digest.update(buffer)
                    batch.append(buffer)
                    if len(batch) == _IOV_MAX:
                        _writev_all(fd, batch)
                        batch = []
                _writev_all(fd, batch)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from None
    return digest.hexdigest()


def _write_output(path: str, value, to_json, to_csv) -> str:
    """Write value in the format the path's extension names; return the
    digest of the bytes written."""
    if path.endswith(".json"):
        return _write_atomic(path, to_json(value))
    if path.endswith(".csv"):
        return _write_atomic(path, to_csv(value))
    raise PreconditionError(f"unknown output format for {path}; use .json or .csv")


def _resolve_tolerance(args) -> Tolerance:
    kwargs = {}
    if args.tol_rank is not None:
        kwargs["rank_rel"] = args.tol_rank
    if args.tol_residual is not None:
        kwargs["residual_rel"] = args.tol_residual
    return Tolerance(**kwargs)


# --------------------------------------------------------------------------
# subcommands: each reads its inputs, calls its route and returns what it
# computed; main writes --output when every check passed, builds the report,
# times the run and derives the exit code


@dataclass(frozen=True)
class _Outcome:
    """What a handler computed: penrose is the check that certified value,
    also_passed any further check, and a value that is not None goes to
    --output through writers, (to_json, to_csv)."""

    method: str | None = None
    shape: tuple = (None, None)
    rank: int | None = None
    penrose: ResidualReport | None = None
    also_passed: bool = True
    value: object = None
    # looked up on each call, so that a wrapped writer is the one called
    writers: tuple = field(default_factory=lambda: (dumps_matrix_json, dumps_matrix_csv))
    input_digest: str | None = None
    extras: dict = field(default_factory=dict)


def _cmd_pinv(args, tol: Tolerance) -> _Outcome:
    if not args.input:
        raise PreconditionError("pinv needs --input")
    a, in_digest = _load_matrix(args.input)
    if args.method == "pair" and not args.aux:
        raise PreconditionError("pair method needs --aux with the completing matrix")
    b = _load_matrix(args.aux)[0] if args.aux else None  # only pair reads --aux
    # each checked form factors what it needs and gives X, its rank and its
    # Penrose report; normal and rank-completion factor A only on a refused kernel
    x, rank, report = {
        "svd": lambda: _pinv_checked(a, tol),
        "normal": lambda: _normal_checked(a, tol),
        "rank-completion": lambda: _rank_completion_checked(a, None, tol),
        "pair": lambda: _pair_checked(a, b, tol),
    }[args.method]()
    return _Outcome(args.method, a.shape, rank, report, value=x, input_digest=in_digest)


def _cmd_circ(args, tol: Tolerance) -> _Outcome:
    if args.gen is not None and args.input:
        raise PreconditionError("give --gen or --input, not both")
    in_digest = None
    if args.gen is not None:
        gen = parse_generator(args.gen)
        in_digest = _digest(args.gen.encode())
    elif args.input:
        text = _read_text(args.input)
        gen = loads_generator_json(text)
        in_digest = _digest(text.encode())
    elif args.method == "two-term":
        if args.alpha is None or args.beta is None or args.n is None:
            raise PreconditionError("two-term without --gen needs --alpha, --beta and --n")
        gen = _two_term_generator(args.alpha, args.beta, args.n, 1 if args.k is None else args.k)
    elif args.method == "block":
        if args.alpha is None or args.beta is None or args.k is None or args.q is None:
            raise PreconditionError("block method needs --alpha, --beta, --k and --q")
        pattern = block_pattern_generator(args.k, args.q)
        with np.errstate(over="ignore", invalid="ignore"):
            gen = args.alpha * np.ones(pattern.shape[0], dtype=np.complex128) + args.beta * pattern
    else:
        raise PreconditionError(f"{args.method} method needs a generator (--gen or --input)")
    # ||circ(gen)||_F = sqrt(n) ||gen||: every residual bound is built on it
    if not math.isfinite(math.sqrt(gen.shape[0]) * frobenius(gen)):
        raise PreconditionError("the circulant leaves the float range")
    # the one spectrum of the operation: the method's checked form starts from
    # it, and it gives the report's support; X is verified and written from
    # the generators
    spectrum = circ_spectrum(gen, tol)
    xgen, rank, residuals = CIRC_METHODS[args.method][1](spectrum, args, tol)
    return _Outcome(
        method=args.method,
        shape=(gen.shape[0], gen.shape[0]),
        rank=rank,
        penrose=residuals,
        value=xgen,
        writers=(dumps_generator_json, circulant_csv_blocks),
        input_digest=in_digest,
        extras={"support": list(spectrum.support)},
    )


def _cmd_tree(args, tol: Tolerance) -> _Outcome:
    if not args.input:
        raise PreconditionError("tree needs --input with an edge CSV")
    text = _read_text(args.input)
    edges = loads_tree_csv(text)
    tree = tree_build(edges, tol)
    # tree_pinv certifies rank n - 1 from D tau = 0 and the D L margin, so
    # the report needs no SVD of D, and its Penrose check is the report's
    x, rank, residuals = _tree_pinv_checked(tree, tol)
    u, rebuilt = tree_u_and_reconstruction(tree, tol=tol, dpinv=x)
    return _Outcome(
        method="closed-form",
        shape=(tree.n, tree.n),
        rank=rank,
        penrose=residuals,
        value=x,
        input_digest=_digest(text.encode()),
        extras={
            "weight_sum": tree.weight_sum,
            "u": [float(value) for value in u],
            "reconstruction_gap": frobenius(rebuilt - x),
            "dl_identity_residual": tree.dl_residual,
        },
    )


def _cmd_wheel(args, tol: Tolerance) -> _Outcome:
    # wheel_build certifies rank n - 1 from D a = 0 and the full-rank
    # margin of D + a a^t; wheel_pinv's Penrose check is the report's
    wheel = wheel_build(args.n, tol)
    dpinv, rank, residuals = _wheel_pinv_checked(wheel, tol)
    identities = wheel_z_identities(args.n, wheel.z24)
    eig_residual = float(np.max(np.abs(wheel.inv134 @ wheel.a - wheel.a / (args.n - 1))))
    return _Outcome(
        method="closed-form",
        shape=(args.n, args.n),
        rank=rank,
        penrose=residuals,
        also_passed=all(identities.values()),
        value=dpinv,
        extras={
            "n": args.n,
            "z24": [int(value) for value in wheel.z24],
            "z_identities": {key: bool(value) for key, value in identities.items()},
            "eigvector_residual": eig_residual,
        },
    )


def _cmd_verify(args, tol: Tolerance) -> _Outcome:
    if not args.input or not args.aux:
        raise PreconditionError("verify needs --input (matrix) and --aux (candidate inverse)")
    a, in_digest = _load_matrix(args.input)
    x, _ = _load_matrix(args.aux)
    pen = penrose_residuals(a, x, tol)
    certified = inverse_certified(a, x, tol)
    # else one stacked call, each member bit for bit svd's
    fa, fx = (None, None) if certified else svd_batch((a, x), tol, deflate=True)
    chars = _characterization(a, x, tol, certified, fa, fx)
    # X of another rank than A passes every bound once ||A||_F ||X||_F > 1/tau
    same_rank = certified or fx.rank == fa.rank
    every = {**pen.residuals, **chars.residuals}
    return _Outcome(
        shape=a.shape,
        rank=fa.rank if fa else a.shape[0],
        penrose=pen,
        also_passed=chars.passed and same_rank,
        input_digest=in_digest,
        extras={"residuals": {key: float(value) for key, value in every.items()}},
    )


def _cmd_gen(args, tol: Tolerance) -> _Outcome:
    if args.seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {args.seed}")
    prefix = args.output or "instance"
    files: list[dict] = []
    extras: dict = {"kind": args.kind, "seed": args.seed}

    def emit(path: str, text: str) -> None:
        files.append({"path": path, "sha256": _write_atomic(path, text)})

    # each flag the kind reads, at its default where it is not given
    size = {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in GEN_READS[args.kind].items()
    }
    if args.kind == "sum-family":
        family = gen_svd_block_family(args.seed, size["rows"], size["cols"], size["k"])
        for index, member in enumerate(family.members, start=1):
            emit(f"{prefix}_{index}.json", dumps_matrix_json(member))
        extras["certificate_holds"] = bool(check_orthogonality(family, tol).holds)
    elif args.kind == "zero-sum-tree":
        tree = gen_zero_sum_tree(args.seed, size["n"])
        emit(f"{prefix}.csv", dumps_tree_csv(tree.edges))
        extras["weight_sum"] = tree.weight_sum
    elif args.kind == "rank-additive-pair":
        first, second = gen_rank_additive_pair(args.seed, size["n"], tol)
        emit(f"{prefix}_a.json", dumps_matrix_json(first))
        emit(f"{prefix}_b.json", dumps_matrix_json(second))
    else:
        a = gen_random_matrix(args.seed, size["rows"], size["cols"], rank=size["k"])
        emit(f"{prefix}.json", dumps_matrix_json(a))

    extras["files"] = files
    return _Outcome(method=args.kind, extras=extras)


# --------------------------------------------------------------------------
# wiring


def _add_common(parser: argparse.ArgumentParser, **files: str) -> None:
    """Add the file flags the subcommand reads, named with their help texts,
    then the tolerance and report flags that every subcommand reads."""
    for name, text in files.items():
        parser.add_argument(f"--{name}", help=text)
    parser.add_argument("--tol-rank", type=float, help="relative rank cutoff factor")
    parser.add_argument(
        "--tol-residual", type=float, help="relative residual bound factor (default 1e-12)"
    )
    parser.add_argument("--pretty", action="store_true", help="aligned table instead of JSON")


def _check_reads(args) -> None:
    """Refuse a flag that the chosen method (or gen kind) does not read."""
    choice_key, reads = args.reads
    choice = getattr(args, choice_key)
    allowed = reads[choice]
    if choice == "two-term" and (args.gen is not None or args.input):
        # the generator fixes alpha, beta, n and k
        allowed = {"gen", "input"}
    unread = set().union(*reads.values()).difference(allowed)
    given = sorted(f"--{name}" for name in unread if getattr(args, name) is not None)
    if given:
        raise _UsageError(f"{args.command} {choice} does not read {', '.join(given)}")


# each method of pinv, with the flags of its own that it reads
PINV_READS = {"svd": set(), "normal": set(), "rank-completion": set(), "pair": {"aux"}}
# each method of circ: the flags of its own that it reads, and its checked
# form of (the operation's one Spectrum, the parsed flags, tol)
CIRC_METHODS = {
    "spectral": ({"gen", "input"}, lambda spec, _, tol: _spectral_checked(spec, tol)),
    "two-term": ({"gen", "input", "alpha", "beta", "n", "k"},
                 lambda spec, _, tol: _two_term_checked(spec, tol)),
    "zero-sum": ({"gen", "input", "alpha"},
                 lambda spec, args, tol: _zero_sum_checked(spec, args.alpha, tol)),
    "block": ({"alpha", "beta", "k", "q"}, lambda spec, args, tol: _block_checked(
        spec, args.alpha, args.beta, args.k, args.q, tol)),
}
# each kind of gen, with the flags of its own that it reads and their defaults
GEN_READS = {
    "sum-family": {"rows": 6, "cols": 5, "k": 2},
    "zero-sum-tree": {"n": 8},
    "rank-additive-pair": {"n": 6},
    "random-matrix": {"rows": 8, "cols": 8, "k": None},
}
MATRIX_IN = "matrix file (.json or .csv)"
MATRIX_OUT = "write the pseudoinverse here (.json or .csv)"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main call, not at
    import. parse_args leaves it unchanged, so no call sees another's flags."""
    parser = _Parser(prog="pinvkit", description="structure-exploiting pseudoinverses")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    cmd = commands.add_parser("pinv", help="pseudoinverse of a dense matrix")
    cmd.add_argument("--method", choices=list(PINV_READS), default="svd")
    _add_common(cmd, input=MATRIX_IN, aux="completing matrix for --method pair", output=MATRIX_OUT)
    cmd.set_defaults(handler=_cmd_pinv, reads=("method", PINV_READS))

    cmd = commands.add_parser("circ", help="closed-form circulant pseudoinverse")
    cmd.add_argument("--method", choices=list(CIRC_METHODS), default="spectral")
    cmd.add_argument("--gen", help="comma-separated generator entries")
    cmd.add_argument("--alpha", type=parse_complex)
    cmd.add_argument("--beta", type=parse_complex)
    cmd.add_argument("--k", type=int)
    cmd.add_argument("--q", type=int)
    cmd.add_argument("--n", type=int)
    _add_common(
        cmd,
        input="generator JSON file",
        output="write the pseudoinverse as a generator (.json) or a matrix (.csv)",
    )
    reads = {method: flags for method, (flags, _) in CIRC_METHODS.items()}
    cmd.set_defaults(handler=_cmd_circ, reads=("method", reads))

    cmd = commands.add_parser("tree", help="zero-sum tree distance pseudoinverse")
    _add_common(cmd, input="edge CSV file", output=MATRIX_OUT)
    cmd.set_defaults(handler=_cmd_tree)

    cmd = commands.add_parser("wheel", help="odd wheel distance pseudoinverse")
    cmd.add_argument("--n", type=int, required=True, help="vertex count, odd and >= 5")
    _add_common(cmd, output=MATRIX_OUT)
    cmd.set_defaults(handler=_cmd_wheel)

    cmd = commands.add_parser("verify", help="check a candidate pseudoinverse")
    _add_common(cmd, input=MATRIX_IN, aux="candidate pseudoinverse (.json or .csv)")
    cmd.set_defaults(handler=_cmd_verify)

    cmd = commands.add_parser("gen", help="write seeded test instances")
    cmd.add_argument("kind", choices=list(GEN_READS))
    cmd.add_argument("--rows", type=int)
    cmd.add_argument("--cols", type=int)
    cmd.add_argument("--k", type=int, help="family size, or rank for random-matrix")
    cmd.add_argument("--n", type=int)
    cmd.add_argument("--seed", type=int, default=0, help="generator seed")
    _add_common(cmd, output="filename prefix (default: instance)")
    cmd.set_defaults(handler=_cmd_gen, reads=("kind", GEN_READS))

    parser.commands = commands.choices  # name -> subcommand parser, for _parse_command_line
    return parser


def _parse_command_line(argv: list[str]) -> argparse.Namespace:
    """argv parsed as build_parser() parses it, tokens scanned once.

    The full parser hands every token after the subcommand's name to that
    subcommand's parser and sets command, so a command line that starts with
    a name goes straight there. Any other (none, help, an unknown name or a
    flag before the name) takes the full parser, with its messages.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, f"{name}."))
        else:
            rows.append((name, str(value)))
    return rows


def _print_report(report: dict, pretty: bool) -> None:
    if not pretty:
        # strict JSON: NaN and the infinities, extras included, print as null.
        # A report without them is encoded once; a round trip gives the same
        # bytes, so only a report that holds one takes it.
        try:
            line = json.dumps(report, allow_nan=False)
        except ValueError:
            strict = json.loads(json.dumps(report), parse_constant=lambda _: None)
            line = json.dumps(strict, allow_nan=False)
        print(line)
        return
    rows = _flatten(report)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_command_line(sys.argv[1:] if argv is None else list(argv))
        if hasattr(args, "reads"):
            _check_reads(args)
    except _UsageError as exc:
        print(f"pinvkit: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    started = time.perf_counter()
    try:
        out = args.handler(args, _resolve_tolerance(args))
        # whether every check passed; only a passing value goes to --output
        pen = out.penrose
        passed = pen is None or bool(pen.passed and out.also_passed)
        written = None
        if passed and out.value is not None and args.output:
            written = _write_output(args.output, out.value, *out.writers)
    except MatrixFormatError as exc:
        print(f"pinvkit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VerificationError as exc:
        print(f"pinvkit: verification failed: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    except (PreconditionError, ConvergenceError) as exc:
        print(f"pinvkit: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:  # the last resort for an input too large to hold
        print(f"pinvkit: precondition failed: out of memory: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    # the Penrose equation nearest its bound
    name, residual = pen.worst if pen is not None else (None, None)
    report = {
        "command": args.command,
        "method": out.method,
        "rows": out.shape[0],
        "cols": out.shape[1],
        "rank": out.rank,
        "max_penrose_residual": None if pen is None else float(residual),
        "residual_bound": None if pen is None else float(pen.bounds[name]),
        "passed": passed,
        "wall_time_s": time.perf_counter() - started,
        "input_digest": out.input_digest,
        "output_digest": written,
        "extras": out.extras,
    }
    _print_report(report, args.pretty)
    return EXIT_OK if passed else EXIT_RESIDUAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
