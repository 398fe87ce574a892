"""Seeded operation lists for the three benchmark workloads.

Everything here is the benchmark's own numpy code: inputs are drawn from the
run's seed and written with the benchmark's own serializers, so a change to
the program cannot change what it is asked to do. The program only ever sees
the files and argv built here.

Each workload is a fixed list of operation slots (subcommand, method, sizes,
formats). The seed only fills in the numbers, so every seed runs the same mix
and costs the same amount of work. See DESIGN.md for why each slot exists.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from check import circulant, reference_pinv, reference_rank

# --------------------------------------------------------------------------
# serializers (independent of pinvkit.matrix)


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=np.complex128).ravel()]


def _literal(z: complex) -> str:
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def matrix_json(a: np.ndarray) -> str:
    m, n = a.shape
    return json.dumps({"rows": m, "cols": n, "data": _pairs(a)}) + "\n"


def matrix_csv(a: np.ndarray) -> str:
    return "".join(",".join(_literal(z) for z in row) + "\n" for row in a)


def generator_json(gen: np.ndarray) -> str:
    return json.dumps({"n": int(gen.size), "gen": _pairs(gen)}) + "\n"


def generator_arg(gen: np.ndarray) -> str:
    return ",".join(_literal(z) for z in gen)


def tree_csv(edges) -> str:
    return "".join(f"{i},{j},{w!r}\n" for i, j, w in edges)


def write_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(matrix_json(a) if path.endswith(".json") else matrix_csv(a))


# --------------------------------------------------------------------------
# seeded instances


def complex_gaussian(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def random_matrix(rng: np.random.Generator, m: int, n: int, rank: int) -> np.ndarray:
    """Complex Gaussian matrix; a product of m x rank and rank x n factors
    when rank < min(m, n)."""
    if rank >= min(m, n):
        return complex_gaussian(rng, m, n)
    return complex_gaussian(rng, m, rank) @ complex_gaussian(rng, rank, n)


def null_basis(a: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of N(a), given its rank."""
    _, _, vh = np.linalg.svd(a)
    return vh[rank:].conj().T


def zero_sum_tree(rng: np.random.Generator, n: int) -> list[tuple[int, int, float]]:
    """Random tree on vertices 1..n whose edge weights sum to zero.

    Vertex v attaches to a uniform earlier vertex; the first n-2 weights are
    +-[0.5, 2] and the last is the negated sum, redrawn while it is within
    0.05 of zero (a zero weight is not an edge).
    """
    while True:
        parents = [int(rng.integers(1, v)) for v in range(2, n + 1)]
        weights = rng.uniform(0.5, 2.0, size=n - 2) * rng.choice([-1.0, 1.0], size=n - 2)
        last = -float(weights.sum())
        if abs(last) >= 0.05:
            break
    values = [float(w) for w in weights] + [last]
    return [(p, v, w) for p, v, w in zip(parents, range(2, n + 1), values)]


def tree_distance(edges, n: int) -> np.ndarray:
    """Path-sum distance matrix of a weighted tree with 1-based labels."""
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in edges:
        adjacency[i - 1].append((j - 1, w))
        adjacency[j - 1].append((i - 1, w))
    d = np.zeros((n, n))
    for root in range(n):
        seen = {root}
        stack = [root]
        while stack:
            at = stack.pop()
            for nxt, w in adjacency[at]:
                if nxt not in seen:
                    seen.add(nxt)
                    d[root, nxt] = d[root, at] + w
                    stack.append(nxt)
    return d


def wheel_distance(n: int) -> np.ndarray:
    """Distance matrix of the wheel on n vertices: hub 0, rim cycle 1..n-1."""
    m = n - 1
    d = np.ones((n, n))
    d[0, 0] = 0.0
    k = np.arange(m)
    gap = np.abs(k[:, None] - k[None, :])
    d[1:, 1:] = np.minimum(np.minimum(gap, m - gap), 2)
    return d


# --------------------------------------------------------------------------
# operation lists
#
# An operation is a dict:
#   id      stable name, unique in the workload (the same for every seed)
#   cmd     subcommand, or "fill_fishkind" for the library call
#   method  method flag, or None
#   argv    argv for pinvkit.cli.main; "{out}" stands for the output path
#   out     output extension (".json" / ".csv"), or None
#   kind    what the output holds: "matrix", "generator", "array", or
#           "verdict" for verify (no output file)
#   ref     path of the .npy reference pseudoinverse, or None for verify
#   rank    rank the report must state, or None
#   inputs  .npy paths a library operation loads (fill_fishkind only)


class _OpList:
    def __init__(self, workdir: str, seed: int):
        self.dir = os.path.join(workdir, "inputs")
        os.makedirs(self.dir, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.ops: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def save_ref(self, a: np.ndarray, rank: int | None = None) -> tuple[str, int]:
        """Store the reference pseudoinverse of a; returns (path, rank).

        A designed rank is checked against the reference rank, so a slip in
        the generators cannot pass for a program failure.
        """
        found = reference_rank(a)
        if rank is not None and found != rank:
            raise ValueError(f"generated input has rank {found}, designed {rank}")
        ref = self.path(f"{len(self.ops):02d}.ref.npy")
        np.save(ref, reference_pinv(a))
        return ref, found

    def add(self, name, cmd, method, argv, out, kind, ref, inputs=None):
        op_id = f"{len(self.ops):02d}-{name}"
        self.ops.append(
            {
                "id": op_id,
                "cmd": cmd,
                "method": method,
                "argv": argv,
                "out": out,
                "kind": kind,
                "ref": ref[0] if ref else None,
                "rank": ref[1] if ref and cmd != "fill_fishkind" else None,
                "inputs": inputs,
            }
        )


# (rows, cols, rank, method, input format, output format); verify rows take
# the candidate inverse in the output format's slot.
DENSE_SLOTS = [
    (64, 64, 64, "svd", ".json", ".csv"),
    (32, 32, 32, "normal", ".csv", ".json"),
    (32, 32, 16, "svd", ".json", ".json"),
    (32, 32, 32, "verify", ".json", ".csv"),
    (16, 16, 16, "svd", ".csv", ".csv"),
    (16, 16, 8, "normal", ".json", ".json"),
    (16, 16, 16, "rank-completion", ".json", ".csv"),
    (16, 16, 12, "rank-completion", ".csv", ".json"),
    (16, 16, 8, "verify", ".csv", ".json"),
    (16, 16, 12, "svd", ".json", ".json"),
    (12, 12, 12, "normal", ".csv", ".csv"),
    (12, 12, 6, "svd", ".json", ".csv"),
    (12, 12, 9, "verify", ".json", ".json"),
    (10, 10, 10, "rank-completion", ".json", ".json"),
    (10, 10, 5, "normal", ".csv", ".json"),
    (8, 8, 8, "svd", ".csv", ".json"),
    (8, 8, 4, "rank-completion", ".json", ".csv"),
    (8, 8, 8, "verify", ".csv", ".csv"),
    (8, 8, 6, "normal", ".json", ".json"),
    (8, 8, 3, "svd", ".json", ".csv"),
    (128, 4, 1, "svd", ".csv", ".json"),
    (128, 4, 1, "normal", ".json", ".csv"),
    (96, 4, 1, "rank-completion", ".csv", ".json"),
    (64, 4, 1, "verify", ".json", ".csv"),
    (64, 4, 1, "normal", ".csv", ".csv"),
    (48, 4, 1, "svd", ".json", ".json"),
    (32, 4, 1, "rank-completion", ".json", ".json"),
    (16, 4, 1, "verify", ".csv", ".json"),
]


def dense_oracle(workdir: str, seed: int) -> list[dict]:
    """pinv (svd, normal, rank-completion) and verify on dense inputs."""
    b = _OpList(workdir, seed)
    for m, n, rank, method, fin, fout in DENSE_SLOTS:
        name = f"{method}-{m}x{n}-r{rank}"
        a = random_matrix(b.rng, m, n, rank)
        src = b.path(f"{len(b.ops):02d}-a{fin}")
        write_matrix(src, a)
        ref = b.save_ref(a, rank)
        if method == "verify":
            cand = b.path(f"{len(b.ops):02d}-x{fout}")
            write_matrix(cand, np.load(ref[0]))
            b.add(name, "verify", None, ["verify", "--input", src, "--aux", cand],
                  None, "verdict", ref)
        else:
            b.add(name, "pinv", method,
                  ["pinv", "--method", method, "--input", src, "--output", "{out}"],
                  fout, "matrix", ref)
    return b.ops


WHEEL_SIZES = [5, 7, 9, 11, 13, 17, 21, 25, 33, 61]
TREE_SIZES = [20, 20, 22, 24, 26, 32, 40, 60]
# (n, rank of A, partner kind): "gram" draws B = C N* with C generic, so
# only R(B*) = N(A) holds; "invertible" also puts R(B) inside N(A*).
PAIR_SLOTS = [(6, 3, "gram"), (8, 5, "invertible"), (8, 4, "gram"), (10, 6, "invertible"),
              (12, 6, "gram"), (16, 10, "gram")]
# (n, rank of A1, rank of A2)
FILL_FISHKIND_SLOTS = [(6, 2, 3), (8, 3, 4), (8, 2, 2), (10, 4, 5), (12, 3, 6)]


def closed_form(workdir: str, seed: int) -> list[dict]:
    """wheel, tree, pinv --method pair and the Fill-Fishkind library call."""
    b = _OpList(workdir, seed)
    for index, n in enumerate(WHEEL_SIZES):
        ref = b.save_ref(wheel_distance(n), n - 1)
        b.add(f"wheel-{n}", "wheel", None, ["wheel", "--n", str(n), "--output", "{out}"],
              ".json" if index % 2 else ".csv", "matrix", ref)
    for index, n in enumerate(TREE_SIZES):
        edges = zero_sum_tree(b.rng, n)
        src = b.path(f"{len(b.ops):02d}-tree.csv")
        with open(src, "w", encoding="utf-8") as handle:
            handle.write(tree_csv(edges))
        ref = b.save_ref(tree_distance(edges, n), n - 1)
        b.add(f"tree-{n}", "tree", None, ["tree", "--input", src, "--output", "{out}"],
              ".csv" if index % 2 else ".json", "matrix", ref)
    for index, (n, rank, partner) in enumerate(PAIR_SLOTS):
        a = random_matrix(b.rng, n, n, rank)
        if partner == "invertible":
            left = null_basis(a.conj().T, rank) @ complex_gaussian(b.rng, n - rank, n - rank)
        else:
            left = complex_gaussian(b.rng, n, n - rank)
        partner_matrix = left @ null_basis(a, rank).conj().T
        fmt = ".csv" if index % 2 else ".json"
        src = b.path(f"{len(b.ops):02d}-a{fmt}")
        aux = b.path(f"{len(b.ops):02d}-b{fmt}")
        write_matrix(src, a)
        write_matrix(aux, partner_matrix)
        ref = b.save_ref(a, rank)
        b.add(f"pair-{partner}-{n}-r{rank}", "pinv", "pair",
              ["pinv", "--method", "pair", "--input", src, "--aux", aux, "--output", "{out}"],
              ".json" if index % 2 else ".csv", "matrix", ref)
    for n, r1, r2 in FILL_FISHKIND_SLOTS:
        a1 = random_matrix(b.rng, n, n, r1)
        a2 = random_matrix(b.rng, n, n, r2)
        stem = b.path(f"{len(b.ops):02d}")
        np.save(f"{stem}-a1.npy", a1)
        np.save(f"{stem}-a2.npy", a2)
        ref = b.save_ref(a1 + a2, r1 + r2)
        b.add(f"fill_fishkind-{n}-r{r1}+{r2}", "fill_fishkind", None, [], None, "array",
              ref, [f"{stem}-a1.npy", f"{stem}-a2.npy"])
    return b.ops


CIRC_SIZES = [64, 72, 80, 96, 112, 128, 144, 160, 192, 224, 256, 288, 320, 384, 448, 512]


def circulant_io(workdir: str, seed: int) -> list[dict]:
    """Two operations per size: one writes the generator (JSON), the other
    the materialized matrix (CSV). The methods rotate over the sizes, so each
    of the four appears in both formats from small n to large. Many sizes
    instead of a few keep the latency distribution free of wide gaps, which
    would make its percentiles jump between runs."""
    b = _OpList(workdir, seed)
    for index, n in enumerate(CIRC_SIZES):
        JSON_VARIANTS[index % 4](b, n)
        CSV_VARIANTS[(index + 2) % 4](b, n)
    return b.ops


def _spectral(b: _OpList, n: int, out: str) -> None:
    """A generic complex generator; from a file for JSON output, from
    --gen for CSV output."""
    gen = complex_gaussian(b.rng, 1, n)[0]
    _circ(b, n, "spectral", gen, [], out, out == ".json", b.save_ref(circulant(gen), n))


def _two_term_closed(b: _OpList, n: int, out: str) -> None:
    """alpha = -beta, given as --alpha/--beta/--n/--k: the singular closed form."""
    alpha = float(b.rng.uniform(0.5, 2.0))
    k_pos = int(b.rng.integers(1, n + 1))
    gen = np.zeros(n, dtype=np.complex128)
    gen[k_pos - 1] = alpha
    gen[k_pos % n] = -alpha
    b.add(f"circ-two-term-closed-{n}", "circ", "two-term",
          ["circ", "--method", "two-term", f"--alpha={alpha!r}", f"--beta={-alpha!r}",
           "--n", str(n), "--k", str(k_pos), "--output", "{out}"],
          out, "generator" if out == ".json" else "matrix", b.save_ref(circulant(gen), n - 1))


def _two_term_generic(b: _OpList, n: int, out: str) -> None:
    """A generic adjacent pair from --gen: the spectral fallback."""
    gen = np.zeros(n, dtype=np.complex128)
    head = int(b.rng.integers(0, n))
    gen[head] = complex(b.rng.uniform(1.0, 2.0), b.rng.uniform(-1.0, 1.0))
    gen[(head + 1) % n] = complex(b.rng.uniform(0.3, 0.7), b.rng.uniform(-0.3, 0.3))
    _circ(b, n, "two-term", gen, [], out, False, b.save_ref(circulant(gen), n))


def _zero_sum(b: _OpList, n: int, out: str, shift: float) -> None:
    """From a file; shift 0 gives a zero-sum generator (shifted route),
    a nonzero shift a nonzero entry sum (mean split)."""
    alpha = [f"--alpha={float(b.rng.uniform(0.5, 2.0))!r}"]
    gen = b.rng.standard_normal(n)
    gen = gen - gen.mean() + shift
    rank = n if shift else n - 1
    _circ(b, n, "zero-sum", gen, alpha, out, True, b.save_ref(circulant(gen), rank))


def _block(b: _OpList, n: int, out: str, k: int) -> None:
    """alpha ones + beta pattern(k, q) with q = n / (k + 1), from flags."""
    q = n // (k + 1)
    alpha = float(b.rng.uniform(0.5, 2.0))
    beta = float(b.rng.uniform(0.5, 2.0)) * float(b.rng.choice([-1.0, 1.0]))
    pattern = np.array(([k] + [-1] * k) * q, dtype=float)
    gen = alpha * np.ones(n) + beta * pattern
    b.add(f"circ-block-k{k}-{n}", "circ", "block",
          ["circ", "--method", "block", f"--alpha={alpha!r}", f"--beta={beta!r}",
           "--k", str(k), "--q", str(q), "--output", "{out}"],
          out, "generator" if out == ".json" else "matrix", b.save_ref(circulant(gen), k + 1))


JSON_VARIANTS = [
    lambda b, n: _spectral(b, n, ".json"),
    lambda b, n: _two_term_closed(b, n, ".json"),
    lambda b, n: _zero_sum(b, n, ".json", 0.0),
    lambda b, n: _block(b, n, ".json", 1),
]
CSV_VARIANTS = [
    lambda b, n: _spectral(b, n, ".csv"),
    lambda b, n: _two_term_generic(b, n, ".csv"),
    lambda b, n: _zero_sum(b, n, ".csv", 0.5),
    lambda b, n: _block(b, n, ".csv", 3),
]


def _circ(b: _OpList, n, method, gen, extra, out, from_file: bool, ref) -> None:
    gen = np.asarray(gen, dtype=np.complex128)
    if from_file:
        src = b.path(f"{len(b.ops):02d}-gen.json")
        with open(src, "w", encoding="utf-8") as handle:
            handle.write(generator_json(gen))
        source = ["--input", src]
    else:
        source = [f"--gen={generator_arg(gen)}"]
    b.add(f"circ-{method}-{'file' if from_file else 'arg'}-{n}", "circ", method,
          ["circ", "--method", method, *source, *extra, "--output", "{out}"],
          out, "generator" if out == ".json" else "matrix", ref)


WORKLOADS = {
    "dense-oracle": dense_oracle,
    "closed-form": closed_form,
    "circulant-io": circulant_io,
}
