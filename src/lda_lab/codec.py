"""The transmission scheme: nested pairs, syndrome encoding, lattice decoding.

A nested pair stacks a message block H' (ell = n(R_f - R) rows) on top of
the fine parity check H_f (r = n(1 - R_f) rows).  The shaping lattice is
the kernel of the full stack, the fine lattice the kernel of H_f alone.
Messages are partial syndromes: encoding solves H x^T = (m | 0)^T for some
fine-lattice point and reduces it into the shaping Voronoi region via
x - Q(x); decoding quantizes the MMSE-scaled channel output in the fine
lattice and reads the message back through H'.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .channel import effective_noise_variance, wiener
from .expander import BudgetExceededError, TannerGraph, build_graphs, export_text, import_text
from .expander import build_graph  # noqa: F401  (re-exported: the benchmark traces ``codec.build_graph``)
from .fieldcore import is_prime
from .gfmatrix import GfMatrix, StackedParityCheck, block_heights, check_modulus
from .gfmatrix import rank, solve  # noqa: F401  (re-exported: the benchmark traces ``codec.rank``, ``codec.solve``)
from .lattice import (
    DEFAULT_QUANTIZER_BUDGET,
    ConstructionALattice,
    checked_point,
    construction_a,
)

MAX_RANK_ATTEMPTS = 64
# Pairs are set up in chunks, as stacks.  A set-up pair holds about
# SETUP_BYTES_PER_ENTRY bytes per entry of n x n (its reduced forms, bases,
# QR factors and their working copies, its graphs and R as Python floats:
# 229 measured at n = 12, 151 at n = 48), and a chunk holds at most
# SETUP_BYTES of pairs: 113 at n = 12, 7 at n = 48, one from n = 91.
SETUP_BYTES_PER_ENTRY = 256
SETUP_BYTES = 2**22
# Sum-product limits.  Flooding BP settles in tens of iterations; more than
# MAX_BP_ITERATIONS is refused.  A batch holds its channel priors and
# messages as float arrays of about BP_BYTES_PER_SYMBOL bytes per point,
# coordinate and residue (280-570 measured at n = 12 and 24), and more than
# MAX_BP_BYTES of them are refused before any is built.
MAX_BP_ITERATIONS = 10_000
BP_BYTES_PER_SYMBOL = 600
MAX_BP_BYTES = 2**30


@dataclass(frozen=True)
class NestedLatticePair:
    """A nested pair read off its stacked parity check: the shaping lattice
    is the kernel of the full stack, the fine lattice that of its lower
    block, and the ensemble kind is "lda" exactly when the pair carries its
    LDA check degree ``delta_p``.  Its skeleton graphs are not stored:
    (n, block rows, delta_p, seed) fix them (:func:`_skeletons`).  The two
    lattices, ``fine`` and ``shaping``, are handed over by :func:`_set_up`,
    which computes them from the stack."""

    stack: StackedParityCheck
    seed: int
    regenerations: int
    delta_p: int | None
    lattices: InitVar[tuple[ConstructionALattice, ConstructionALattice]]

    def __post_init__(self, lattices: tuple[ConstructionALattice, ConstructionALattice]) -> None:
        object.__setattr__(self, "fine", lattices[0])
        object.__setattr__(self, "shaping", lattices[1])

    n = property(lambda self: self.stack.n)
    p = property(lambda self: self.stack.p)
    R = property(lambda self: self.stack.R)
    R_f = property(lambda self: self.stack.R_f)
    kind = property(lambda self: "dense" if self.delta_p is None else "lda")

    @property
    def ell(self) -> int:
        return self.stack.ell

    @property
    def codebook_size(self) -> int:
        """M = p^(n(R_f - R)) for full-rank stacks."""
        return self.p**self.ell


def _setup_chunk(n: int) -> int:
    """The most pairs of length n set up in one chunk, and the most fine
    codes a verifier stacks: as many as SETUP_BYTES holds at
    SETUP_BYTES_PER_ENTRY bytes an entry of n x n, one at least (a length
    below 1 is refused by the build)."""
    return max(1, SETUP_BYTES // (SETUP_BYTES_PER_ENTRY * max(1, n * n)))


def _set_up(drawn: list[tuple[StackedParityCheck, int, int, int | None]]) -> list[NestedLatticePair]:
    """The pairs of drawn stacks, given as (stack, seed, attempt, delta_p).
    The fine lattices share one set-up stack and the shaping lattices
    another, so each kind's reduced forms, bases and sorted QR factors are
    computed for all the pairs at once, each when the first lattice of the
    kind needs it: the shaping forms at the rank test, the fine ones at the
    first exact decode."""
    lattices = zip(construction_a([stack.lower for stack, *_ in drawn]),
                   construction_a([stack.full for stack, *_ in drawn]))
    return [NestedLatticePair(*draw, pair) for draw, pair in zip(drawn, lattices)]


def _label_graphs(graphs: list[TannerGraph], p: int, seeds: list[int], tag: str,
                  attempt: int) -> list[GfMatrix]:
    """Put i.i.d. uniform GF(p) labels on the merged edges of each graph
    (graphs of one shape), drawn from its seed's stream in the fixed
    lexicographic edge order, and scatter them into one stack of checks:
    one row per check, one column per variable."""
    rows, n = graphs[0].n_right, graphs[0].n_left
    check_modulus(p, rows, n)  # before the draw, which cannot hold such labels
    labels = [rng.generator(seed, "labels", tag, attempt).integers(
        0, p, size=len(graph.edges), dtype=np.int64) for graph, seed in zip(graphs, seeds)]
    edges = np.concatenate([graph.edges for graph in graphs])
    H = np.zeros((len(graphs), rows, n), dtype=np.int64)
    H[np.repeat(np.arange(len(graphs)), [len(graph.edges) for graph in graphs]),
      edges[:, 1], edges[:, 0]] = np.concatenate(labels)
    return [GfMatrix(h, p) for h in H]


def _skeletons(n: int, rows: int, delta_p: int, seeds: list[int], tag: str) -> list[TannerGraph]:
    """The permutation-model skeletons of LDA blocks of ``rows`` checks,
    each fixed by its seed: check degree delta_p, variable degree delta_p
    rows / n, built as one stack."""
    keys = [rng.derive_key(seed, f"skeleton-{tag}") for seed in seeds]
    return build_graphs(n, Fraction(rows, n), delta_p, keys)


def _check_ensemble(p: int, kind: str) -> None:
    """Refuse a modulus that is not an odd prime and an unknown ensemble kind."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if kind not in ("dense", "lda"):
        raise ValueError(f"unknown ensemble kind {kind!r}")


def _draws(n: int, p: int, ell: int, r: int, seeds: list[int], delta_p: int | None,
           skeletons: list[tuple[TannerGraph, TannerGraph] | None],
           attempt: int) -> list[tuple[StackedParityCheck, int, int, int | None]]:
    """Attempt ``attempt`` of each seed's stack, as :func:`_set_up` takes
    it: dense entries, or (when delta_p is set) labels on each seed's
    (fine, upper) skeletons."""
    if delta_p is None:
        gens = [rng.generator(seed, "dense-H", attempt) for seed in seeds]
        stacks = [StackedParityCheck(GfMatrix.random(ell, n, p, gen), GfMatrix.random(r, n, p, gen))
                  for gen in gens]
    else:
        stacks = [StackedParityCheck(upper, lower) for upper, lower in zip(
            _label_graphs([upper for _fine, upper in skeletons], p, seeds, "upper", attempt),
            _label_graphs([fine for fine, _upper in skeletons], p, seeds, "fine", attempt))]
    return [(stack, seed, attempt, delta_p) for stack, seed in zip(stacks, seeds)]


def build_pairs(
    n: int,
    p: int,
    R: Fraction | str,
    R_f: Fraction | str,
    kind: str,
    seeds: Iterable[int],
    delta_p: int | None = None,
) -> Iterator[NestedLatticePair]:
    """Yield the nested pair of each seed, in order, drawn from the dense or
    LDA ensemble.

    Dense: every entry of the (ell + r) x n stack is uniform over GF(p).
    LDA: two permutation-model skeleton graphs (fixed by the seed) carry
    uniform labels; the fine block has check degree delta_p and variable
    degree delta_p(1 - R_f), the message block check degree delta_p and
    variable degree delta_p(R_f - R).

    The seeds are taken in chunks of at most SETUP_BYTES of set-up pairs
    (about SETUP_BYTES_PER_ENTRY bytes per entry of n x n each), and the
    first draws of a chunk are set up together (:func:`_set_up`).  A
    rank-deficient draw is repaired when its pair is reached, by redrawing
    entries/labels with the next attempt number, one draw at a time; the
    number of redraws is recorded on the pair.  So a pair, and a refusal
    after MAX_RANK_ATTEMPTS draws, come out as they would for the seed
    alone, and in seed order.
    """
    R = Fraction(R)
    R_f = Fraction(R_f)
    _check_ensemble(p, kind)
    ell, r = block_heights(n, R, R_f)
    if kind == "lda" and delta_p is None:
        raise ValueError("LDA pairs need delta_p")
    delta_p = delta_p if kind == "lda" else None
    chunk = _setup_chunk(n)
    seeds = iter(seeds)
    while part := list(itertools.islice(seeds, chunk)):
        # Every fine skeleton of the chunk is built before any upper one.
        skeletons = [None] * len(part) if delta_p is None else list(zip(
            _skeletons(n, r, delta_p, part, "fine"), _skeletons(n, ell, delta_p, part, "upper")))
        drawn = _draws(n, p, ell, r, part, delta_p, skeletons, 0)
        for seed, skeleton, pair in zip(part, skeletons, _set_up(drawn)):
            # The rank is read off the one row reduction the encoder needs anyway.
            while n - pair.shaping.k_eff != ell + r:
                attempt = pair.regenerations + 1
                if attempt == MAX_RANK_ATTEMPTS:
                    raise RuntimeError(f"no full-rank draw after {MAX_RANK_ATTEMPTS} attempts "
                                       f"(seed {seed})")
                pair, = _set_up(_draws(n, p, ell, r, [seed], delta_p, [skeleton], attempt))
            yield pair


def build_pair(
    n: int,
    p: int,
    R: Fraction | str,
    R_f: Fraction | str,
    kind: str = "dense",
    seed: int = 0,
    delta_p: int | None = None,
) -> NestedLatticePair:
    """The pair :func:`build_pairs` draws from one seed."""
    return next(build_pairs(n, p, R, R_f, kind, [seed], delta_p))


# ---------------------------------------------------------------------------
# Encoding


@dataclass(frozen=True)
class EncodeResult:
    point: np.ndarray


def encode(
    pair: NestedLatticePair,
    message: np.ndarray,
    budget: int = DEFAULT_QUANTIZER_BUDGET,
) -> EncodeResult:
    """Map a message to its constellation point: the unique fine-lattice
    point with stacked syndrome (m | 0) lying in the shaping Voronoi region.

    Reads a particular integer point x with H x^T = (m | 0)^T off the
    shaping lattice's cached row transform and subtracts Q(x) in the
    shaping lattice; ``budget`` bounds the quantizer's search nodes, and a
    refusal says that it was the shaping lattice's, during encode.  The
    output's syndrome is re-verified before returning.
    """
    message = np.asarray(message, dtype=np.int64) % pair.p
    if message.shape != (pair.ell,):
        raise ValueError(f"message must have length {pair.ell}")
    target = np.concatenate([message, np.zeros(pair.stack.r, dtype=np.int64)])
    x = pair.shaping.coset_point(target)
    try:
        point = x - pair.shaping.quantize(x.astype(float), budget=budget)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"encode: shaping {exc}") from exc
    if not (np.array_equal(extract_message(pair, point), message)
            and not pair.stack.lower.mul_vec(point).any()):
        raise AssertionError("encoded point fails its own syndrome check")
    return EncodeResult(point=point)


def extract_message(pair: NestedLatticePair, x: np.ndarray) -> np.ndarray:
    """phi: x -> H' x^T mod p."""
    return pair.stack.upper.mul_vec(np.asarray(x, dtype=np.int64))


# ---------------------------------------------------------------------------
# Decoding


def mmse_decode_exact(
    pair: NestedLatticePair,
    y: np.ndarray,
    P: float,
    sigma2: float,
    budget: int = DEFAULT_QUANTIZER_BUDGET,
) -> np.ndarray:
    """Scale by the Wiener coefficient alpha, quantize in the fine lattice,
    and read the message: H' Q(alpha y) mod p.  A refusal of the search
    says that it was the fine lattice's, during decode."""
    y = checked_point(y, pair.n)
    try:
        x_hat = pair.fine.quantize(wiener(P, sigma2) * y, budget=budget)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"decode: fine {exc}") from exc
    return extract_message(pair, x_hat)


@dataclass(frozen=True)
class BpResult:
    message: np.ndarray
    point: np.ndarray
    verified: bool
    iterations: int


def _channel_priors(Z: np.ndarray, p: int, noise_vars: np.ndarray) -> np.ndarray:
    """Per-coordinate posteriors over residues a mod p of each row of Z,
    folding the Gaussian density of that row's noise variance over a
    +/- 3-period window of representatives around z_i."""
    res = np.arange(p, dtype=np.int64)
    base = res + p * np.rint((Z[..., None] - res) / p)
    reps = base[..., None] + p * np.arange(-3, 4)
    logd = -((Z[..., None, None] - reps) ** 2) / (2.0 * noise_vars[:, None, None, None])
    logd -= logd.max(axis=(2, 3), keepdims=True)
    pri = np.exp(logd).sum(axis=3)
    pri /= pri.sum(axis=2, keepdims=True)
    return pri  # shape (points, n, p)


@dataclass(frozen=True)
class _Edges:
    """The nonzero entries h of a parity check in check-major order, and the
    flat index maps of one point's check update."""

    cols: np.ndarray  # variable of each edge
    slots: np.ndarray  # each edge's cell in the (checks, max degree + 2) padded product
    before: np.ndarray  # the cell before it: the prefix product over the earlier edges
    after: np.ndarray  # the cell after it, in the row-reversed array: the suffix product
    to_hx: np.ndarray  # into (E, p): the message of h x = b reads x = b / h
    from_hx: np.ndarray  # into (E, p): the outgoing message of x = a reads h x = -h a
    shape: tuple[int, int, int]  # (checks, max degree + 2, p)


def _edges(H: GfMatrix) -> _Edges:
    rows, cols = np.nonzero(H.array)
    h = H.array[rows, cols][:, None]
    a = np.arange(H.p)
    degree = np.bincount(rows, minlength=H.rows)
    width = int(degree.max(initial=0)) + 2
    slot = np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows] + 1
    edge_start = H.p * np.arange(len(rows))[:, None]
    cell = rows * width + slot
    return _Edges(cols, cell, cell - 1, rows * width + (width - 2 - slot),
                  (edge_start + np.argsort(a * h % H.p, axis=1)).ravel(),
                  (edge_start + -a * h % H.p).ravel(), (H.rows, width, H.p))


def _check_messages(edges: _Edges, v2c: np.ndarray) -> np.ndarray:
    """Outgoing sum-product messages of every check sum_j h_j x_j = 0 mod p,
    one (edges, p) block per point of the (points, edges, p) batch v2c.

    Each incoming message is carried to the y = h x domain and through a
    length-p DFT, where the Z_p convolution of the other edges' messages is
    a pointwise product: the prefix times the suffix product along the
    check's row of a ones-padded array.  The inverse DFT, clipped at 0, is
    read at y = -h x and normalized (uniform when it sums to 0).  Gathers
    use ``take``, whose C-ordered output keeps each row's sums in the order
    of a one-point call.
    """
    points, _E, p = v2c.shape
    checks, width, _p = edges.shape
    spectra = np.ones((points, checks * width, p), dtype=complex)
    incoming = v2c.reshape(points, -1).take(edges.to_hx, axis=1).reshape(v2c.shape)
    spectra[:, edges.slots] = np.fft.fft(incoming)
    spectra = spectra.reshape(points, checks, width, p)
    prefix = np.cumprod(spectra, axis=2).reshape(points, -1, p)
    suffix = np.cumprod(spectra[:, :, ::-1], axis=2).reshape(points, -1, p)
    others = prefix.take(edges.before, axis=1) * suffix.take(edges.after, axis=1)
    conv = np.maximum(np.fft.ifft(others).real, 0.0)
    msg = conv.reshape(points, -1).take(edges.from_hx, axis=1).reshape(v2c.shape)
    total = msg.sum(axis=2, keepdims=True)
    return np.divide(msg, total, out=np.full_like(msg, 1.0 / p), where=total > 0)


def _sum_product_points(
    H: GfMatrix, Z: np.ndarray, noise_vars: np.ndarray, iters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flooding-schedule non-binary sum-product toward H x = 0 near each row
    of Z, at that row's noise variance, with the messages of both directions
    held as (points, edges, p) arrays.  A point leaves the batch once it is
    verified or has run ``iters`` iterations, and no array operation mixes
    points, so each row gets the floats it would get decoded alone.

    Returns, per row, the hard-decision integer point (each symbol re-lifted
    to the representative of its residue class nearest z_i), whether it
    satisfies the parity check, and the number of iterations used.
    """
    if not 1 <= iters <= MAX_BP_ITERATIONS:
        raise ValueError(f"bp_iters = {iters} must be at least 1 and at most {MAX_BP_ITERATIONS}")
    p = H.p
    count, n = Z.shape
    edges = _edges(H)
    priors = _channel_priors(Z, p, noise_vars)
    log_prior = np.log(np.maximum(priors, 1e-300)).reshape(count, -1)
    var_to_check = priors.take(edges.cols, axis=1)
    # One bincount sums every posterior: each point's bins are its priors,
    # then its checks' messages in edge order, the order of np.add.at.
    bins = np.concatenate([np.arange(n * p), (edges.cols[:, None] * p + np.arange(p)).ravel()])
    bins = bins + n * p * np.arange(count)[:, None]
    points = np.empty((count, n), dtype=np.int64)
    verified = np.zeros(count, dtype=bool)
    used = np.zeros(count, dtype=np.int64)
    active, z = np.arange(count), Z
    for it in range(1, iters + 1):
        log_c2v = np.log(np.maximum(_check_messages(edges, var_to_check), 1e-300))
        live = len(active)
        weights = np.concatenate([log_prior, log_c2v.reshape(live, -1)], axis=1)
        log_post = np.bincount(bins[:live].ravel(), weights.ravel(),
                               minlength=live * n * p).reshape(live, n, p)
        hard = log_post.argmax(axis=2)
        point = hard + p * np.rint((z - hard) / p).astype(np.int64)
        ok = ~((point % p) @ H.array.T % p).any(axis=1)
        done = ok | (it == iters)
        if done.any():
            finished = active[done]
            points[finished], verified[finished], used[finished] = point[done], ok[done], it
            if done.all():
                break
            go = ~done
            active, z, log_prior, log_post, log_c2v = (
                a[go] for a in (active, z, log_prior, log_post, log_c2v))
        ext = log_post.take(edges.cols, axis=1) - log_c2v
        ext -= ext.max(axis=2, keepdims=True)
        var_to_check = np.exp(ext)
        var_to_check /= var_to_check.sum(axis=2, keepdims=True)
    return points, verified, used


def bp_decode_batch(
    pair: NestedLatticePair,
    Y: np.ndarray | list[np.ndarray],
    P: float,
    sigma2s: list[float],
    iters: int = 200,
) -> list[BpResult]:
    """:func:`bp_decode` of every row of Y, each at its own noise variance
    ``sigma2s[i]``, in one call of the batched kernel.  Each result is the
    one that row would get decoded alone.  A batch whose arrays would pass
    MAX_BP_BYTES is refused."""
    if pair.kind != "lda":
        raise ValueError("bp_decode requires an LDA pair")
    Y = np.array([checked_point(y, pair.n) for y in Y]).reshape(-1, pair.n)
    if len(sigma2s) != len(Y):
        raise ValueError(f"{len(Y)} outputs but {len(sigma2s)} noise variances")
    need = BP_BYTES_PER_SYMBOL * len(Y) * pair.n * pair.p
    if need > MAX_BP_BYTES:
        raise BudgetExceededError(
            f"bp decoder refused: {len(Y)} points at n = {pair.n}, p = {pair.p} need about "
            f"{need} bytes of messages, over the allowed {MAX_BP_BYTES} bytes")
    Z = np.array([wiener(P, s) for s in sigma2s])[:, None] * Y
    noise_vars = np.array([max(effective_noise_variance(P, s), 1e-12) for s in sigma2s])
    points, verified, used = _sum_product_points(pair.stack.lower, Z, noise_vars, iters)
    return [BpResult(message=extract_message(pair, x), point=x, verified=bool(v), iterations=int(i))
            for x, v, i in zip(points, verified, used)]


def bp_decode(
    pair: NestedLatticePair,
    y: np.ndarray,
    P: float,
    sigma2: float,
    iters: int = 200,
) -> BpResult:
    """Non-binary sum-product on the fine Tanner graph of an LDA pair.

    Channel priors fold the Gaussian density of the MMSE-scaled output over
    each residue class within a +/- 3-period window; check nodes convolve
    over Z_p as pointwise products of length-p DFTs, O(d p log p) per check
    of degree d (``tests/oracles.py`` holds the direct per-check oracle).
    Non-convergence is flagged ``unverified`` (best-effort decision) rather
    than raised.
    """
    return bp_decode_batch(pair, [y], P, [sigma2], iters)[0]


def build_fine_lattice(
    n: int, p: int, R_f: Fraction | str, delta_p: int, seed: int = 0
) -> tuple[ConstructionALattice, TannerGraph]:
    """The LDA fine lattice of one seed and its skeleton:
    :func:`build_fine_lattices` of a stack of one."""
    return build_fine_lattices(n, p, R_f, delta_p, [seed])[0]


def build_fine_lattices(
    n: int, p: int, R_f: Fraction | str, delta_p: int, seeds: list[int]
) -> list[tuple[ConstructionALattice, TannerGraph]]:
    """LDA fine lattices (no shaping stack), one per seed, each with its
    skeleton: the labeled permutation-model code with check degree delta_p
    and variable degree delta_p(1 - R_f).  The raw draw is kept,
    rank-deficient or not: it is the fine block of ``build_pair``'s first
    attempt with the same seed.  The skeletons are one stacked graph
    build, their labels one scatter, and the lattices share one set-up
    stack (:func:`construction_a`)."""
    _ell, r = block_heights(n, None, Fraction(R_f))
    graphs = _skeletons(n, r, delta_p, seeds, "fine")
    if not graphs:
        return []
    return list(zip(construction_a(_label_graphs(graphs, p, seeds, "fine", attempt=0)), graphs))


# ---------------------------------------------------------------------------
# Serialization


def pair_to_text(pair: NestedLatticePair) -> str:
    """Graph-plus-labels text format; round-trips bit-exactly.

    Each block is the ``expander.export_text`` of its Tanner graph followed
    by 'edge_index label' lines.  An LDA block's graph is its skeleton,
    rebuilt from the pair's seed and delta_p; a dense block's graph is its
    nonzero pattern, with multiplicity 1 everywhere.
    """
    lines = [
        "ldapair v1",
        f"n={pair.n} p={pair.p} R={pair.R} Rf={pair.R_f} kind={pair.kind} "
        f"seed={pair.seed} deltap={pair.delta_p or 0} regen={pair.regenerations}",
    ]
    for name, block in (("upper", pair.stack.upper), ("fine", pair.stack.lower)):
        if pair.delta_p is not None:
            graph, = _skeletons(pair.n, block.rows, pair.delta_p, [pair.seed], name)
        else:
            rows, cols = np.nonzero(block.array)
            graph = TannerGraph.from_edges(block.cols, block.rows, list(zip(cols.tolist(), rows.tolist())))
        lines += [f"block {name}", export_text(graph).rstrip("\n"), "labels"]
        lines += [f"{i} {int(block.array[r, l])}" for i, (l, r, _m) in enumerate(graph.edges.tolist())]
    lines.append("end")
    return "\n".join(lines) + "\n"


def pair_from_text(text: str) -> NestedLatticePair:
    """Inverse of :func:`pair_to_text`.  Each block's graph is read by
    ``expander.import_text`` and must be n x (block rows).  Malformed input
    (empty, truncated, a dense header whose deltap is not 0, a graph
    ``import_text`` refuses, of the wrong shape or of a check degree other
    than the header's deltap, an LDA graph that is not the skeleton
    ``build_pair`` draws from the header's n, deltap and seed or whose
    rebuild is refused, an edge index or a label out of range, labels that
    skip, repeat or miss an edge) raises ValueError naming the line.
    Labels list every edge once, in order; ``regen`` is taken as
    recorded."""
    lines = [ln.rstrip() for ln in text.strip().splitlines()]
    i = 0
    try:
        if lines[0] != "ldapair v1":
            raise ValueError("not a pair file")
        i = 1
        head = dict(kv.split("=", 1) for kv in lines[1].split())
        n, p = int(head["n"]), int(head["p"])
        R, R_f = Fraction(head["R"]), Fraction(head["Rf"])
        ell, r = block_heights(n, R, R_f)
        kind, seed = head["kind"], int(head["seed"])
        _check_ensemble(p, kind)
        check_modulus(p, ell + r, n)
        delta_p, regen = int(head["deltap"]), int(head["regen"])
        if kind == "dense" and delta_p != 0:
            raise ValueError(f"a dense pair has deltap = 0, not {delta_p}")
        blocks: dict[str, GfMatrix] = {}
        i = 2
        rows_by_name = {"upper": ell, "fine": r}
        while lines[i] != "end":
            if not lines[i].startswith("block "):
                raise ValueError("expected a block header")
            name = lines[i].split()[1]
            rows = rows_by_name[name]
            i += 1
            first = i
            while lines[i] != "labels":
                i += 1
            # Graph errors are reported at the graph's header line; blank lines
            # in front make import_text number the offending line as the file does.
            labels_at, i = i, first
            graph = import_text("\n" * first + "\n".join(lines[first:labels_at]))
            if (graph.n_left, graph.n_right) != (n, rows):
                raise ValueError(f"graph is {graph.n_left} x {graph.n_right}, block {name} "
                                 f"is {n} x {rows}")
            if graph.delta != delta_p:
                raise ValueError(f"graph check degree {graph.delta} differs from deltap = {delta_p}")
            if kind == "lda" and [graph] != _skeletons(n, rows, delta_p, [seed], name):
                raise ValueError(f"graph is not the {name} skeleton of n = {n}, deltap = {delta_p}, "
                                 f"seed = {seed}")
            i = labels_at + 1
            arr = np.zeros((rows, n), dtype=np.int64)
            edges = graph.edges.tolist()
            labelled = 0
            while lines[i] != "end" and not lines[i].startswith("block "):
                idx, lab = (int(t) for t in lines[i].split())
                if not 0 <= idx < len(edges):
                    raise ValueError(f"edge index {idx} out of range for {len(edges)} edges")
                if idx != labelled:
                    raise ValueError(f"edge index {idx} is not the next edge, {labelled}")
                if not 0 <= lab < p:
                    raise ValueError(f"label {lab} out of range [0, {p})")
                l, c, _m = edges[idx]
                arr[c, l] = lab
                labelled += 1
                i += 1
            if labelled != len(edges):
                raise ValueError(f"labels end after {labelled} of {len(edges)} edges")
            blocks[name] = GfMatrix(arr, p)
        stack = StackedParityCheck(upper=blocks["upper"], lower=blocks["fine"])
    except (BudgetExceededError, IndexError, KeyError, ValueError, ZeroDivisionError) as exc:
        if i >= len(lines):
            raise ValueError(f"bad pair file: truncated after line {len(lines)}") from exc
        raise ValueError(f"bad pair file at line {i + 1}: {type(exc).__name__}: {exc}") from exc
    return _set_up([(stack, seed, regen, delta_p if kind == "lda" else None)])[0]
