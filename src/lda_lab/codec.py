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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .channel import effective_noise_variance, wiener
from .expander import BudgetExceededError, TannerGraph, build_graph
from .fieldcore import is_prime
from .gfmatrix import GfMatrix, StackedParityCheck, rank, solve
from .lattice import DEFAULT_QUANTIZER_BUDGET, ConstructionALattice

MAX_RANK_ATTEMPTS = 64


@dataclass(frozen=True)
class LdaInfo:
    delta_p: int
    fine_graph: TannerGraph
    upper_graph: TannerGraph


@dataclass(frozen=True)
class NestedLatticePair:
    n: int
    p: int
    R: Fraction
    R_f: Fraction
    kind: str  # "dense" | "lda"
    seed: int
    stack: StackedParityCheck
    shaping: ConstructionALattice
    fine: ConstructionALattice
    regenerations: int
    lda: LdaInfo | None = None

    @property
    def ell(self) -> int:
        return self.stack.ell

    @property
    def codebook_size(self) -> int:
        """M = p^(n(R_f - R)) for full-rank stacks."""
        return self.p**self.ell

    def syndrome(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H' x, H_f x) mod p."""
        return self.stack.upper.mul_vec(x), self.stack.lower.mul_vec(x)


def _dense_blocks(n: int, p: int, ell: int, r: int, seed: int, attempt: int):
    gen = rng.generator(seed, "dense-H", attempt)
    upper = GfMatrix.random(ell, n, p, gen)
    lower = GfMatrix.random(r, n, p, gen)
    return upper, lower


def _label_graph(graph: TannerGraph, rows: int, n: int, p: int, seed: int, tag: str, attempt: int) -> GfMatrix:
    """Put i.i.d. uniform GF(p) labels on the merged edges, in the fixed
    lexicographic edge order."""
    gen = rng.generator(seed, "labels", tag, attempt)
    labels = gen.integers(0, p, size=len(graph.edges), dtype=np.int64)
    H = np.zeros((rows, n), dtype=np.int64)
    for (l, r, _m), lab in zip(graph.edges, labels):
        H[r, l] = lab
    return GfMatrix(H, p)


def build_pair(
    n: int,
    p: int,
    R: Fraction | str,
    R_f: Fraction | str,
    kind: str = "dense",
    seed: int = 0,
    delta_p: int | None = None,
) -> NestedLatticePair:
    """Draw one nested pair from the dense or LDA ensemble.

    Dense: every entry of the (ell + r) x n stack is uniform over GF(p).
    LDA: two permutation-model skeleton graphs (fixed by the seed) carry
    uniform labels; the fine block has check degree delta_p and variable
    degree delta_p(1 - R_f), the message block check degree delta_p and
    variable degree delta_p(R_f - R).

    Rank deficiency is repaired by redrawing entries/labels with a new
    seed offset; the number of redraws is recorded on the pair.
    """
    R = Fraction(R)
    R_f = Fraction(R_f)
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    ell_frac, r_frac = n * (R_f - R), n * (1 - R_f)
    if ell_frac.denominator != 1 or r_frac.denominator != 1 or (n * R).denominator != 1:
        raise ValueError(f"rates {R}, {R_f} do not divide n = {n}")
    ell, r = int(ell_frac), int(r_frac)
    if kind == "lda":
        if delta_p is None:
            raise ValueError("LDA pairs need delta_p")
        if (delta_p * (1 - R_f)).denominator != 1 or (delta_p * (R_f - R)).denominator != 1:
            raise ValueError(f"delta_p = {delta_p} gives non-integer variable degrees")
        fine_graph = build_graph(n, Fraction(r, n), delta_p, rng.derive_key(seed, "skeleton-fine"))
        upper_graph = build_graph(n, Fraction(ell, n), delta_p, rng.derive_key(seed, "skeleton-upper"))
    elif kind != "dense":
        raise ValueError(f"unknown ensemble kind {kind!r}")

    full_rank = ell + r
    for attempt in range(MAX_RANK_ATTEMPTS):
        if kind == "dense":
            upper, lower = _dense_blocks(n, p, ell, r, seed, attempt)
        else:
            upper = _label_graph(upper_graph, ell, n, p, seed, "upper", attempt)
            lower = _label_graph(fine_graph, r, n, p, seed, "fine", attempt)
        stack = StackedParityCheck(upper=upper, lower=lower, n=n, R=R, R_f=R_f)
        if rank(stack.full) == full_rank:
            return NestedLatticePair(
                n=n,
                p=p,
                R=R,
                R_f=R_f,
                kind=kind,
                seed=seed,
                stack=stack,
                shaping=ConstructionALattice(stack.full),
                fine=ConstructionALattice(stack.lower),
                regenerations=attempt,
                lda=LdaInfo(delta_p, fine_graph, upper_graph) if kind == "lda" else None,
            )
    raise RuntimeError(f"no full-rank draw after {MAX_RANK_ATTEMPTS} attempts (seed {seed})")


# ---------------------------------------------------------------------------
# Encoding


@dataclass(frozen=True)
class EncodeResult:
    point: np.ndarray
    approximate_shaping: bool


def encode(
    pair: NestedLatticePair,
    message: np.ndarray,
    budget: int = DEFAULT_QUANTIZER_BUDGET,
    bp_shaping: bool = False,
) -> EncodeResult:
    """Map a message to its constellation point: the unique fine-lattice
    point with stacked syndrome (m | 0) lying in the shaping Voronoi region.

    Solves H x^T = (m | 0)^T for a particular integer point and subtracts
    Q(x) in the shaping lattice.  When the exact shaping quantizer exceeds
    its budget and bp_shaping is set, iterative quantization is used and
    the result flagged approximate.  The output's syndrome is re-verified
    before returning.
    """
    message = np.asarray(message, dtype=np.int64) % pair.p
    if message.shape != (pair.ell,):
        raise ValueError(f"message must have length {pair.ell}")
    target = np.concatenate([message, np.zeros(pair.stack.r, dtype=np.int64)])
    x = solve(pair.stack.full, target)
    approximate = False
    try:
        nearest = pair.shaping.quantize(x.astype(float), budget=budget)
    except BudgetExceededError:
        if not bp_shaping:
            raise
        nearest = _bp_quantize(pair, x.astype(float))
        approximate = True
    point = x - nearest
    up, low = pair.syndrome(point)
    if not (np.array_equal(up, message) and not low.any()):
        raise AssertionError("encoded point fails its own syndrome check")
    return EncodeResult(point=point, approximate_shaping=approximate)


def extract_message(pair: NestedLatticePair, x: np.ndarray) -> np.ndarray:
    """phi: x -> H' x^T mod p."""
    return pair.stack.upper.mul_vec(np.asarray(x, dtype=np.int64))


# ---------------------------------------------------------------------------
# Decoding


def _channel_output(y: np.ndarray) -> np.ndarray:
    """y as a float vector; NaN or infinite samples are refused."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("channel output has non-finite samples")
    return y


def mmse_decode_exact(
    pair: NestedLatticePair,
    y: np.ndarray,
    P: float,
    sigma2: float,
    alpha: float | None = None,
    budget: int = DEFAULT_QUANTIZER_BUDGET,
) -> np.ndarray:
    """Scale by the Wiener coefficient, quantize in the fine lattice, and
    read the message: H' Q(alpha y) mod p.

    ``alpha`` overrides the MMSE coefficient (alpha = 1 disables scaling,
    for comparison experiments).
    """
    y = _channel_output(y)
    a = wiener(P, sigma2) if alpha is None else alpha
    x_hat = pair.fine.quantize(a * y, budget=budget)
    return extract_message(pair, x_hat)


@dataclass(frozen=True)
class BpResult:
    message: np.ndarray
    point: np.ndarray
    verified: bool
    iterations: int


def _check_rows(H: GfMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sparse row view: (support indices, coefficients) per check."""
    rows = []
    for i in range(H.rows):
        sup = np.nonzero(H.array[i])[0]
        rows.append((sup, H.array[i, sup]))
    return rows


def _channel_priors(z: np.ndarray, p: int, noise_var: float) -> np.ndarray:
    """Per-coordinate posteriors over residues a mod p, folding the Gaussian
    density over a +/- 3-period window of representatives around z_i."""
    n = len(z)
    res = np.arange(p, dtype=np.int64)
    base = res[None, :] + p * np.rint((z[:, None] - res[None, :]) / p)
    shifts = p * np.arange(-3, 4)
    reps = base[:, :, None] + shifts[None, None, :]
    logd = -((z[:, None, None] - reps) ** 2) / (2.0 * noise_var)
    logd -= logd.max(axis=(1, 2), keepdims=True)
    pri = np.exp(logd).sum(axis=2)
    pri /= pri.sum(axis=1, keepdims=True)
    return pri  # shape (n, p)


def _sum_product_point(
    H: GfMatrix, z: np.ndarray, noise_var: float, iters: int, damping: float
) -> tuple[np.ndarray, bool, int]:
    """Flooding-schedule non-binary sum-product toward H x = 0 near z.

    Returns the hard-decision integer point (each symbol re-lifted to the
    representative of its residue class nearest z_i), whether it satisfies
    the parity check, and the number of iterations used.
    """
    if iters < 1:
        raise ValueError("need at least one iteration")
    p = H.p
    n = H.cols
    priors = _channel_priors(z, p, noise_var)
    checks = _check_rows(H)
    # Indices for circular (anti-)convolution over Z_p.
    idx_sub = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p

    # Messages keyed by (check index, position within the check's support).
    var_to_check = {}
    for ci, (sup, _) in enumerate(checks):
        for k, v in enumerate(sup):
            var_to_check[(ci, k)] = priors[v].copy()

    point = None
    used_iters = 0
    for it in range(1, iters + 1):
        used_iters = it
        check_to_var = {}
        for ci, (sup, coeffs) in enumerate(checks):
            outgoing = _check_node_messages(
                coeffs, [var_to_check[(ci, k)] for k in range(len(sup))], p, idx_sub
            )
            for k, msg in enumerate(outgoing):
                check_to_var[(ci, k)] = msg

        # Variable-node update and posterior.
        incoming: list[list[np.ndarray]] = [[] for _ in range(n)]
        for ci, (sup, _) in enumerate(checks):
            for k, v in enumerate(sup):
                incoming[v].append(check_to_var[(ci, k)])
        log_post = np.log(np.maximum(priors, 1e-300)).copy()
        for v in range(n):
            for msg in incoming[v]:
                log_post[v] += np.log(np.maximum(msg, 1e-300))
        hard = log_post.argmax(axis=1).astype(np.int64)
        point = hard + p * np.rint((z - hard) / p).astype(np.int64)
        if not H.mul_vec(point).any():
            break

        new_var_to_check = {}
        for ci, (sup, _) in enumerate(checks):
            for k, v in enumerate(sup):
                ext = log_post[v] - np.log(np.maximum(check_to_var[(ci, k)], 1e-300))
                ext -= ext.max()
                msg = np.exp(ext)
                msg /= msg.sum()
                if damping > 0.0:
                    msg = (1 - damping) * msg + damping * var_to_check[(ci, k)]
                new_var_to_check[(ci, k)] = msg
        var_to_check = new_var_to_check

    verified = not H.mul_vec(point).any()
    return point, verified, used_iters


def bp_decode(
    pair: NestedLatticePair,
    y: np.ndarray,
    P: float,
    sigma2: float,
    iters: int = 200,
    damping: float = 0.0,
    alpha: float | None = None,
) -> BpResult:
    """Non-binary sum-product on the fine Tanner graph of an LDA pair.

    Channel priors fold the Gaussian density of alpha*y over each residue
    class within a +/- 3-period window; check-node convolutions over GF(p)
    run directly in O(p^2) per message.  Non-convergence is flagged
    ``unverified`` (best-effort decision) rather than raised.
    """
    if pair.kind != "lda":
        raise ValueError("bp_decode requires an LDA pair")
    y = _channel_output(y)
    a = wiener(P, sigma2) if alpha is None else alpha
    z = a * y
    noise_var = max(effective_noise_variance(P, sigma2), 1e-12)
    point, verified, used_iters = _sum_product_point(
        pair.stack.lower, z, noise_var, iters, damping
    )
    return BpResult(
        message=extract_message(pair, point),
        point=point,
        verified=verified,
        iterations=used_iters,
    )


def _zp_convolve(a: np.ndarray, b: np.ndarray, idx_sub: np.ndarray) -> np.ndarray:
    """(a * b)[t] = sum_s a[s] b[(t - s) mod p]."""
    return b[idx_sub] @ a


def _check_node_messages(
    coeffs: np.ndarray, incoming: list[np.ndarray], p: int, idx_sub: np.ndarray
) -> list[np.ndarray]:
    """Outgoing sum-product messages of one check sum_j h_j x_j = 0 mod p.

    Incoming beliefs are mapped to the y_j = h_j x_j domain, convolved with
    forward/backward partial products (O(d p^2) per check), evaluated at
    -y_j, and mapped back through x_j = y_j / h_j.
    """
    d = len(incoming)
    scaled = []
    for k in range(d):
        inv = pow(int(coeffs[k]), p - 2, p)
        perm = (np.arange(p) * inv) % p  # q[b] = m[b / h] on index level
        scaled.append(incoming[k][perm])
    unit = np.zeros(p)
    unit[0] = 1.0
    fwd = [unit]
    for k in range(d):
        fwd.append(_zp_convolve(fwd[k], scaled[k], idx_sub))
    bwd = [unit] * (d + 1)
    for k in range(d - 1, -1, -1):
        bwd[k] = _zp_convolve(bwd[k + 1], scaled[k], idx_sub)
    out = []
    for k in range(d):
        conv = _zp_convolve(fwd[k], bwd[k + 1], idx_sub)
        back = (np.arange(p) * int(coeffs[k])) % p
        msg = conv[(-back) % p]
        s = msg.sum()
        out.append(msg / s if s > 0 else np.full(p, 1.0 / p))
    return out


def _bp_quantize(pair: NestedLatticePair, x: np.ndarray) -> np.ndarray:
    """Iterative stand-in for the shaping quantizer on the full stack.

    Runs the same sum-product machinery against the whole stack with a
    pseudo-noise level of a fraction of a period, then forces membership:
    any residual syndrome defect is cancelled by a particular solution and
    the result is re-centered period-wise around x.  Only used when exact
    shaping is over budget; always flagged approximate by the caller.
    """
    p = pair.p
    H = pair.stack.full
    est, _verified, _ = _sum_product_point(H, x, noise_var=(p / 4.0) ** 2, iters=50, damping=0.0)
    defect = H.mul_vec(est)
    if defect.any():
        est = est - solve(H, defect)
    # pZ^n shifts stay inside the lattice; bring the error into half-periods.
    est = est + p * np.rint((x - est) / p).astype(np.int64)
    return est


def build_fine_lattice(
    n: int, p: int, R_f: Fraction | str, delta_p: int, seed: int = 0
) -> tuple[ConstructionALattice, TannerGraph]:
    """A single LDA fine lattice (no shaping stack): the labeled
    permutation-model code with check degree delta_p and variable degree
    delta_p(1 - R_f).  The raw draw is kept, rank-deficient or not."""
    R_f = Fraction(R_f)
    r = n * (1 - R_f)
    if r.denominator != 1 or (delta_p * (1 - R_f)).denominator != 1:
        raise ValueError("R_f and delta_p must give integral row counts and degrees")
    graph = build_graph(n, Fraction(int(r), n), delta_p, rng.derive_key(seed, "skeleton-fine"))
    H = _label_graph(graph, int(r), n, p, seed, "fine", attempt=0)
    return ConstructionALattice(H), graph


# ---------------------------------------------------------------------------
# Independent codebook oracle


def voronoi_codebook_bruteforce(pair: NestedLatticePair, budget: int = 10_000_000) -> set[tuple[int, ...]]:
    """The Voronoi codebook Lambda_f ∩ V(Lambda), one minimal-norm coset
    representative per message, computed through the enumeration CVP oracle
    rather than the codeword-table quantizer."""
    book: set[tuple[int, ...]] = set()
    for m_index in range(pair.codebook_size):
        message = _index_to_message(m_index, pair.p, pair.ell)
        target = np.concatenate([message, np.zeros(pair.stack.r, dtype=np.int64)])
        x = solve(pair.stack.full, target)
        rep = x - pair.shaping.closest_point_bruteforce(x.astype(float), budget=budget)
        book.add(tuple(int(v) for v in rep))
    return book


def _index_to_message(index: int, p: int, ell: int) -> np.ndarray:
    digits = np.zeros(ell, dtype=np.int64)
    for k in range(ell):
        digits[k] = index % p
        index //= p
    return digits


def all_messages(pair: NestedLatticePair):
    for m_index in range(pair.codebook_size):
        yield _index_to_message(m_index, pair.p, pair.ell)


# ---------------------------------------------------------------------------
# Serialization


def pair_to_text(pair: NestedLatticePair) -> str:
    """Graph-plus-labels text format; round-trips bit-exactly.

    Each block lists the nonzero pattern of one submatrix as sorted
    'left right multiplicity' lines followed by 'edge_index label' lines.
    Dense pairs use the same container with multiplicity 1 everywhere.
    """
    lines = [
        "ldapair v1",
        f"n={pair.n} p={pair.p} R={pair.R} Rf={pair.R_f} kind={pair.kind} "
        f"seed={pair.seed} deltap={pair.lda.delta_p if pair.lda else 0} "
        f"regen={pair.regenerations}",
    ]
    for name, block, graph in (
        ("upper", pair.stack.upper, pair.lda.upper_graph if pair.lda else None),
        ("fine", pair.stack.lower, pair.lda.fine_graph if pair.lda else None),
    ):
        if graph is None:
            cells = [(int(c), int(r), 1) for r, c in zip(*np.nonzero(block.array))]
            cells.sort()
            header = f"{block.cols} {block.rows} 0 0"
        else:
            cells = list(graph.edges)
            header = f"{graph.n_left} {graph.n_right} {graph.delta} {graph.seed}"
        lines.append(f"block {name}")
        lines.append(header)
        lines += [f"{l} {r} {m}" for l, r, m in cells]
        lines.append("labels")
        lines += [f"{i} {int(block.array[r, l])}" for i, (l, r, _m) in enumerate(cells)]
    lines.append("end")
    return "\n".join(lines) + "\n"


def pair_from_text(text: str) -> NestedLatticePair:
    """Inverse of :func:`pair_to_text`.  Malformed input (empty, truncated,
    an out-of-range edge or edge index) raises ValueError naming the line."""
    lines = [ln.rstrip() for ln in text.strip().splitlines()]
    i = 0
    try:
        if lines[0] != "ldapair v1":
            raise ValueError("not a pair file")
        i = 1
        head = dict(kv.split("=", 1) for kv in lines[1].split())
        n, p = int(head["n"]), int(head["p"])
        R, R_f = Fraction(head["R"]), Fraction(head["Rf"])
        kind, seed = head["kind"], int(head["seed"])
        delta_p, regen = int(head["deltap"]), int(head["regen"])
        blocks: dict[str, tuple[GfMatrix, TannerGraph | None]] = {}
        i = 2
        rows_by_name = {"upper": int(n * (R_f - R)), "fine": int(n * (1 - R_f))}
        while lines[i] != "end":
            if not lines[i].startswith("block "):
                raise ValueError("expected a block header")
            name = lines[i].split()[1]
            rows = rows_by_name[name]
            i += 1
            n_left, n_right, delta, gseed = (int(t) for t in lines[i].split())
            i += 1
            cells = []
            while lines[i] != "labels":
                l, r, m = (int(t) for t in lines[i].split())
                if not (0 <= l < n and 0 <= r < rows):
                    raise ValueError(f"edge ({l}, {r}) out of range")
                cells.append((l, r, m))
                i += 1
            i += 1
            arr = np.zeros((rows, n), dtype=np.int64)
            while lines[i] != "end" and not lines[i].startswith("block "):
                idx, lab = (int(t) for t in lines[i].split())
                if not 0 <= idx < len(cells):
                    raise ValueError(f"edge index {idx} out of range for {len(cells)} edges")
                l, r, _m = cells[idx]
                arr[r, l] = lab
                i += 1
            graph = None
            if kind == "lda":
                graph = TannerGraph(n_left, n_right, delta, gseed, tuple(sorted(cells)))
            blocks[name] = (GfMatrix(arr, p), graph)
        stack = StackedParityCheck(upper=blocks["upper"][0], lower=blocks["fine"][0], n=n, R=R, R_f=R_f)
    except (IndexError, KeyError, ValueError) as exc:
        if i >= len(lines):
            raise ValueError(f"bad pair file: truncated after line {len(lines)}") from exc
        raise ValueError(f"bad pair file at line {i + 1}: {type(exc).__name__}: {exc}") from exc
    lda = None
    if kind == "lda":
        lda = LdaInfo(delta_p, blocks["fine"][1], blocks["upper"][1])
    return NestedLatticePair(
        n=n,
        p=p,
        R=R,
        R_f=R_f,
        kind=kind,
        seed=seed,
        stack=stack,
        shaping=ConstructionALattice(stack.full),
        fine=ConstructionALattice(stack.lower),
        regenerations=regen,
        lda=lda,
    )
