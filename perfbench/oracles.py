"""Output checks written apart from the program.

Everything here is recomputed from first principles: GF(p) elimination,
products mod p, closest-point scans over code cosets, the Wilson score
interval and Tanner-graph neighbourhoods.  Nothing compares against a
stored copy of the program's output, and nothing calls the program's own
arithmetic (``GfMatrix.mul_vec``, ``rank``, ``ConstructionALattice``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def mul_mod(A: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """A x mod p with plain integer arithmetic, reduced to {0..p-1}."""
    return (np.asarray(A, dtype=np.int64) @ np.asarray(x, dtype=np.int64)) % p


def rref_mod(A: np.ndarray, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p) on Python ints; (rows, pivots)."""
    m = [[int(v) % p for v in row] for row in np.asarray(A)]
    rows, cols = len(m), (len(m[0]) if m else 0)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank_mod(A: np.ndarray, p: int) -> int:
    return len(rref_mod(A, p)[1])


def code_basis(H: np.ndarray, p: int) -> np.ndarray:
    """A basis of {c : H c = 0 mod p}, checked against H itself.

    The rows must be annihilated by H, be independent, and number
    n - rank(H), so they span the whole code.
    """
    H = np.asarray(H, dtype=np.int64)
    n = H.shape[1]
    red, pivots = rref_mod(H, p)
    free = [c for c in range(n) if c not in pivots]
    G = np.zeros((len(free), n), dtype=np.int64)
    for i, fc in enumerate(free):
        G[i, fc] = 1
        for row, pc in enumerate(pivots):
            G[i, pc] = (-red[row][fc]) % p
    if G.size and np.any((H @ G.T) % p):
        raise AssertionError("code basis is not annihilated by H")
    if rank_mod(G, p) != len(free) or len(free) != n - rank_mod(H, p):
        raise AssertionError("code basis does not span the code")
    return G


def all_codewords(G: np.ndarray, p: int) -> np.ndarray:
    """Every codeword spanned by the rows of G, as an int64 table."""
    k, n = G.shape
    if k == 0:
        return np.zeros((1, n), dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
    return (coeffs @ G) % p


def closest_point_scan(codewords: np.ndarray, p: int, y: np.ndarray) -> np.ndarray:
    """Closest point of the lattice C + pZ^n to y over all cosets c + pZ^n,
    with the lexicographic tie rule.

    Within a coset the nearest point is coordinate-wise; at an exact half
    step the smaller coordinate is taken, which is the lex-smaller of the
    equidistant choices.  Across cosets every point at the minimum distance
    is collected and the lex-min returned.
    """
    y = np.asarray(y, dtype=float)
    C = codewords
    Z = C + p * np.ceil((y - C) / p - 0.5).astype(np.int64)
    d2 = ((y - Z) ** 2).sum(axis=1)
    ties = Z[d2 == d2.min()]
    return min(ties.tolist())


def in_voronoi_region(x: np.ndarray, codewords: np.ndarray, p: int) -> bool:
    """No point of C + pZ^n is strictly closer to the integer point x than 0.

    Exact integer arithmetic: for each coset the nearest point to x is
    taken per coordinate, and its squared distance compared with |x|^2.
    """
    x = np.asarray(x, dtype=np.int64)
    diff = x - codewords
    Z = codewords + p * ((2 * diff + p) // (2 * p))
    d2 = ((x - Z) ** 2).sum(axis=1)
    return int(d2.min()) >= int(x @ x)


def min_weight_by_enumeration(H: np.ndarray, p: int) -> int | None:
    """Least Hamming weight of a nonzero codeword, from the whole code."""
    words = all_codewords(code_basis(H, p), p)
    weights = np.count_nonzero(words, axis=1)
    weights = weights[weights > 0]
    return int(weights.min()) if weights.size else None


def wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


CSV_COLUMNS = ["snr_db", "n", "p", "R", "Rf", "kind", "decoder", "trials", "symbol_errors",
               "word_errors", "ser", "wer", "wilson_lo", "wilson_hi", "seed"]


def check_csv(text: str, cfg: dict, ell: int) -> list[str]:
    """Recompute SER, WER and the Wilson interval of every row from its
    counts; check the row's identity columns against the config and that WER
    does not rise along the grid beyond the Wilson intervals."""
    problems: list[str] = []
    lines = text.strip().splitlines()
    if lines[0].split(",") != CSV_COLUMNS:
        return [f"unexpected CSV header {lines[0]!r}"]
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    if [float(r["snr_db"]) for r in rows] != cfg["snr_db"]:
        problems.append("CSV grid differs from the config grid")
    for r in rows:
        ident = (int(r["n"]), int(r["p"]), r["R"], r["Rf"], r["kind"], r["decoder"],
                 int(r["trials"]), int(r["seed"]))
        want = (cfg["n"], cfg["p"], cfg["R"], cfg["Rf"], cfg["kind"], cfg["decoder"],
                cfg["trials"], cfg["seed"])
        if ident != want:
            problems.append(f"row identity {ident} != config {want}")
        t, se, we = int(r["trials"]), int(r["symbol_errors"]), int(r["word_errors"])
        if not (0 <= we <= t and we <= se <= t * ell and (se == 0) == (we == 0)):
            problems.append(f"inconsistent counts {se} symbol / {we} word errors of {t}")
        lo, hi = wilson(we, t)
        for col, want_v in (("ser", se / (t * ell)), ("wer", we / t), ("wilson_lo", lo),
                            ("wilson_hi", hi)):
            if not math.isclose(float(r[col]), want_v, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"{col} {r[col]} != recomputed {want_v!r} at {r['snr_db']} dB")
    for a, b in zip(rows, rows[1:]):
        if float(b["wer"]) > float(a["wer"]) and float(b["wilson_lo"]) > float(a["wilson_hi"]):
            problems.append(f"WER rises beyond the Wilson intervals from {a['snr_db']} "
                            f"to {b['snr_db']} dB")
    return problems


def neighbourhood_size(edges, subset, side: str) -> int:
    """|N(S)| counted directly from the (left, right, multiplicity) edges."""
    members = set(subset)
    if side == "left":
        return len({r for l, r, _m in edges if l in members})
    return len({l for l, r, _m in edges if r in members})


def witness_violates(graph, subset, side: str, D: float) -> bool:
    """A falsifier witness is genuine: within the size bound n/(D+1) of its
    side and with |N(S)| below the required D-expansion."""
    f = graph.n_right / graph.n_left
    n_side = graph.n_left if side == "left" else graph.n_right
    need = f * D * len(subset) if side == "left" else D * len(subset) / f
    return (0 < len(subset) <= n_side / (D + 1)
            and neighbourhood_size(graph.edges, subset, side) < need)
