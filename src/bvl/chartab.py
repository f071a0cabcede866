"""Exact character tables through the Dixon-Schneider method.

Class-multiplication matrices are split into common eigenspaces over a prime
field F_p with p = 1 (mod exponent), p > 2*sqrt(|G|); eigenvalue data then
lifts to exact cyclotomic character values through the discrete Fourier sum
over power classes.  No floating point enters the construction.

Only the pivot rows of each class matrix are built (Schneider 1990).  The
class matrices commute, so every common eigenspace V of A_1..A_{i-1} is
A_i-invariant.  V is held as a basis B in reduced row echelon form, and a
vector of V is fixed by its coordinates at the pivot columns of B.  So the
action of A_i on V is read off the rows j of A_i with j a pivot of B; the
other rows are never needed and never scanned.

A non-real character chi and its conjugate agree on every real class, so
only the matrix of a non-real class could part them.  Row orthogonality parts
them instead: a space spanned by omega_chi and omega_chibar is split in
closed form as it is created (_split_conjugate_pair), so it never asks for a
class matrix row.  On M12 the split scans 23 class pairs, 11,862 class
elements, where class matrices alone would scan 30 pairs, 28,699 elements.
"""

from __future__ import annotations

import math

from .cyclotomic import Cyclo
from .numtheory import CapacityError, divisors, factorize, is_prime, poly_divmod, poly_mul, poly_trim
from .permgroup import MAX_CLASSES, ClassMap, PermGroup


class TableError(RuntimeError):
    """Internal inconsistency detected while building or using a table."""


# ---------------------------------------------------------------------------
# arithmetic mod p


def _dixon_prime(order: int, exponent: int) -> int:
    root = math.isqrt(order)
    if root * root < order:
        root += 1
    p = max(2 * root + 1, 3)
    p += (exponent - (p - 1) % exponent) % exponent
    for _ in range(100_000):
        if is_prime(p):
            return p
        p += exponent
    raise TableError(f"no Dixon prime found for order {order}, exponent {exponent}")


def _primitive_root(p: int) -> int:
    phi_factors = list(factorize(p - 1))
    for w in range(2, p):
        if all(pow(w, (p - 1) // r, p) != 1 for r in phi_factors):
            return w
    raise TableError(f"no primitive root mod {p}")


# polynomials over F_p: ascending coefficient lists


def _poly_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b != [0]:
        a, b = b, poly_divmod(a, b, p)[1]
    if a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _poly_roots(f: list[int], p: int) -> list[int]:
    """Distinct roots in F_p of a polynomial that splits into linear factors."""
    f = poly_trim(list(f))
    xp_minus_x = _poly_powmod([0, 1], p, f, p)
    xp_minus_x = poly_trim([(c - (1 if i == 1 else 0)) % p for i, c in enumerate(xp_minus_x + [0, 0])])
    g = _poly_gcd(f, xp_minus_x, p)
    roots: list[int] = []
    stack = [g]
    shift = 0
    while stack:
        h = stack.pop()
        if len(h) == 1:
            continue
        if len(h) == 2:
            roots.append(-h[0] * pow(h[1], -1, p) % p)
            continue
        split = None
        while split is None:
            # gcd with (x + shift)^((p-1)/2) - 1 peels off half the roots
            w = _poly_powmod([shift % p, 1], (p - 1) // 2, h, p)
            w = poly_trim([(c - (1 if i == 0 else 0)) % p for i, c in enumerate(w + [0])])
            shift += 1
            d = _poly_gcd(h, w, p)
            if 0 < len(d) - 1 < len(h) - 1:
                split = d
        stack.append(split)
        stack.append(poly_divmod(h, split, p)[0])
    return sorted(roots)


def _charpoly(M: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p via Hessenberg reduction."""
    n = len(M)
    H = [row[:] for row in M]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for row in H:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(H[j + 1][j], -1, p)
        for i in range(j + 2, n):
            if H[i][j]:
                t = H[i][j] * inv % p
                Hj1 = H[j + 1]
                Hi = H[i]
                for k in range(j, n):
                    Hi[k] = (Hi[k] - t * Hj1[k]) % p
                for row in H:
                    row[j + 1] = (row[j + 1] + t * row[i]) % p
    # c_k(x) over leading blocks
    polys = [[1]]
    for k in range(1, n + 1):
        term = [(-H[k - 1][k - 1]) % p, 1]
        ck = poly_mul(term, polys[k - 1], p)
        prod_sub = 1
        for i in range(k - 1, 0, -1):
            prod_sub = prod_sub * H[i][i - 1] % p
            coef = H[i - 1][k - 1] * prod_sub % p
            if coef:  # ck -= coef * c_{i-1}, which has the lower degree
                for t, x in enumerate(polys[i - 1]):
                    ck[t] = (ck[t] - coef * x) % p
        polys.append(ck)
    return polys[n]


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                t = rows[i][c]
                rows[i] = [(x - t * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(M: list[list[int]], p: int) -> list[list[int]]:
    """Row basis of the right nullspace {v : M v = 0}."""
    n = len(M)
    R, pivots = _rref(M, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R[r][fc]) % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# table construction


class CharacterTable:
    """Exact irreducible character table; its columns are the classes of cmap."""

    def __init__(self, *, group_name: str, group_order: int, cmap: ClassMap, conductor: int,
                 prime: int, primitive_root: int, zeta_mod_p: int, degrees: list[int],
                 rows: list[list[Cyclo]]):
        self.group_name = group_name
        self.group_order = group_order
        self.cmap = cmap
        self.conductor = conductor
        self.prime = prime
        self.primitive_root = primitive_root
        self.zeta_mod_p = zeta_mod_p
        self.degrees = degrees
        self.rows = rows

    def to_json_dict(self) -> dict:
        classes = self.cmap.classes
        return {
            "group": self.group_name,
            "order": self.group_order,
            "classes": [c.label for c in classes],
            "class_sizes": [c.size for c in classes],
            "element_orders": [c.element_order for c in classes],
            "conductor": self.conductor,
            "dixon_prime": self.prime,
            "primitive_root": self.primitive_root,
            "zeta_image_mod_p": self.zeta_mod_p,
            "degrees": self.degrees,
            "characters": [[v.to_json_dict() for v in row] for row in self.rows],
        }


def class_matrix(cmap: ClassMap, i: int, rows) -> list[list[int]]:
    """Rows j in rows, in that order, of the matrix A with
    A[j][l] = #{(x, y) in C_i x C_j : x*y = z_l} for a fixed z_l in C_l.

    A[j][l] = T(i, j, l*) / |C_l| from ClassMap.triple_counts, with l* the
    class inverse to C_l; each row costs one scan of the class pair {i, j}.
    character_table asks only for the pivot rows of its unsplit eigenspaces:
    the eigenspaces are A-invariant, and a vector of such a space is fixed by
    its pivot coordinates, so those rows alone give the action of A on it.
    Pass range(k) for the whole matrix.  A T that |C_l| does not divide is
    an internal fault, never floored away.
    """
    classes = cmap.classes
    matrix = []
    for j in rows:
        row = cmap.triple_counts(i, j)
        counts = [row[c.power_row[-1]] for c in classes]
        bad = [c.label for c, t in zip(classes, counts) if t % c.size]
        if bad:
            raise TableError(f"class matrix of {classes[i].label}, row {classes[j].label}: "
                             f"T is not a multiple of |C_l| for l in {bad}")
        matrix.append([t // c.size for c, t in zip(classes, counts)])
    return matrix


def _split_conjugate_pair(space, inverse_map: list[int], size_inv: list[int], p: int):
    """[space], or the lines of omega_chi and omega_chibar when space is their span.

    P, v -> (v[l*]), is complex conjugation on central-character vectors: it
    maps omega_chi to omega_chibar, as |C_l*| = |C_l|.  A 2-dimensional
    common eigenspace that P maps onto itself, not as the identity, is
    span(omega_chi, omega_chibar) for a non-real chi.  Its basis row b has
    b[1a] = 1, so a = (b + Pb)/2 = (omega_chi + omega_chibar)/2, and
    d = b - Pb (or the other row's difference, if that one is zero) is
    mu * (omega_chi - omega_chibar) with mu != 0.  With
    q(v) = sum over l of v(l)^2 / |C_l|, the two lines are a +- lambda*d for
    the two roots of q(d) lambda^2 + q(a) = 0, that is lambda = +-1/(2 mu):
      - q(omega_chi) = |G|/chi(1)^2 * sum |C_l| chi(l)^2 / |G| = 0 by row
        orthogonality, as chi and chibar differ; q(omega_chibar) = 0 too;
      - so the cross term sum a(l) d(l) / |C_l| = mu/2 (q(omega_chi) -
        q(omega_chibar)) vanishes;
      - q(a) = |G| / (2 chi(1)^2) and q(d) = -2 mu^2 |G| / chi(1)^2, which is
        nonzero mod p, since p = 1 (mod exponent) cannot divide |G|.
    Any root count but two is an internal fault.
    """
    B, _ = space
    if len(B) != 2:
        return [space]
    PB = [[b[l] for l in inverse_map] for b in B]
    if PB == B or len(_rref(B + PB, p)[0]) != 2:
        return [space]
    half = pow(2, -1, p)
    (b, c), (Pb, Pc) = B, PB
    a = [(x + y) * half % p for x, y in zip(b, Pb)]
    d = [(x - y) % p for x, y in zip(b, Pb)]
    if not any(d):
        d = [(x - y) % p for x, y in zip(c, Pc)]
    qa = sum(x * x * s for x, s in zip(a, size_inv)) % p
    qd = sum(x * x * s for x, s in zip(d, size_inv)) % p
    roots = _poly_roots([qa, 0, qd], p) if qd else []
    if len(roots) != 2:
        raise TableError(f"conjugate pair split needs 2 roots of its quadratic, found {len(roots)}")
    # omega(1a) = 1: a[1a] = 1 and d[1a] = 0, so each line is already normalised
    return [([[(x + lam * y) % p for x, y in zip(a, d)]], [0]) for lam in roots]


def character_table(G: PermGroup) -> CharacterTable:
    """Exact irreducible character table of G (Dixon-Schneider).

    The class matrices split the common eigenspaces in ascending |C| / o(C),
    the cheapest first: a step costs one scan of min(|C_i|, |C_j|) elements
    per pivot row j, and a class of high element order tends to split more,
    since its central-character values lie in Q(zeta_o).  The order cannot
    change the table: the matrices of all classes split the class algebra in
    any order, and the characters are sorted canonically at the end.

    Each space is checked as it is created: one that is span(omega_chi,
    omega_chibar) for a non-real chi is split at once by row orthogonality
    (_split_conjugate_pair, which holds the proof), so it adds no pivot rows
    to a later step and never reaches the final check unsplit.  On M12 the
    split scans 11,862 class elements in 23 class-pair scans (14,503 in
    class-index order); class matrices alone would scan 28,699 in 30.
    """
    cmap = G.conjugacy_data()
    classes = cmap.classes
    k = len(classes)
    if k > MAX_CLASSES:
        raise CapacityError(f"character table needs <= {MAX_CLASSES} classes, got {k}")

    exponent = cmap.exponent
    p = _dixon_prime(G.order, exponent)
    w = _primitive_root(p)
    z = pow(w, (p - 1) // exponent, p)

    size_inv = [pow(c.size, -1, p) for c in classes]
    inverse_map = [c.power_row[-1] for c in classes]

    # split the common eigenspaces of the class-multiplication matrices
    spaces = _split_conjugate_pair(
        ([[1 if i == j else 0 for j in range(k)] for i in range(k)], list(range(k))),
        inverse_map, size_inv, p,
    )
    # |C| * exponent / o(C) is an exact integer; sorted is stable, so ties keep index order.
    # Class 1a is left out: its matrix is the identity, which splits nothing.
    split_order = sorted(
        range(1, k), key=lambda i: classes[i].size * exponent // classes[i].element_order
    )
    for i in split_order:
        if all(len(B) == 1 for B, _ in spaces):
            break
        need = sorted({j for B, piv in spaces if len(B) > 1 for j in piv})
        A = dict(zip(need, class_matrix(cmap, i, need)))
        new_spaces: list[tuple[list[list[int]], list[int]]] = []
        for B, piv in spaces:
            d = len(B)
            if d == 1:
                new_spaces.append((B, piv))
                continue
            # R[r][s]: pivot coordinate piv[s] of A * B[r]
            R = [
                [sum(A[j][l] * b[l] for l in range(k)) % p for j in piv] for b in B
            ]
            # transpose: eigen-coordinates act through R^T on coefficient vectors
            Rt = [[R[s][r] for s in range(d)] for r in range(d)]
            roots = _poly_roots(_charpoly(Rt, p), p)
            if len(roots) == 1:
                new_spaces.append((B, piv))
                continue
            for lam in roots:
                shifted = [
                    [(Rt[r][s] - (lam if r == s else 0)) % p for s in range(d)]
                    for r in range(d)
                ]
                lifted_rows = [
                    [sum(w_vec[r] * B[r][c] for r in range(d)) % p for c in range(k)]
                    for w_vec in _nullspace(shifted, p)
                ]
                new_spaces.extend(
                    _split_conjugate_pair(_rref(lifted_rows, p), inverse_map, size_inv, p)
                )
        spaces = new_spaces
    if not all(len(B) == 1 for B, _ in spaces) or len(spaces) != k:
        raise TableError("class matrices failed to split the class algebra")

    # eigenvector coordinates are the central character values omega mod p
    columns = []
    for B, _ in spaces:
        v = B[0]
        v0_inv = pow(v[0], -1, p)
        columns.append([x * v0_inv % p for x in v])

    # chi(1)^2 = |G|/s mod p.  chi(1) divides |G| and chi(1)^2 <= |G| < (p/2)^2,
    # so two such divisors with equal squares mod p are equal (d = +-d' mod p
    # and both lie below p/2): the square picks chi(1) out of the divisors.
    degree_of_square = {d * d % p: d for d in divisors(G.order) if d * d <= G.order}
    table_mod_p = []
    degrees = []
    for u in columns:
        s = sum(u[l] * u[inverse_map[l]] * size_inv[l] for l in range(k)) % p
        d = degree_of_square.get(G.order * pow(s, -1, p) % p)
        if d is None:
            raise TableError("degree reconstruction failed (no divisor of |G| fits)")
        degrees.append(d)
        table_mod_p.append([d * u[l] * size_inv[l] % p for l in range(k)])
    if sum(d * d for d in degrees) != G.order:
        raise TableError("degree reconstruction failed (sum of squares mismatch)")

    # lift to exact cyclotomic values through the power-class Fourier sum;
    # lam_inv_pows[l][t] = lambda^-t for lambda = z^(exponent / o(C_l)), of order o(C_l)
    power_rows = [c.power_row for c in classes]
    lam_inv_pows, m_invs = [], []
    for c in classes:
        m = c.element_order
        lam_inv = pow(z, -(exponent // m), p)
        pows = [1] * m
        for t in range(1, m):
            pows[t] = pows[t - 1] * lam_inv % p
        lam_inv_pows.append(pows)
        m_invs.append(pow(m, -1, p))
    rows_exact: list[list[Cyclo]] = []
    for chi_idx in range(k):
        tvals = table_mod_p[chi_idx]
        row: list[Cyclo] = []
        for l in range(k):
            m, inv_pows = classes[l].element_order, lam_inv_pows[l]
            vals = [tvals[j] for j in power_rows[l]]
            coeffs = {}
            for r in range(m):
                mu = sum(v * inv_pows[r * s % m] for s, v in enumerate(vals))
                mu = mu * m_invs[l] % p
                if mu > degrees[chi_idx]:
                    raise TableError(
                        f"character lift out of range (class {classes[l].label})"
                    )
                if mu:
                    coeffs[r * (exponent // m) % exponent] = mu
            row.append(Cyclo(exponent, coeffs))
        rows_exact.append(row)

    order_key = sorted(
        range(k), key=lambda i: (degrees[i], [v.sort_key() for v in rows_exact[i]])
    )
    degrees = [degrees[i] for i in order_key]
    rows_exact = [rows_exact[i] for i in order_key]

    return CharacterTable(
        group_name=G.name or f"degree-{G.degree} group",
        group_order=G.order,
        cmap=cmap,
        conductor=exponent,
        prime=p,
        primitive_root=w,
        zeta_mod_p=z,
        degrees=degrees,
        rows=rows_exact,
    )


# ---------------------------------------------------------------------------
# verification


def verify_orthogonality(T: CharacterTable) -> bool:
    """Both orthogonality relations, checked exactly in cyclotomic arithmetic:
    sum over l of |C_l| chi_i(l) conj(chi_j(l)) = |G| [i = j] for the rows, and
    sum over chi of chi(a) conj(chi(b)) = |G| / |C_a| [a = b] for the columns."""
    sizes = [c.size for c in T.cmap.classes]
    k = len(sizes)
    order, rows, conj = T.group_order, T.rows, [[v.conj() for v in row] for row in T.rows]
    if not all(Cyclo.dot(sizes, rows[i], conj[j]) == (order if i == j else 0)
               for i in range(k) for j in range(i, k)):
        return False
    ones, columns, conj_columns = [1] * k, list(zip(*rows)), list(zip(*conj))
    return all(Cyclo.dot(ones, columns[a], conj_columns[b]) == (order // sizes[a] if a == b else 0)
               for a in range(k) for b in range(a, k))
