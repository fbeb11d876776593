"""Independent naive oracles, deliberately written along different lines than
the library: set partitions come from restricted-growth strings and are
filtered down to pairings, chord statistics come from interval containment,
the counted pairing walk places every pair node by node with no shared
completions, the inner product sums over all of S_n without letter grouping,
the commutator residual walks every word over all d letters, chain moments
walk a dict of occupation bitmasks one state and one site at a time in floats
or exactly in integers, chain vacuum walks apply whole operators over every
slot, normal ordering walks each partner left one
transposition at a time instead of reading crossings and nestings, the
chain's exchange relations compose whole operators slot by slot (one pair
at a time, or every ordered pair at once as arrays), the pairing
estimator sums the transposition walk's coefficients over every tuple as
fractions or multiplies a fresh ones-grid by one factor at a time over
lookup matrices filled cell by cell, and listings and clt artifacts render
one row and one cell at a time."""

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from qtwick import __version__
from qtwick.coeffs import _closed_form_factors, sampled_table
from qtwick.floats import _fmt
from qtwick.fock import _check_letter, add, annihilate, create, number_scale
from qtwick.jw import CommutationCheck, CommutationReport, MonomialOperator, build_jw
from qtwick.pairings import PairPartition
from qtwick.wickpoly import LETTERS

Pairs = tuple[tuple[int, int], ...]


def set_partitions_rgs(r: int):
    """All set partitions of 1..r as block tuples, via restricted growth strings."""
    def rec(prefix, used):
        pos = len(prefix)
        if pos == r:
            yield tuple(prefix)
            return
        for b in range(used + 1):
            yield from rec(prefix + [b], used)
        yield from rec(prefix + [used + 1], used + 1)

    if r == 0:
        return
    for rgs in rec([0], 0):
        blocks = {}
        for pos, b in enumerate(rgs, start=1):
            blocks.setdefault(b, []).append(pos)
        yield tuple(tuple(blocks[b]) for b in sorted(blocks))


@functools.cache
def pairings_rgs(n: int) -> tuple[Pairs, ...]:
    """Pair partitions of 1..2n obtained by filtering all set partitions."""
    out = []
    for blocks in set_partitions_rgs(2 * n):
        if all(len(b) == 2 for b in blocks):
            out.append(tuple((b[0], b[1]) for b in blocks))
    return tuple(out)


def chord_stats(pairs: Pairs) -> tuple[int, int]:
    """(crossings, nestings) by counting endpoints of the later chord that fall
    strictly inside the span of the earlier one: one means crossing, two nesting."""
    cross = nest = 0
    for (w1, z1), (w2, z2) in itertools.combinations(sorted(pairs), 2):
        inside = sum(1 for x in (w2, z2) if w1 < x < z1)
        if inside == 1:
            cross += 1
        elif inside == 2:
            nest += 1
    return cross, nest


def placements_walk(n: int, prefix, token, last) -> list:
    """pairings._placements node by node: (prefix + a token per pair,
    crossings, nestings) for every pairing of {1,...,2n} in lexicographic
    order, each node pairing the smallest free point a = free[0] with each
    b = free[k] and extending its parent's prefix."""
    size = 2 * n
    out = []

    def place(free, prefix, cross, nest):
        # every placed point above a is a closer: b - a - k of them lie
        # inside (a, b), (size - b) - (m - 1 - k) above b
        a, m = free[0], len(free)
        if m == 2:
            b = free[1]
            out.append((prefix + last(a, b), cross + b - a - 1, nest + size - b))
            return
        for k in range(1, m):
            b = free[k]
            place(free[1:k] + free[k + 1:], prefix + token(a, b), cross + b - a - k,
                  nest + size - b - (m - 1 - k))

    place(tuple(range(1, size + 1)), prefix, 0, 0)
    return out


def wick_sum(eps: str, labels=None, cov=None) -> dict[tuple[int, int], Fraction]:
    """Plain-dict pairing sum: key (q-degree, t-degree) -> coefficient."""
    if cov is None:
        cov = {("1", "*"): Fraction(1)}
    r = len(eps)
    out: dict[tuple[int, int], Fraction] = {}
    if r % 2:
        return out
    for pairs in pairings_rgs(r // 2):
        weight = Fraction(1)
        for w, z in pairs:
            if labels is not None and labels[w - 1] != labels[z - 1]:
                weight = Fraction(0)
                break
            weight *= Fraction(cov.get((eps[w - 1], eps[z - 1]), 0))
        if weight:
            key = chord_stats(pairs)
            out[key] = out.get(key, Fraction(0)) + weight
    return {k: v for k, v in out.items() if v}


def inner_product_full_sn(u, v, q: float, t: float) -> float:
    """Word inner product summed over every permutation of S_n, no shortcuts."""
    if len(u) != len(v):
        return 0.0
    n = len(u)
    if n == 0:
        return 1.0
    top = n * (n - 1) // 2
    total = 0.0
    for pi in itertools.permutations(range(n)):
        if any(u[k] != v[pi[k]] for k in range(n)):
            continue
        inv = sum(
            1 for a, b in itertools.combinations(range(n), 2) if pi[a] > pi[b]
        )
        total += q**inv * t ** (top - inv)
    return total


def scale(v, c: float):
    """c * v, with no words at c = 0."""
    if c == 0.0:
        return {}
    return {w: c * x for w, x in v.items()}


def commutator_residual_all_words(f: int, g: int, p) -> float:
    """The largest defect of a_f c_g - q c_g a_f = <f,g> t^N over every one
    of the d^k basis words of each degree k <= m - 2, with no size cap."""
    _check_letter(f, p)
    _check_letter(g, p)
    delta = 1.0 if f == g else 0.0
    worst = 0.0
    for deg in range(0, p.m - 1):
        for w in itertools.product(range(1, p.d + 1), repeat=deg):
            v = {w: 1.0}
            lhs = annihilate(f, create(g, v, p), p)
            mid = scale(create(g, annihilate(f, v, p), p), p.q)
            rhs = scale(number_scale(v, p), delta)
            resid = add(add(lhs, scale(mid, -1.0)), scale(rhs, -1.0))
            norm = np.sqrt(sum(c * c for c in resid.values()))
            worst = max(worst, norm)
    return float(worst)


_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Finalizer of the splitmix64 generator on Python ints."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _unshift(x: int, shift: int) -> int:
    """The y with y ^ (y >> shift) == x: each pass fixes shift more top bits."""
    y = x
    for _ in range(64 // shift):
        y = x ^ (y >> shift)
    return y


def unsplitmix64(x: int) -> int:
    """Inverse of splitmix64 on Python ints: each xorshift step undone by
    iterating it, each multiplication by the odd constant's inverse mod 2^64."""
    x = _unshift(x & _MASK64, 31)
    x = _unshift(x * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    return _unshift(x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)


def derive_seed(master: int, k: int) -> int:
    return splitmix64((master + (k + 1) * 0x9E3779B97F4A7C15) & _MASK64)


def uniform01(bits: int) -> float:
    # top 53 bits -> [0, 1)
    return (bits >> 11) * 2.0**-53


def sample_base(n: int, q: float, t: float, seed: int) -> dict[tuple[int, int], float]:
    """One pair at a time: pair (i, j) draws from sub-seed number
    (j-1)(j-2)/2 + i-1, looping over j, then i."""
    p_plus = 0.5 * (1.0 + q / t)
    base = {}
    for j in range(2, n + 1):
        for i in range(1, j):
            u = uniform01(derive_seed(seed, (j - 1) * (j - 2) // 2 + (i - 1)))
            base[(i, j)] = 1.0 if u < p_plus else -1.0
    return base


def _set_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _apply_sum(
    state: dict[int, float], letter: str, mu: np.ndarray, sq: float, n: int
) -> dict[int, float]:
    """One letter sum over sites 1..n on a dict {occupation bitmask: amplitude},
    state by state and site by site, dropping keys whose sum hits 0.0."""
    out: dict[int, float] = {}
    if letter == "*":
        for mask, amp in state.items():
            bits = _set_bits(mask)
            lead = amp * sq ** len(bits)
            prods = np.ones(n)
            for j in bits:
                prods[j + 1:] *= mu[j, j + 1:]
            for i in range(n):
                if (mask >> i) & 1:
                    continue
                new = mask | (1 << i)
                s = out.get(new, 0.0) + lead * prods[i]
                if s == 0.0:
                    out.pop(new, None)
                else:
                    out[new] = s
    else:
        for mask, amp in state.items():
            bits = _set_bits(mask)
            lead = amp * sq ** (len(bits) - 1)
            for pos, i in enumerate(bits):
                coeff = lead
                for j in bits[:pos]:
                    coeff *= mu[j, i]
                new = mask ^ (1 << i)
                s = out.get(new, 0.0) + coeff
                if s == 0.0:
                    out.pop(new, None)
                else:
                    out[new] = s
    return out


def sum_moment(n: int, eps: str, table) -> float:
    """partial_sum_moment in floats on a dict of bitmask states, one state
    and one site at a time, sqrt(t) multiplied in at every step."""
    mu = table.base_matrix(n)
    sq = math.sqrt(table.t)
    state = {0: 1.0}
    for letter in reversed(eps):
        state = _apply_sum(state, letter, mu, sq, n)
        if not state:
            break
    vac = float(state.get(0, 0.0))
    r = len(eps)
    if r % 2 == 0:
        return vac / float(n ** (r // 2))
    return vac / float(n) ** (r / 2)


def exact_moment(n: int, eps: str, table) -> float:
    """partial_sum_moment of a two-point table exactly: a dict of bitmask
    states with Python-int amplitudes, one state and one site at a time,
    counting the powers of sqrt(t) each step leaves out, rounded once; inf
    with the sign of a value past float64."""
    signs = {}
    for j in range(2, n + 1):
        for i in range(1, j):
            value = table.base_value(i, j)
            assert value in (1.0, -1.0), (i, j, value)
            signs[i - 1, j - 1] = int(value)
    state, half_powers = {0: 1}, 0
    for letter in reversed(eps):
        out: dict[int, int] = {}
        for mask, amp in state.items():
            bits = _set_bits(mask)
            if letter == "*":
                targets = [i for i in range(n) if not (mask >> i) & 1]
            else:
                targets = bits
            for i in targets:
                coeff = amp
                for j in bits:
                    if j < i:
                        coeff *= signs[j, i]
                new = mask ^ (1 << i)
                out[new] = out.get(new, 0) + coeff
        # every state in a step has the same popcount
        k = len(_set_bits(next(iter(state))))
        half_powers += k if letter == "*" else k - 1
        state = {mask: amp for mask, amp in out.items() if amp}
        if not state:
            return 0.0
    total = state.get(0, 0)
    if not total:
        return 0.0
    assert half_powers % 2 == 0
    value = Fraction(total) * Fraction(table.t) ** (half_powers // 2) / n ** (len(eps) // 2)
    try:
        return float(value)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def vacuum_expectation(op_seq, n: int, table) -> float:
    """Vacuum coefficient of a product of chain elements, each factor built
    over all n slots and applied to the whole state dict."""
    state = {0: 1.0}
    for site, adjoint in reversed(op_seq):
        state = build_jw(n, site, table, adjoint).apply(state)
        if not state:
            return 0.0
    return state.get(0, 0.0)


def transpositions(values, eps: str):
    """The (left, right, i, j) of each coefficient the normal ordering of a
    pair-class word collects, by transpositions: repeatedly take the leftmost
    remaining position and walk its partner left until the two are adjacent;
    each element passed contributes the coefficient of swapping (passed,
    partner) into (partner, passed)."""
    work = [(values[k], eps[k]) for k in range(len(values))]
    while work:
        head_val, _ = work[0]
        rest = work[1:]
        p = next(k for k, (v, _) in enumerate(rest) if v == head_val)
        part_val, part_eps = rest[p]
        for passed_val, passed_eps in rest[:p]:
            yield part_eps, passed_eps, part_val, passed_val
        del rest[p]
        work = rest


def transposition_beta(values, eps: str, table) -> float:
    """Normal-ordering coefficient of a pair-class word: the product of
    table.lookup over its transpositions, in walk order."""
    beta = 1.0
    for args in transpositions(values, eps):
        beta *= table.lookup(*args)
    return beta


def lookup_matrix(table, e1: str, e2: str, n: int) -> np.ndarray:
    """[n, n] matrix of table.lookup(e1, e2, x, y) for 1-based x != y, one
    cell at a time; the diagonal holds ones and is never read."""
    out = np.ones((n, n))
    for x, y in itertools.permutations(range(1, n + 1), 2):
        out[x - 1, y - 1] = table.lookup(e1, e2, x, y)
    return out


def limit_coefficient_estimate(pairing: PairPartition, eps: str, n_sites: int, table) -> float:
    """The estimate in floats: per outer tuple a fresh ones-grid that every
    factor multiplies in place, in product order, over lookup matrices."""
    n = pairing.n
    if n == 1:
        return float(n_sites) / n_sites
    block = pairing.block_of()
    forms = []
    for x, y in _closed_form_factors(pairing):
        m = lookup_matrix(table, eps[x - 1], eps[y - 1], n_sites)
        a, b = block[x] - 1, block[y] - 1
        if a == n - 2:
            forms.append(lambda outer, m=m: m)
        elif b == n - 2:
            forms.append(lambda outer, m=m, a=a: m[outer[a], :, None])
        elif b == n - 1:
            forms.append(lambda outer, m=m, a=a: m[outer[a], None, :])
        else:
            forms.append(lambda outer, m=m, a=a, b=b: m[outer[a], outer[b]])
    total = 0.0
    for outer in itertools.permutations(range(n_sites), n - 2):
        grid = np.ones((n_sites, n_sites))
        for form in forms:
            grid *= form(outer)
        for v in outer:
            grid[v, :] = 0.0
            grid[:, v] = 0.0
        np.fill_diagonal(grid, 0.0)
        total += float(grid.sum())
    return total / n_sites**n


def exact_lookup(table, left: str, right: str, i: int, j: int) -> Fraction:
    """mu_{left,right}(i, j) as a Fraction, from the rules that define it:
    mu_{*,*}(i, j) is the base value for i < j, swapping the slots inverts,
    conjugating both letters inverts, and mu_{*,1} is t mu_{*,*} for i < j."""
    if i > j:
        return 1 / exact_lookup(table, right, left, j, i)
    m, t = Fraction(table.base_value(i, j)), Fraction(table.t)
    return {("*", "*"): m, ("1", "1"): 1 / m, ("*", "1"): t * m, ("1", "*"): 1 / (t * m)}[
        (left, right)]


def exact_estimate(pairing: PairPartition, eps: str, n_sites: int, table) -> float:
    """The estimate summed exactly and rounded once: for every tuple of
    distinct block values, the product of the coefficients of its
    transpositions as a fraction; inf with the sign of a sum past float64.
    Products keep their numerator and denominator apart, and sums are kept
    per denominator, so that no step but the last reduces a fraction."""
    block = pairing.block_of()

    @functools.cache
    def lookup(*args):
        exact = exact_lookup(table, *args)
        return exact.numerator, exact.denominator

    sums: dict[int, int] = {}
    for tup in itertools.permutations(range(1, n_sites + 1), pairing.n):
        values = [tup[block[pos] - 1] for pos in range(1, pairing.size + 1)]
        num = den = 1
        for args in transpositions(values, eps):
            a, b = lookup(*args)
            num *= a
            den *= b
        sums[den] = sums.get(den, 0) + num
    total = sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))
    try:
        return float(total / n_sites**pairing.n)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def compose(a: MonomialOperator, b: MonomialOperator) -> MonomialOperator:
    """Operator product a * b (b acts first), slot by slot."""
    if a.n != b.n:
        raise ValueError(f"width mismatch: {a.n} vs {b.n}")
    slots = []
    for mine, theirs in zip(a.slots, b.slots):
        images = []
        for bit in (0, 1):
            first = theirs[bit]
            if first is None:
                images.append(None)
                continue
            c1, mid = first
            second = mine[mid]
            if second is None:
                images.append(None)
                continue
            c2, out = second
            images.append((c1 * c2, out))
        slots.append((images[0], images[1]))
    return MonomialOperator(a.n, tuple(slots), a.scalar * b.scalar)


def canonical(op: MonomialOperator):
    """Slot actions rescaled so each first surviving image has coefficient 1,
    with the absorbed factors pushed into the scalar; None for the zero
    operator (some slot kills both basis states)."""
    slots = []
    scalar = op.scalar
    for action in op.slots:
        lead = action[0] if action[0] is not None else action[1]
        if lead is None:
            return None
        c = lead[0]
        scalar *= c
        slots.append(tuple(
            None if img is None else (img[0] / c, img[1]) for img in action
        ))
    if scalar == 0.0:
        return None
    return tuple(slots), scalar


def monomial_deviation(a: MonomialOperator, b: MonomialOperator) -> float:
    """Largest coefficient difference between two monomials in canonical form;
    infinity when their structure (kill pattern or bit images) differs."""
    ca = canonical(a)
    cb = canonical(b)
    if ca is None or cb is None:
        return 0.0 if ca is None and cb is None else math.inf
    slots_a, scalar_a = ca
    slots_b, scalar_b = cb
    dev = abs(scalar_a - scalar_b)
    for act_a, act_b in zip(slots_a, slots_b):
        for img_a, img_b in zip(act_a, act_b):
            if (img_a is None) != (img_b is None):
                return math.inf
            if img_a is None:
                continue
            if img_a[1] != img_b[1]:
                return math.inf
            dev = max(dev, abs(img_a[0] - img_b[0]))
    return dev


def check_commutation(n: int, table, tolerance: float = 1e-12) -> CommutationReport:
    """b_i^e b_j^e' against mu_{e',e}(j, i) * b_j^e' b_i^e for all i != j <= n
    and all letter pairs, composing both products in full."""
    ops = {
        (site, letter): build_jw(n, site, table, adjoint=(letter == "*"))
        for site in range(1, n + 1)
        for letter in LETTERS
    }
    report = CommutationReport(n=n, tolerance=tolerance, max_deviation=0.0)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for e1 in LETTERS:
                for e2 in LETTERS:
                    lhs = compose(ops[(i, e1)], ops[(j, e2)])
                    rhs = compose(ops[(j, e2)], ops[(i, e1)])
                    mu = table.lookup(e2, e1, j, i)
                    rhs = MonomialOperator(n, rhs.slots, rhs.scalar * mu)
                    dev = monomial_deviation(lhs, rhs)
                    report.max_deviation = max(report.max_deviation, dev)
                    if dev > tolerance:
                        report.failures.append(CommutationCheck(i, j, e1, e2, dev))
    return report


def _chain_arrays(n: int, table):
    """Every chain element and adjoint of build_jw as arrays: operator
    2 * (site - 1) + (0 for '1', 1 for '*') takes bit b at slot s to bit
    bits[o, s, b] with coefficient coef[o, s, b], or kills it (bit -1)."""
    coef = np.zeros((2 * n, n, 2))
    bits = np.full((2 * n, n, 2), -1, dtype=np.int8)
    for o, (site, letter) in enumerate(itertools.product(range(1, n + 1), LETTERS)):
        for s, action in enumerate(build_jw(n, site, table, adjoint=(letter == "*")).slots):
            for b, image in enumerate(action):
                if image is not None:
                    coef[o, s, b], bits[o, s, b] = image
    return coef, bits


def _compose_arrays(coef, bits, a, b):
    """compose() of operators a[p] and b[p], b[p] acting first, for every p:
    the coefficients and bits of each slot's images."""
    mid = bits[b]
    alive = mid >= 0
    mid = np.where(alive, mid, 0)  # a killed image reads bit 0, then is killed again
    out = np.where(alive, np.take_along_axis(bits[a], mid, axis=2), -1)
    return coef[b] * np.take_along_axis(coef[a], mid, axis=2), out


def _canonical_arrays(coef, bits, scalar):
    """canonical() of every operator p: the coefficients divided by each
    slot's first surviving image, the scalar times those leads in slot
    order, and whether p is the zero operator."""
    lead = np.where(bits[:, :, 0] >= 0, coef[:, :, 0], coef[:, :, 1])
    for s in range(coef.shape[1]):
        scalar = scalar * lead[:, s]
    zero = (bits < 0).all(axis=2).any(axis=1) | (scalar == 0.0)
    return coef / lead[:, :, None], scalar, zero


def check_commutation_arrays(n: int, table, tolerance: float = 1e-12) -> CommutationReport:
    """check_commutation with every chain operator held as [2n, n, 2] arrays
    of image coefficients and bits: all 4n(n-1) ordered pairs are composed
    at once both ways, slot by slot, and compared as monomial_deviation
    compares them, with the same float steps in the same order."""
    coef, bits = _chain_arrays(n, table)
    i, j, e1, e2 = (axis.ravel() for axis in np.indices((n, n, 2, 2)))
    keep = i != j
    left, right = 2 * i[keep] + e1[keep], 2 * j[keep] + e2[keep]
    i, j, e1, e2 = i[keep].tolist(), j[keep].tolist(), e1[keep].tolist(), e2[keep].tolist()
    mu = np.array([table.lookup(LETTERS[b], LETTERS[a], y + 1, x + 1)
                   for x, y, a, b in zip(i, j, e1, e2)], dtype=float)
    with np.errstate(all="ignore"):
        lhs, lhs_bits = _compose_arrays(coef, bits, left, right)
        rhs, rhs_bits = _compose_arrays(coef, bits, right, left)
        # each product's scalar is 1.0 * 1.0, and the right one's is then times mu
        lhs, lhs_scalar, lhs_zero = _canonical_arrays(lhs, lhs_bits, np.ones(mu.size))
        rhs, rhs_scalar, rhs_zero = _canonical_arrays(rhs, rhs_bits, mu)
        devs = np.abs(lhs_scalar - rhs_scalar)
        for s in range(n):
            for b in (0, 1):
                # max(dev, x) keeps dev unless x > dev, so a nan stays put
                x = np.abs(lhs[:, s, b] - rhs[:, s, b])
                devs = np.where((lhs_bits[:, s, b] >= 0) & (x > devs), x, devs)
    devs[(lhs_bits != rhs_bits).any(axis=(1, 2))] = math.inf
    devs = np.where(lhs_zero | rhs_zero, np.where(lhs_zero & rhs_zero, 0.0, math.inf), devs)
    report = CommutationReport(n=n, tolerance=tolerance, max_deviation=0.0)
    for x, y, a, b, dev in zip(i, j, e1, e2, devs.tolist()):
        report.max_deviation = max(report.max_deviation, dev)
        if dev > tolerance:
            report.failures.append(CommutationCheck(x + 1, y + 1, LETTERS[a], LETTERS[b], dev))
    return report


def render(meta, header, rows, fmt: str, text_lines=None) -> str:
    """A csv, json or text artifact, row by row; json through json.dumps."""
    if fmt == "csv":
        lines = [f"# {k}: {v}" for k, v in meta.items()]
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"metadata": meta, "header": header, "rows": rows}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = text_lines if text_lines is not None else [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def coeffs_listing(meta, fmt: str) -> str:
    """The coeffs artifact without --lookup: one row per pair i < j, each
    index and value formatted where it is read."""
    n = int(meta["n"])
    table = sampled_table(n, float(meta["q"]), float(meta["t"]), int(meta["seed"]))
    rows = [
        [str(i), str(j), _fmt(table.base_value(i, j))]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return render(meta, ["i", "j", "mu"], rows, fmt, [f"mu({i},{j}) = {v}" for i, j, v in rows])


def pairings_listing(meta, fmt: str, counted) -> str:
    """The pairings artifact of the (pairs, crossings, nestings) in
    `counted`, every label formatted where it is read."""
    text_lines = [
        "{" + ",".join(f"({w},{z})" for w, z in pairs) + f"}} cross={c},nest={s}"
        for pairs, c, s in counted
    ]
    rows = [["; ".join(f"{w}-{z}" for w, z in pairs), str(c), str(s)] for pairs, c, s in counted]
    return render(meta, ["pairs", "cross", "nest"], rows, fmt, text_lines)


def csv_preamble(text: str) -> dict:
    """The `# key: value` lines that open text, from the lines that
    text.split("\n") ends with a "\n"; any other line break stays in its
    line."""
    meta = {}
    for line in text.split("\n")[:-1]:
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        meta[key] = value
    return meta


def clt_metadata(config, version: str = __version__) -> dict:
    """The metadata of a clt artifact, spelled from its experiment config."""
    meta = {
        "command": "clt",
        "version": version,
        "mode": config.mode,
        "eps": config.eps,
        "q": _fmt(config.q),
        "t": _fmt(config.t),
        "seed": str(config.seed),
        "ns": ",".join(str(n) for n in config.ns),
    }
    if config.pairing is not None:
        meta["pairing"] = ";".join(f"{w}-{z}" for w, z in config.pairing.pairs)
    return meta


def clt_artifact(report, fmt: str, version: str = __version__) -> str:
    """The clt artifact of an experiment report, row by row: csv and text by
    hand, json through json.dumps with typed rows."""
    cfg = report.config
    if fmt == "json":
        payload = {
            "metadata": clt_metadata(cfg, version),
            "rows": [
                {
                    "N": row.n,
                    "eps": cfg.eps,
                    "q": cfg.q,
                    "t": cfg.t,
                    "seed": cfg.seed,
                    "mode": cfg.mode,
                    "value": row.value,
                    "target": row.target,
                    "abs_err": row.abs_err,
                }
                for row in report.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = []
    if fmt == "csv":
        lines = [f"# {k}: {v}" for k, v in clt_metadata(cfg, version).items()]
        lines.append("N,eps,q,t,seed,mode,value,target,abs_err")
    for row in report.rows:
        target = "none" if row.target is None else _fmt(row.target)
        err = "none" if row.abs_err is None else _fmt(row.abs_err)
        if fmt == "csv":
            cells = (str(row.n), cfg.eps, _fmt(cfg.q), _fmt(cfg.t), str(cfg.seed), cfg.mode,
                     _fmt(row.value), target, err)
            lines.append(",".join(cells))
        else:
            lines.append(f"N={row.n} value={_fmt(row.value)} target={target} abs_err={err}")
    return "\n".join(lines) + "\n"
