"""Answer checks for the benchmark, run outside the timed region.

Every check recomputes the answer by a route the program does not take:
the three-term continuant for determinants, an exact Python-int local
rule built from TreeShape addresses for evolution and matrices, a left
kernel for Garden-of-Eden samples and the observability rank for the
partition probe. Each check returns a list of failure strings; an
empty list means the answer is right.

Two defects of the current program are known and recorded (ROADMAP
item 5). A failure is tagged as one of them, by a string starting with
KNOWN, only when the wrong output is exactly what that defect produces:
the local rule's int64 overflow is recomputed by wrapping the exact sums
to int64 as numpy does, and the garden count's printing fails with
Python's int-to-str digit limit. Tagged failures still count as failed
calls; any other failure makes the run incorrect.
"""
from __future__ import annotations

import csv
import io
import json
from functools import lru_cache

import numpy as np

from treeca.analysis import det_formula_n2, det_formula_n3, table1_expected
from treeca.rulematrix import kernel_basis_mod
from treeca.tree import TreeShape


def order(n: int) -> int:
    return 1 + 3 * (2**n - 1)


def continuant_det(a: int, b: int, c: int, d: int, n: int, p: int) -> int:
    """det of the level-n rule matrix mod p by the leaf-to-root continuant:
    q_{n+1}=1, q_n=d, q_l = d q_{l+1} - s c q_{l+2}, q_0 = d q_1 - c(s+c) q_2,
    det = q_0 q_1^2 prod_{l>=2} q_l^(3 2^(l-2)), with s = a+b."""
    s = a + b
    q = {n + 1: 1, n: d % p}
    for l in range(n - 1, 0, -1):
        q[l] = (d * q[l + 1] - s * c * q[l + 2]) % p
    det = (d * q[1] - c * (s + c) * q[2]) % p * q[1] * q[1] % p
    for l in range(2, n + 1):
        det = det * pow(q[l], 3 * 2 ** (l - 2), p) % p
    return det


@lru_cache(maxsize=None)
def neighbours(n: int) -> tuple[tuple[int | None, tuple[int, ...]], ...]:
    """(parent, children) per linear index, from digit-string addresses."""
    shape = TreeShape(n)
    out = []
    for v in range(shape.total_vertices):
        addr = shape.address_of(v)
        par = shape.linear_index(addr[:-1]) if addr else None
        digits = "123" if addr == "" else "12"
        kids = tuple(shape.linear_index(addr + ch) for ch in digits) if len(addr) < n else ()
        out.append((par, kids))
    return tuple(out)


def exact_rows(n: int, a: int, b: int, c: int, d: int) -> list[dict[int, int]]:
    """Sparse rows {column: coefficient} of the rule matrix, as Python ints."""
    rows = []
    for v, (par, kids) in enumerate(neighbours(n)):
        row = {v: d}
        if par is not None:
            row[par] = c
        for k, coeff in zip(kids, (a, b, c) if par is None else (a, b)):
            row[k] = coeff
        rows.append(row)
    return rows


def exact_step(rows: list[dict[int, int]], x: list[int], p: int) -> list[int]:
    return [sum(coeff * x[col] for col, coeff in row.items()) % p for row in rows]


KNOWN = "known defect: "
OVERFLOW = KNOWN + "int64 overflow in the local rule: "


def _wrap_int64(v: int) -> int:
    return (v + 2**63) % 2**64 - 2**63


def int64_step(n: int, a: int, b: int, c: int, d: int, x: list[int], p: int) -> list[int]:
    """The program's local rule as its int64 arrays compute it: the four
    products d x_v + c x_parent + a x_child1 + b x_child2 (each < 2^62) are
    summed with wrap-around before the % p; the root's third child is
    added after."""
    out = []
    for v, (par, kids) in enumerate(neighbours(n)):
        s = d * x[v] + (c * x[par] if par is not None else 0)
        if kids:
            s += a * x[kids[0]] + b * x[kids[1]]
        out.append(_wrap_int64(s) % p)
    root_kids = neighbours(n)[0][1]
    if root_kids:
        out[0] = (out[0] + c * x[root_kids[2]]) % p
    return out


def known_exit(op: str, rc: int, err: str) -> str | None:
    """The known-defect tag for a nonzero exit, or None."""
    if op == "garden" and rc == 3 and "Exceeds the limit (4300 digits) for integer" in err:
        return KNOWN + "garden_count has more than 4300 digits and cannot be printed"
    return None


def _rank_mod(mat: list[list[int]], p: int) -> int:
    m = [r[:] for r in mat]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] % p:
                f = m[i][col]
                m[i] = [(u - f * v) % p for u, v in zip(m[i], m[rank])]
        rank += 1
    return rank


def _field(text: str, key: str) -> int:
    for tok in text.split():
        if tok.startswith(key + "="):
            return int(tok.split("=", 1)[1])
    raise ValueError(f"no {key}= in output")


def _det_failures(a, b, c, d, n, p, det) -> list[str]:
    fails = []
    want = continuant_det(a, b, c, d, n, p)
    if det != want:
        fails.append(f"det {det} != continuant {want}")
    closed = {2: det_formula_n2, 3: det_formula_n3}.get(n)
    if closed is not None and det != closed(a, b, c, d, p):
        fails.append(f"det {det} != closed form {closed(a, b, c, d, p)}")
    return fails


def check_classify(out: str, a, b, c, d, n, p) -> list[str]:
    vals = {k: _field(out, k) for k in ("a", "b", "c", "d", "n", "p", "det", "rank")}
    verdict = out.split("verdict=")[1].split()[0]
    fails = []
    if (vals["a"], vals["b"], vals["c"], vals["d"], vals["n"], vals["p"]) != (a, b, c, d, n, p):
        fails.append("echoed parameters differ from the question")
    fails += _det_failures(a, b, c, d, n, p, vals["det"])
    fails += _consistency(vals["det"], vals["rank"], verdict == "reversible", n)
    return fails


def _consistency(det: int, rank: int, reversible: bool, n: int) -> list[str]:
    if (det != 0) == (rank == order(n)) == reversible:
        return []
    return [f"det={det}, rank={rank}/{order(n)} and reversible={reversible} disagree"]


def check_det(out: str, a, b, c, d, n, p) -> list[str]:
    return _det_failures(a, b, c, d, n, p, int(out))


def check_matrix(out: str, a, b, c, d, n, p) -> list[str]:
    lines = out.splitlines()
    if lines[0] != f"treeca-matrix 1 {n} {p}":
        return [f"bad header {lines[0]!r}"]
    rows = exact_rows(n, a, b, c, d)
    if len(lines) - 1 != len(rows):
        return [f"{len(lines) - 1} rows, expected {len(rows)}"]
    bad = 0
    for line, want in zip(lines[1:], rows):
        got = line.split()
        nz = {i: int(t) for i, t in enumerate(got) if t != "0"}
        bad += len(got) != len(rows) or nz != {k: v % p for k, v in want.items() if v % p}
    return [f"{bad} rows differ from the address-built rule matrix"] if bad else []


def expected_sweep_tuples(k: int, n_values, p_values, seed: int) -> list[tuple]:
    """The documented sampling: per (p, n), k draws of (a,b,c,d) from Z_p^*
    by numpy's default_rng(seed), in canonical (p, n, a, b, c, d) order."""
    rng = np.random.default_rng(seed)
    out = []
    for p in p_values:
        for n in n_values:
            out += [(int(a), int(b), int(c), int(d), n, p)
                    for a, b, c, d in rng.integers(1, p, size=(k, 4))]
    return sorted(out, key=lambda t: (t[5], t[4], t[0], t[1], t[2], t[3]))


def _csv_rows(text: str) -> list[dict]:
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def check_sweep(out: str, k, n_values, p_values, seed) -> list[str]:
    if not out.startswith(f"# seed={seed}\n"):
        return ["missing seed line"]
    rows = _csv_rows(out)
    want = expected_sweep_tuples(k, n_values, p_values, seed)
    got = [tuple(int(r[f]) for f in ("a", "b", "c", "d", "n", "p")) for r in rows]
    if got != want:
        return ["records are not the seeded tuples in canonical order"]
    fails = []
    for r, (a, b, c, d, n, p) in zip(rows, got):
        det, rank = int(r["det"]), int(r["rank"])
        fails += _det_failures(a, b, c, d, n, p, det)
        fails += _consistency(det, rank, r["reversible"] == "true", n)
    return fails[:5] + ([f"... {len(fails) - 5} more"] if len(fails) > 5 else [])


def check_table1(out: str) -> list[str]:
    rows = _csv_rows(out)
    want = table1_expected()
    if len(rows) != len(want):
        return [f"{len(rows)} rows, fixture has {len(want)}"]
    fails = []
    for r, (a, b, c, d, n, p, verdict) in zip(rows, want):
        det = int(r["det"])
        fails += _det_failures(a, b, c, d, n, p, det)
        fails += _consistency(det, int(r["rank"]), r["reversible"] == "true", n)
        if (r["reversible"] == "true") != (verdict == "reversible"):
            fails.append(f"row {(a, b, c, d, n, p)} verdict differs from the fixture")
    return fails


@lru_cache(maxsize=None)
def left_kernel(n, p, a, b, c, d) -> tuple[np.ndarray, ...]:
    """Basis of {w : w^T M = 0}, from the address-built matrix."""
    mt = np.zeros((order(n), order(n)), dtype=np.int64)
    for r, row in enumerate(exact_rows(n, a, b, c, d)):
        for col, coeff in row.items():
            mt[col, r] = coeff % p
    return tuple(kernel_basis_mod(mt, p))


def check_garden(out: str, a, b, c, d, n, p, samples, seed) -> list[str]:
    rep = json.loads(out)
    kern = left_kernel(n, p, a, b, c, d)
    size, rank = order(n), order(n) - len(kern)
    fails = []
    if (rep["order"], rep["rank"], rep["p"], rep["seed"]) != (size, rank, p, seed):
        fails.append(f"order/rank/p/seed {rep['order']}/{rep['rank']}/{rep['p']}/{rep['seed']}"
                     f" != {size}/{rank}/{p}/{seed}")
    if rep["image_size"] != p**rank or rep["garden_count"] != p**size - p**rank:
        fails.append("image_size or garden_count disagree with the left-kernel rank")
    found = rep["sample_garden_configs"]
    if len(found) != samples:
        fails.append(f"{len(found)} samples, asked for {samples}")
    kern_rows = [[int(v) for v in w] for w in kern]
    for y in found:
        if len(y) != size or not all(0 <= v < p for v in y):
            fails.append("sample is not a configuration")
        elif not any(sum(wi * yi for wi, yi in zip(w, y)) % p for w in kern_rows):
            fails.append("sample lies in the image (every left-kernel w has w.y = 0)")
    return fails


def check_evolve(out: str, x: list[int], a, b, c, d, n, p, steps) -> list[str]:
    trace = json.loads(out)
    if len(trace) != steps + 1:
        return [f"{len(trace)} configurations, expected {steps + 1}"]
    rows = exact_rows(n, a, b, c, d)
    cur, wrapped, wrong_steps, wrong_cells, unexplained = x, x, 0, 0, False
    for k, got in enumerate(trace):
        if k:
            cur = exact_step(rows, cur, p)
            wrapped = int64_step(n, a, b, c, d, wrapped, p)
        diff = sum(g != w for g, w in zip(got, cur))
        wrong_steps += diff > 0
        wrong_cells += diff
        unexplained |= got != wrapped
    if wrong_steps:
        what = (f"{wrong_steps}/{steps + 1} configurations differ from the exact local rule "
                f"({wrong_cells} cells)")
        return [what if unexplained else OVERFLOW + what]
    return []


def check_preimages(sol, x, y_program, step_local_values, a, b, c, d, n, p) -> list[str]:
    """sol solves M x' = y for y = step_local(x); map it back through
    step_local (passed as step_local_values: list -> list). When the
    program's y is wrong it may lie outside the image, and then no
    preimage is the right answer."""
    rows = exact_rows(n, a, b, c, d)

    def overflow(v: list[int], got: list[int], want: list[int]) -> bool:
        """got is the overflowing rule's image of v, and the exact one is want."""
        return exact_step(rows, v, p) == want and got == int64_step(n, a, b, c, d, v, p)

    fails = []
    want_y = exact_step(rows, x, p)
    if y_program != want_y:
        bad = sum(u != v for u, v in zip(y_program, want_y))
        what = f"step_local(x) differs from the exact local rule in {bad} cells"
        fails.append(OVERFLOW + what if overflow(x, y_program, want_y) else what)
    if not sol.consistent:
        # right only when y is outside the image, i.e. some left-kernel w has w.y != 0
        kern = left_kernel(n, p, a, b, c, d)
        if not any(sum(int(wi) * yi for wi, yi in zip(w, y_program)) % p for w in kern):
            fails.append("y lies in the image but was reported as having no preimage")
        return fails
    part = [int(v) for v in sol.particular]
    got = step_local_values(part)
    if got != y_program:
        what = "step_local(particular) != y"
        fails.append(OVERFLOW + what if overflow(part, got, y_program) else what)
    zero = [0] * order(n)
    known = other = 0
    for k in sol.kernel:
        kv = [int(v) for v in k]
        got = step_local_values(kv)
        if got != zero:
            hit = overflow(kv, got, zero)
            known += hit
            other += not hit
    for bad, tag in ((other, ""), (known, OVERFLOW)):
        if bad:
            fails.append(f"{tag}{bad}/{len(sol.kernel)} kernel vectors are not mapped to 0")
    return fails


def check_probe(out: str, a, b, c, d, n, p, steps, mode) -> list[str]:
    size = order(n)
    rows = exact_rows(n, a, b, c, d)
    obs = [0] if mode == "root" else list(range(min(4, size)))
    # row r of M^t as a dense list, advanced by r <- r M
    cur = [[1 if j == o else 0 for j in range(size)] for o in obs]
    stacked = []
    for _ in range(steps):
        stacked += cur
        cur = [[sum(r[i] * rows[i].get(j, 0) for i in range(size)) % p for j in range(size)]
               for r in cur]
    want_atoms = p ** _rank_mod(stacked, p)
    fails = []
    if _field(out, "observed_atom_count") != want_atoms:
        fails.append(f"observed_atom_count != p^rank(observability) = {want_atoms}")
    if _field(out, "claimed_atom_count") != p ** order(steps):
        fails.append("claimed_atom_count != p^|V_steps|")
    return fails
