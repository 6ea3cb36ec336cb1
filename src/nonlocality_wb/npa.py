"""Moment-matrix relaxations bounding constrained Bell optimization.

The operator alphabet is minimal: one outcome-0 projector per setting and
party (``E_x`` for Alice, ``F_y`` for Bob).  A word over the alphabet is a
plain ``(alice, bob)`` tuple of two setting tuples, ``((1, 2), (3,))`` for
``E1*E2*F3`` and ``((), ())`` for the identity: the parties commute (all E's
before all F's), and projector idempotence collapses adjacent equal letters,
so ``product`` joins the two halves and drops a repeat at each seam.  The
level-``l`` basis holds every canonical word of length at most ``l``; the
moment matrix cell ``(u, v)`` carries the moment of ``adjoint(u) * v``, and
cells whose canonical words coincide share one variable.  Moment matrices
are real symmetric, so a word and its reversal are also identified
(``moment_key``).

Probabilities enter through complementarity: ``P(00|xy) = <E_x F_y>``,
``P(01|xy) = <E_x> - <E_x F_y>``, ``P(10|xy) = <F_y> - <E_x F_y>``,
``P(11|xy) = 1 - <E_x> - <F_y> + <E_x F_y>``.  A Hardy paradox becomes:
maximize the Hardy-term moment subject to the moment matrix being positive
semidefinite, the identity moment pinned to 1, and each condition expression
(in moment form) pinned to its target.

Solving passes the program to the LMI solver through one affine map: the
class moments are ``y = y0 + N z`` in the solver variables ``z``, and block
``b`` of the LMI is ``V_b^T M(y) V_b`` for a basis map ``V_b``.  When the
program data is invariant under swapping the parties, swapped classes share
a column and ``V_b`` holds the symmetric and antisymmetric ``1/sqrt(2)``
combinations of swapped rows, so the matrix splits into two blocks; the
swap is validated against the program data and skipped when the invariance
does not hold exactly.  The row-reduced equalities put their pivots into
``y0`` and their dependence on the free columns into ``N``.

A condition that forces its terms to zero (``hardy.zero_sign``) gives kernel
vectors ``c`` with ``M c = 0`` (see ``_kernel``): ``M(y) c = 0`` joins the
equalities, and each ``V_b`` spans its swap sector's complement of them
(partial facial reduction, Permenter & Parrilo, Math. Prog. 171 (2018)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .hardy import HardyParadox, zero_sign
from .scenario import BellExpression, Scenario, TermKey, ValidationError
from .sdp import (
    LmiProblem,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    _single_blas_thread,
    solve_lmi,
)

if TYPE_CHECKING:
    import scipy.sparse

MAX_LEVEL = 3

#: Largest memory, in bytes, that one square array of a program may take:
#: the basis's int64 ``cell_class``, checked on ``(n, level)`` alone before the
#: build (``check_program_size``), and the solver's m x m Schur matrix (factored
#: in place), checked in ``_affine_map`` as soon as m is known.  ``optimize``
#: checks its screen's largest array against it too (``qubit.screen_bytes``).
MAX_SCHUR_BYTES = 2 * 2**30


#: A canonical word: Alice's settings, then Bob's, with no adjacent repeats.
Word = tuple[tuple[int, ...], tuple[int, ...]]


def label(w: Word) -> str:
    """``E1*E2*F3`` for ``((1, 2), (3,))``; ``1`` for the identity word."""
    return "*".join([f"E{s}" for s in w[0]] + [f"F{s}" for s in w[1]]) or "1"


def _join(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical ``u + v`` for words without adjacent repeats: only the seam
    can repeat, and dropping one letter there leaves no new repeat."""
    return u + v[1:] if u and v and u[-1] == v[0] else u + v


def product(u: Word, v: Word) -> Word:
    """Canonical product: parties commute, adjacent repeats collapse."""
    return _join(u[0], v[0]), _join(u[1], v[1])


def adjoint(w: Word) -> Word:
    """The reversed word, the adjoint of a product of projectors."""
    return w[0][::-1], w[1][::-1]


def moment_key(w: Word) -> Word:
    """Class representative; a word and its reversal share one real moment."""
    return min(w, adjoint(w))


def _party_words(n: int, length: int) -> list[tuple[int, ...]]:
    """All no-adjacent-repeat words of one party, lexicographic."""
    if length == 0:
        return [()]
    words = [(s,) for s in range(1, n + 1)]
    for _ in range(length - 1):
        words = [w + (s,) for w in words for s in range(1, n + 1) if w[-1] != s]
    return words


def basis_monomials(n: int, level: int) -> tuple[Word, ...]:
    """Every canonical word of degree <= level; E-heavy words first per degree."""
    out: list[Word] = [((), ())]
    for degree in range(1, level + 1):
        for alice_len in range(degree, -1, -1):
            bob_len = degree - alice_len
            for aw in _party_words(n, alice_len):
                for bw in _party_words(n, bob_len):
                    out.append((aw, bw))
    return tuple(out)


def basis_size(n: int, level: int) -> int:
    """``len(basis_monomials(n, level))`` without building it: a party has
    ``w(k) = n (n-1)^(k-1)`` words of length ``k >= 1``."""
    w = [1] + [n * (n - 1) ** (k - 1) for k in range(1, level + 1)]
    return sum(w[a] * w[d - a] for d in range(level + 1) for a in range(d + 1))


@dataclass(frozen=True)
class MomentProgram:
    """Moment-matrix program: basis, cell identification, objective, pins."""

    n_settings: int
    level: int
    basis: tuple[Word, ...]
    class_words: tuple[Word, ...]
    cell_class: np.ndarray  # (N, N) int array; entry = class index of the cell
    objective: np.ndarray  # linear functional over class moments
    objective_offset: float
    equalities: tuple[tuple[np.ndarray, float], ...]  # first row pins identity
    description: str = ""
    # terms P(ij|xy) that a condition forces to zero; not in the moment_program document
    zero_terms: tuple[TermKey, ...] = ()

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def n_classes(self) -> int:
        return len(self.class_words)


def _moment_terms(i: int, j: int, x: int, y: int) -> tuple[float, list[tuple[Word, float]]]:
    """Constant plus moment-word coefficients of ``P(ij|xy)``."""
    ex = ((x,), ())
    fy = ((), (y,))
    exfy = ((x,), (y,))
    if i == 0 and j == 0:
        return 0.0, [(exfy, 1.0)]
    if i == 0 and j == 1:
        return 0.0, [(ex, 1.0), (exfy, -1.0)]
    if i == 1 and j == 0:
        return 0.0, [(fy, 1.0), (exfy, -1.0)]
    return 1.0, [(ex, -1.0), (fy, -1.0), (exfy, 1.0)]


def _expression_to_moments(
    expr: BellExpression, class_index: Mapping[Word, int], n_classes: int
) -> tuple[np.ndarray, float]:
    vec = np.zeros(n_classes)
    offset = 0.0
    for (i, j, x, y), coeff in expr.items():
        const, words = _moment_terms(i, j, x, y)
        offset += coeff * const
        for word, w in words:
            vec[class_index[moment_key(word)]] += coeff * w
    return vec, offset


def _moment_structure(n: int, level: int):
    """Basis, class index and cell-to-class array.

    Cell ``(u, v)`` holds ``moment_key(product(adjoint(u), v))``; classes are
    numbered in the order the upper triangle first meets them, row by row.
    """
    basis = basis_monomials(n, level)
    size = len(basis)
    index: dict[Word, int] = {}
    cell_class = np.empty((size, size), dtype=np.int64)
    for p, u in enumerate(basis):
        r = adjoint(u)
        for q in range(p, size):
            key = moment_key(product(r, basis[q]))
            cell_class[p, q] = cell_class[q, p] = index.setdefault(key, len(index))
    return basis, index, cell_class


def _check_level(level: int) -> None:
    if not isinstance(level, int) or isinstance(level, bool) or not (1 <= level <= MAX_LEVEL):
        raise ValidationError(f"hierarchy level must be an integer in 1..{MAX_LEVEL}, got {level!r}")


def check_bytes(need: int, what: str) -> None:
    """Raise ``ValidationError`` if ``what``, ``need`` bytes, exceeds ``MAX_SCHUR_BYTES``."""
    if need > MAX_SCHUR_BYTES:
        raise ValidationError(
            f"{what} would need {need / 2**30:.1f} GiB, more than the {MAX_SCHUR_BYTES / 2**30:g} GiB cap"
        )


def check_program_size(n: int, level: int) -> None:
    """Raise ``ValidationError`` unless ``n`` is a setting count, ``level`` a
    hierarchy level and the level's ``cell_class`` for ``n`` settings fits
    ``MAX_SCHUR_BYTES``; reads ``(n, level)`` alone, so it runs before
    anything is built."""
    Scenario(n)  # validates n
    _check_level(level)
    size = basis_size(n, level)
    check_bytes(8 * size * size, f"the level-{level} basis for n = {n} has {size} words; its cell_class")


def _program(
    objective: BellExpression, conditions, level: int, description: str
) -> MomentProgram:
    """Maximize ``objective`` with the identity moment pinned to 1 and each
    ``(expression, target)`` condition pinned to its target."""
    n = objective.scenario.n_settings
    check_program_size(n, level)
    basis, class_index, cell_class = _moment_structure(n, level)
    n_classes = len(class_index)
    vec, offset = _expression_to_moments(objective, class_index, n_classes)
    pin = np.zeros(n_classes)
    pin[class_index[((), ())]] = 1.0
    equalities: list[tuple[np.ndarray, float]] = [(pin, 1.0)]
    for expr, target in conditions:
        row, const = _expression_to_moments(expr, class_index, n_classes)
        equalities.append((row, target - const))
    return MomentProgram(
        n_settings=n,
        level=level,
        basis=basis,
        class_words=tuple(class_index),
        cell_class=cell_class,
        objective=vec,
        objective_offset=offset,
        equalities=tuple(equalities),
        description=description,
        zero_terms=tuple(
            key for expr, t in conditions if zero_sign(expr, t) for key, _ in expr.items()
        ),
    )


def build_program(paradox: HardyParadox, level: int) -> MomentProgram:
    """Moment program maximizing the paradox's Hardy term under its conditions."""
    hardy = BellExpression(paradox.scenario, {paradox.hardy_term: 1.0})
    return _program(hardy, paradox.conditions, level, f"hardy:{paradox.paradox_id}")


def build_expression_program(expr: BellExpression, level: int) -> MomentProgram:
    """Moment program maximizing a bare Bell expression (no condition pins)."""
    return _program(expr, (), level, "expression-maximum")


@dataclass(frozen=True)
class SdpSolution:
    """Solved moment program with certificates.

    ``moment_matrix`` is assembled from the class moments, so cells in one
    identification class are exactly equal by construction.  ``residuals``
    holds the violation of each declared equality, identity pin first.
    """

    objective_value: float
    moment_matrix: np.ndarray
    status: str
    min_eigenvalue: float
    residuals: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _kernel(program: MomentProgram) -> np.ndarray:
    """Rows ``c`` with ``M c = 0`` for every feasible moment matrix ``M``.

    A forced term ``P(ij|xy) = 0`` means ``Pi_i^x Pi_j^y psi = 0``, so for a
    basis word ``w`` the vector ``w Pi_i^x Pi_j^y psi`` is zero too; when
    every word of that product is in the basis, its expansion over the basis
    rows is such a ``c``.
    """
    index = {m: p for p, m in enumerate(program.basis)}
    rows = []
    for i, j, x, y in program.zero_terms:
        const, words = _moment_terms(i, j, x, y)
        if const:  # the identity word of P(11|xy) = <(1 - E_x)(1 - F_y)>
            words = [(((), ()), const), *words]
        for w in program.basis:
            cols = [index.get(product(w, word)) for word, _ in words]
            if None in cols:
                continue
            c = np.zeros(program.size)
            np.add.at(c, cols, [coeff for _, coeff in words])
            if c.any():
                rows.append(c)
    return np.array(rows).reshape(-1, program.size)


def _row_reduce(rows: list[tuple[np.ndarray, float]]):
    """RREF of a small equality system; returns its solved rows
    ``(pivot, row, rhs)`` or None if the system is inconsistent."""
    work = [(vec.astype(float).copy(), float(rhs)) for vec, rhs in rows]
    solved: list[tuple[int, np.ndarray, float]] = []
    for vec, rhs in work:
        for p, pvec, prhs in solved:
            factor = vec[p]
            if factor != 0.0:
                vec = vec - factor * pvec
                rhs = rhs - factor * prhs
        scale = np.abs(vec).max(initial=0.0)
        if scale <= 1e-12:
            if abs(rhs) > 1e-9:
                return None
            continue
        p = int(np.abs(vec).argmax())
        pvec = vec / vec[p]
        prhs = rhs / vec[p]
        solved = [
            (p2, v2 - v2[p] * pvec, r2 - v2[p] * prhs) for p2, v2, r2 in solved
        ]
        solved.append((p, pvec, prhs))
    return solved


def _swap_permutations(program: MomentProgram):
    """Party swap as ``(class_perm, basis_perm)``, or None unless it maps the
    forced terms onto themselves and leaves the objective and the set of
    equality rows invariant (to 1e-12)."""
    zero = set(program.zero_terms)
    if {(j, i, y, x) for i, j, x, y in zero} != zero:
        return None
    basis_index = {m: i for i, m in enumerate(program.basis)}
    basis_perm = [basis_index.get((b, a)) for a, b in program.basis]
    if None in basis_perm:
        return None
    basis_perm = np.array(basis_perm)
    # the swap of cell (p, q)'s word is the word of cell (swap p, swap q)
    cells = program.cell_class
    class_perm = np.empty(program.n_classes, dtype=np.int64)
    class_perm[cells] = cells[np.ix_(basis_perm, basis_perm)]

    def moved(vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(vec)
        out[class_perm] = vec
        return out

    def same(u: np.ndarray, v: np.ndarray) -> bool:
        return bool(np.allclose(u, v, rtol=0.0, atol=1e-12))

    if not same(moved(program.objective), program.objective):
        return None
    rows = program.equalities
    for vec, rhs in rows:
        image = moved(vec)
        if not any(rhs == rhs2 and same(image, vec2) for vec2, rhs2 in rows):
            return None
    return class_perm, basis_perm


@dataclass(frozen=True)
class _AffineMap:
    """Class moments ``y = y0 + n @ z`` of the solver variables ``z``.

    Block ``b`` of the LMI is ``V_b^T M(y) V_b`` with ``V_b = bases[b]``, the
    ``size x dim_b`` map onto the rows or their swap combinations, less the
    kernel; ``face_dim``, their summed width, is None without a kernel.
    """

    y0: np.ndarray
    n: scipy.sparse.csr_matrix
    bases: tuple[scipy.sparse.csr_matrix, ...]
    problem: LmiProblem
    symmetric: bool
    face_dim: int | None


def _affine_map(program: MomentProgram) -> _AffineMap | None:
    """Map from the free solver variables to the LMI blocks; None if the
    equalities are inconsistent.  Raises ``ValidationError`` once the count m
    of free variables shows that the solver's m x m array would exceed
    ``MAX_SCHUR_BYTES``, before the blocks are built.

    Swapped classes share a column, and the row-reduced equalities, with
    ``M(y) c = 0`` for each kernel row ``c``, express each pivot column
    through the free ones.  The maps are index arrays: class to column is
    ``orbit``, cell to class is ``program.cell_class``.
    """
    import scipy.linalg
    import scipy.sparse

    n_classes, size = program.n_classes, program.size
    kernel = _kernel(program)
    swap = _swap_permutations(program)
    class_perm, basis_perm = swap or (np.arange(n_classes), np.arange(size))

    reps, orbit = np.unique(np.minimum(np.arange(n_classes), class_perm), return_inverse=True)
    n_orbits = len(reps)
    pins = [(np.bincount(orbit, vec, n_orbits), rhs) for vec, rhs in program.equalities]
    # M(y) c = 0: row (p, j) sums kernel row j's entries over the orbits of M's row p
    j, q = np.nonzero(kernel)
    at = (np.arange(size)[:, None] * len(kernel) + j) * n_orbits + orbit[program.cell_class[:, q]]
    null = np.bincount(at.ravel(), np.tile(kernel[j, q], size), size * len(kernel) * n_orbits)
    solved = _row_reduce(pins + [(row, 0.0) for row in null.reshape(-1, n_orbits)])
    if solved is None:
        return None
    free = np.setdiff1d(np.arange(n_orbits), [p for p, _, _ in solved])
    m = len(free)
    check_bytes(8 * m * m, f"the level-{program.level} program has m = {m} free variables; its m x m solver array")
    # orbit moments w0 + P z: free orbits are the variables, pivots follow
    w0 = np.zeros(n_orbits)
    rows, cols, vals = [free], [np.arange(m)], [np.ones(m)]
    for p, pvec, prhs in solved:
        w0[p] = prhs
        c = np.flatnonzero(pvec[free])
        rows.append(np.full(len(c), p))
        cols.append(c)
        vals.append(-pvec[free[c]])
    p_map = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_orbits, m),
    )
    y0 = w0[orbit]
    n_map = p_map[orbit]

    # the identity's fixed columns and the (I +- Pi)/sqrt(2) columns of the swap Pi
    eye = scipy.sparse.identity(size, format="csc")
    swapped = eye[:, basis_perm]
    fixed = basis_perm == np.arange(size)
    lo = basis_perm > np.arange(size)
    root = 1.0 / math.sqrt(2.0)
    plus = scipy.sparse.hstack([eye[:, fixed], root * (eye + swapped)[:, lo]], format="csr")
    bases = (plus, (root * (eye - swapped)[:, lo]).tocsr()) if lo.any() else (plus,)
    if len(kernel):  # each swap sector's complement of the kernel
        faces = [v @ scipy.linalg.null_space(kernel @ v) for v in bases]
        bases = tuple(scipy.sparse.csr_matrix(v) for v in faces if v.shape[1])

    f0_blocks, f_blocks = [], []
    cells = program.cell_class.ravel()
    for v in bases:
        dim = v.shape[1]
        # kron(V, V)^T with each cell of M read as its class
        k = scipy.sparse.kron(v, v, format="coo")
        to_block = scipy.sparse.csr_matrix((k.data, (k.col, cells[k.row])), shape=(dim * dim, n_classes))
        f0_blocks.append((to_block @ y0).reshape(dim, dim))
        f_blocks.append(to_block @ n_map)
    return _AffineMap(
        y0=y0,
        n=n_map,
        bases=bases,
        problem=LmiProblem(f0_blocks, f_blocks, n_map.T @ program.objective),
        symmetric=swap is not None,
        face_dim=sum(v.shape[1] for v in bases) if len(kernel) else None,
    )


def solve(program: MomentProgram) -> SdpSolution:
    """Solve a moment program; maximizes its objective over PSD moment matrices.

    Everything runs on one BLAS thread, so the result does not depend on the
    thread count; ``diagnostics["blas_threads"]`` is 1, or None when no
    OpenBLAS could be pinned.  ``diagnostics["iteration_log"]`` is the
    solver's ``LmiSolution.log``.
    """
    with _single_blas_thread() as threads:
        amap = _affine_map(program)
        if amap is None:
            return SdpSolution(
                objective_value=float("nan"),
                moment_matrix=np.zeros((program.size, program.size)),
                status=STATUS_INFEASIBLE,
                min_eigenvalue=0.0,
                residuals=np.full(len(program.equalities), np.inf),
                diagnostics={"reason": "inconsistent equality constraints", "blas_threads": threads},
            )
        raw = solve_lmi(amap.problem)

        y_class = amap.y0 + amap.n @ raw.y
        moment_matrix = y_class[program.cell_class]
        residuals = np.array([abs(vec @ y_class - rhs) for vec, rhs in program.equalities])
        min_eig = float(np.linalg.eigvalsh(moment_matrix)[0])
        objective_value = float(program.objective @ y_class + program.objective_offset)
        # the solver maximizes b . z; the objective at z = 0 is this constant
        constant = float(program.objective @ amap.y0) + program.objective_offset

        status = raw.status
        if status == STATUS_OPTIMAL and (min_eig < -1e-8 or residuals.max(initial=0.0) > 1e-7):
            status = STATUS_MAX_ITERATIONS  # do not certify a sloppy iterate
        return SdpSolution(
            objective_value=objective_value,
            moment_matrix=moment_matrix,
            status=status,
            min_eigenvalue=min_eig,
            residuals=residuals,
            diagnostics={
                "iterations": raw.iterations,
                "rel_gap": raw.rel_gap,
                "primal_infeasibility": raw.primal_infeasibility,
                "dual_infeasibility": raw.dual_infeasibility,
                "dual_objective": raw.objective + constant,
                "primal_objective": raw.primal_objective + constant,
                "matrix_size": program.size,
                "classes": program.n_classes,
                "variables": amap.problem.m,
                "block_dims": [v.shape[1] for v in amap.bases],
                "symmetry_reduced": amap.symmetric,
                "facially_reduced_size": amap.face_dim,
                "blas_threads": threads,
                "iteration_log": raw.log,
            },
        )
