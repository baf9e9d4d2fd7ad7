"""Exact rational linear programming for covering and partition masters.

The only LPs solved in this package have the shape

    minimize 1'x   subject to  Mx = 1  (partition)  or  Mx >= 1  (cover),
    x >= 0

where M is a 0/1 edge-by-biclique incidence matrix, stored column-wise
as bitsets over rows.  The solver is a revised simplex whose basis
inverse is kept fraction free: an integer matrix T and a positive
integer den with B^-1 = T/den, den being the basis determinant up to
sign.  Every reported objective, primal, and dual is a true rational
number, not an approximation.

Two entry points: `solve` is stateless and certifies its answer
(strong duality, feasibility, or a Farkas ray), on `SimplexSolver`,
the engine underneath.  `solve_basis` needs no simplex: it solves a
float solver's optimal basis exactly, for column generation's one
loop (`colgen._generate`), in the full space and the orbit space.

Design notes that matter for correctness:

- Every solve that can starts feasible, from a basis whose inverse
  has a closed form at determinant +-1 (`install_start`): a cover
  from a minimal cover with surpluses on the other rows, a partition
  from its singleton columns.  Phase 1 from the all-artificial basis
  (`solve_from_cold`) is only the fallback, and the only source of
  Farkas rays.
- The columns of a cold start can leave the constraint matrix rank
  deficient.  Redundant rows keep an artificial variable
  pinned in the basis at value zero forever; the ratio test caps the
  step at zero whenever a pivot would move one, which is what makes the
  basis stay feasible without row deletion or Big-M terms.
- Dantzig pricing with a lexicographic ratio test is the only pivot
  rule.  These masters are brutally degenerate (hundreds of ties at
  step zero), and plain tie-breaking makes the walk thrash for
  thousands of pivots.  The lexicographic rule is an exact perturbation
  of the right hand side in the direction of the basis at phase start,
  so ties are broken uniquely and no basis ever repeats.  Whenever an
  artificial leaves the basis the perturbation reference is reset; each
  reset strictly shrinks the artificial count, and between resets the
  perturbed objective strictly decreases, so the solve terminates.
  `MAX_PIVOTS` only guards against a bug in that argument.
- The pivot update on T is the classical two-multiplication step
  T'[i] = (t[pos]*T[i] - t[i]*T[pos]) / den, whose division is exact
  by Sylvester's identity because T stays a signed adjugate.  That
  keeps the hot loops in machine integers (numpy int64, promoted to
  Python-int arrays on overflow risk) with rationals only at the
  interface.
- Basis determinants on these incidence matrices routinely blow past
  int64, so the Python-int regime must stay usable.  The two regimes
  differ only in `_exchange` and `_set_matrix`: every pivot recomputes
  basic values and duals from T and picks the entering column by one
  exact integer scan of the pool, so no state is carried between pivots
  and none can drift.  The lexicographic reference is never
  materialized; its entries are read off T and a snapshot of the reset
  basis only when a tie actually needs them.
- A float solver's optimal basis is certified without a simplex and
  without a basis inverse (`solve_basis`): its rounded values are
  checked to solve the basis systems exactly, one integer product
  each, and only when they do not is a system solved by fraction-free
  elimination.  The float solver finds the basis and exact arithmetic
  only certifies it; the caller prices the dual exactly, so weak
  duality bounds the optimum from both sides (Applegate, Cook, Dash
  and Espinoza, ORL 2007).
- Branch and bound (`solve_integer`) solves its root with `solve` and
  every other node on one HiGHS model of the root LP, as a change of
  column bounds that HiGHS re-solves hot from its last basis.  HiGHS
  only steers there too.  A node is pruned only on its rounded row
  duals after an exact integer check that they are dual feasible for
  the node's own LP, which gives an exact lower bound: one sum per
  root column, since y is zero off the node's rows, in int64 unless a
  sum could reach 2^62.  An integral float leaf is closed only after
  its columns are checked edge by edge to partition (or cover) the
  node's rows, in exactly as many columns as that bound.  A node whose
  float solve fails, or whose duals or leaf fail a check, is solved
  exactly by `solve` instead.
- Branching is orbital when the caller supplies symmetries of the LP
  (Ostrowski, Linderoth, Rossi and Smriglio, Math. Prog. 2011; Margot
  2010): row maps that send every column onto a column, as the
  automorphisms of a matrix do with its bicliques.  A node keeps maps
  h that map its fixed-at-one columns, and its fixed-at-zero ones,
  each onto themselves; each such h maps the node's integer solutions
  onto themselves at the same cost.  The x=0 child of column j then
  fixes at zero every h(j), not j alone: h^-1 maps any solution with
  x_h(j) = 1 to one with x_j = 1, which the x=1 child already
  searches.  The x=1 child keeps the maps that fix j, and the x=0
  child keeps them all, since they map j's orbit onto itself.
  The group G is built at most once, lazily: at the first x=0 child
  that must branch while no incumbent meets the root bound's ceiling.
  That child's bound, taken with j alone at zero, still holds, and
  the rest of j's orbit is fixed at zero below it.  A child pruned or
  closed at once gains nothing from G, and once an incumbent meets
  the ceiling it is optimal, nodes are pruned on their bounds, and all
  symmetry work stops, as it does in a subtree once only the identity
  is left.  G is checked exactly, map by map and
  column by column, and closed under composition up to
  `symmetry._CLOSURE_CAP` maps.  Any set of checked maps is sound
  (when the cap cuts the closure, each orbit is closed under the maps
  kept), so the cap only weakens the pruning.  G is held as row maps,
  |G| x rows, and a column's images are looked up by their row
  bitsets.  Values stay exact and the same; the selection and the
  node count move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy's private HiGHS binding; see pyproject.toml.
from scipy.optimize._highspy import _core as _highs

from ._rational import ZERO, clear_denominators, rat, rat_ceil
from .core import BinaryMatrix, bit_indices, incidence_column
from .errors import ContractViolation, InvariantViolation, NodeCapExceeded

PARTITION = "partition"
COVER = "cover"

# Hard circuit breaker; hitting it means a termination bug.
MAX_PIVOTS = 2_000_000

# Default limit on the LP solves of one branch and bound.
NODE_CAP = 100_000

# Entry bound that keeps every int64 product in the kernel (pivot
# numerators, dual sums, pricing dot products) below 2^62.
_INT64_GUARD = 1 << 62

# When true, every pivot re-checks that the Sylvester division is exact.
# Costly; meant for tests, not production runs.
VERIFY_PIVOTS = False


@dataclass(frozen=True)
class LinearProgram:
    """Min 1'x over Mx (= or >=) 1, x >= 0; columns are row bitsets."""

    num_rows: int
    columns: tuple[int, ...]
    sense: str

    def __post_init__(self):
        if self.num_rows < 1:
            raise ContractViolation("LP needs at least one row")
        if self.sense not in (PARTITION, COVER):
            raise ContractViolation(f"unknown sense {self.sense!r}")
        full = (1 << self.num_rows) - 1
        for k, bits in enumerate(self.columns):
            if bits <= 0 or bits & ~full:
                raise ContractViolation(f"column {k} empty or out of row range")

    @property
    def num_cols(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class LpSolution:
    """Certified outcome of a stateless solve.

    For status "optimal": exact objective, primal (per column) and
    dual (per row).

    For status "infeasible": objective and primal are None and `dual`
    holds a Farkas ray y with 1'y > 0 and M'y <= 0 (y >= 0 for cover).
    """

    status: str
    objective: object
    primal: tuple | None
    dual: tuple


@dataclass(frozen=True)
class IntegerSolution:
    """Optimal 0/1 solution from branch and bound."""

    objective: int
    selection: tuple[int, ...]
    nodes: int


def build_master(a: BinaryMatrix, bicliques, sense: str) -> LinearProgram:
    """Edge-by-biclique master LP; row order is a's edge-index order."""
    cols = tuple(incidence_column(a, b) for b in bicliques)
    return LinearProgram(a.num_edges, cols, sense)


# ---------------------------------------------------------------------------
# Stateful engine
# ---------------------------------------------------------------------------

# Basis slots hold either a structural column id (>= 0) or a row
# variable: surplus of row r is -1 - r, artificial of row r is
# -1 - num_rows - r.  Negative codes never collide with column ids.

class SimplexSolver:
    """Revised simplex over a column set fixed when it is built.

    `columns` are row bitsets, and a column's id is its position among
    them.  `solve` builds a fresh solver for each LP.

    The basis inverse lives in `self.T` (dense integer numpy array) and
    `self.delta` (positive int) with B^-1 = T/delta.  Basic values x_B
    and duals y are row and column sums of T over delta (the right hand
    side is all ones and every cost is 0 or 1), recomputed on every
    pivot.  T holds int64 entries until a magnitude guard promotes it to
    Python-int (object dtype) arrays before any product could overflow.
    Results are exact in both regimes.
    """

    def __init__(self, num_rows: int, sense: str, columns):
        if sense not in (PARTITION, COVER):
            raise ContractViolation(f"unknown sense {sense!r}")
        self.m = num_rows
        self.sense = sense
        # (bits, rows) per column id.
        self.columns: list[tuple[int, tuple[int, ...]]] = []
        for bits in columns:
            if bits <= 0 or bits >> num_rows:
                raise ContractViolation(
                    f"column {len(self.columns)} empty or out of row range")
            self.columns.append((bits, bit_indices(bits)))
        # The columns as a dense 0/1 matrix for vectorized pricing.
        self._pool = np.zeros((num_rows, len(self.columns)), dtype=np.int8)
        for cid, (_, rows) in enumerate(self.columns):
            self._pool[list(rows), cid] = 1
        self.basis: list[int] | None = None
        self.T: np.ndarray | None = None
        self.delta: int = 1
        # Lexicographic reference columns (row indices and a sign) for
        # the basis at the last reset; G = T @ B0 is evaluated from
        # these on demand instead of being carried as a matrix.
        self._lexref: list | None = None
        self._objmode = False
        self._tmax = 0
        self.pivots = 0
        self._feasible = False
        self._farkas: tuple | None = None

    # -- basis installation --

    def install_start(self, col_ids) -> None:
        """Feasible start from columns that cover every row, each owning
        a private row that no other start column covers.

        Each column becomes basic at value 1 on its lowest private row.
        Every other row r gets a row variable: in a partition the start
        columns must be pairwise disjoint, and r gets an artificial
        pinned at zero; in a cover r gets its surplus, at r's cover
        count minus one.  With the private rows P first, the basis is
        B = [[I, 0], [A_NP, s*I]] for s = +1 (artificial) or -1
        (surplus), so B^-1 = [[I, 0], [-s*A_NP, s*I]] in closed form, at
        determinant +-1 and with no elimination.
        """
        m = self.m
        count = [0] * m
        for cid in col_ids:
            for r in self.columns[cid][1]:
                count[r] += 1
        if not all(count):
            raise ContractViolation("start columns must cover every row")
        if self.sense == PARTITION and max(count) > 1:
            raise ContractViolation("start columns must be disjoint")
        s = 1 if self.sense == PARTITION else -1
        basis = [self.artificial(r) if s == 1 else -1 - r for r in range(m)]
        t = np.eye(m, dtype=np.int64)
        for cid in col_ids:
            rows = self.columns[cid][1]
            rep = next((r for r in rows if count[r] == 1), None)
            if rep is None:
                raise ContractViolation(
                    f"start column {cid} has no row of its own")
            basis[rep] = cid
            for i in rows:
                if i != rep:
                    t[i, rep] = -s
        for r, code in enumerate(basis):
            if code < 0:
                t[r, r] = s
        self.basis = basis
        self._set_matrix(t, 1)
        self._feasible = True

    # -- solving --

    def solve_from_cold(self) -> str:
        """Phase 1 from the all-artificial basis, then phase 2; returns
        "optimal" or "infeasible".  `solve` falls back to this when it
        has no start for `install_start`."""
        self.basis = [self.artificial(r) for r in range(self.m)]
        self._set_matrix(np.eye(self.m, dtype=np.int64), 1)
        self._feasible = False
        self._optimize(phase=1)
        if self._phase1_objective() > 0:
            self._farkas = tuple(self._duals(phase=1))
            return "infeasible"
        self._feasible = True
        self._optimize(phase=2)
        return "optimal"

    def reoptimize(self) -> None:
        """Phase 2 from the current feasible basis."""
        if self.basis is None or not self._feasible:
            raise ContractViolation("no feasible basis installed")
        self._optimize(phase=2)

    def objective(self):
        x = self._basic_numerators()
        total = sum(int(x[i]) for i in range(self.m) if self.basis[i] >= 0)
        return rat(total, self.delta)

    def duals(self) -> tuple:
        return tuple(self._duals(phase=2))

    def primal_by_id(self) -> dict[int, object]:
        """Structural values, zero entries omitted."""
        x = self._basic_numerators()
        out = {}
        for i, code in enumerate(self.basis):
            if code >= 0 and x[i]:
                out[code] = rat(int(x[i]), self.delta)
        return out

    def farkas_ray(self) -> tuple:
        return self._farkas

    def artificial(self, r: int) -> int:
        """Basis code of row r's artificial."""
        return -1 - self.m - r

    # -- internals --

    def _is_art(self, code: int) -> bool:
        return code < -self.m

    def _is_surplus(self, code: int) -> bool:
        return -1 - self.m < code < 0

    def _set_matrix(self, t: np.ndarray, delta: int) -> None:
        # Entries above limit would let an m*m-term dot product overflow
        # int64, so such matrices live as Python-int arrays instead.
        # The full entry scan needed to demote back is itself costly, so
        # it only runs when the determinant already fits and then only
        # every few pivots.
        self.delta = delta
        limit = _INT64_GUARD // max(1, self.m * self.m)
        if t.dtype == object and delta <= limit and self.pivots % 8 == 0:
            if all(abs(int(v)) <= limit for v in t.flat):
                t = t.astype(np.int64)
        self.T = t
        self._objmode = t.dtype == object
        if not self._objmode:
            self._tmax = int(np.abs(t).max(initial=0))
            if self._tmax > limit:
                self._promote()

    def _promote(self) -> None:
        # Python-int arrays: slower, but no magnitude limits.
        self.T = self.T.astype(object)
        self._objmode = True

    def _lex_reset(self) -> None:
        # Snapshot the basis columns: G = T @ B0 equals delta * I right
        # now, and the pivot recurrence preserves the identity, so the
        # snapshot is enough to evaluate any G entry later.  Every basic
        # row is strictly lexicographically positive in [x_B | G].
        ref = []
        for code in self.basis:
            if code >= 0:
                ref.append((list(self.columns[code][1]), 1))
            elif self._is_surplus(code):
                ref.append(([-1 - code], -1))
            else:
                ref.append(([-1 - self.m - code], 1))
        self._lexref = ref
        # Ties are resolved over the reference columns in a fixed order;
        # any fixed order keeps the termination argument, so use the
        # cheapest-to-evaluate columns first.
        self._lexorder = sorted(range(self.m), key=lambda l: (len(ref[l][0]), l))

    def _basic_numerators(self) -> np.ndarray:
        # x_B*delta; the RHS is all ones so this is just row sums of T.
        return self.T.sum(axis=1)

    def _dual_numerators(self, phase: int) -> np.ndarray:
        mask = np.fromiter(
            ((code >= 0) if phase == 2 else self._is_art(code) for code in self.basis),
            dtype=bool, count=self.m)
        if not mask.any():
            return np.zeros(self.m, dtype=self.T.dtype)
        return self.T[mask].sum(axis=0)

    def _duals(self, phase: int) -> list:
        # y = c_B' B^-1 with phase-dependent basic costs (all 0/1).
        return [rat(int(v), self.delta) for v in self._dual_numerators(phase)]

    def _phase1_objective(self):
        x = self._basic_numerators()
        total = sum(int(x[i]) for i in range(self.m) if self._is_art(self.basis[i]))
        return rat(total, self.delta)

    def _choose_entering(self, y_nums: np.ndarray, phase: int):
        """Entering variable code, or None at optimality.

        `y_nums` holds the duals scaled by delta, so reduced costs
        compare as plain integers: column j is eligible exactly when
        sum(y_nums over its rows) > cost_j*delta.  One exact scan over
        the columns picks Dantzig's most negative reduced cost, ties to
        the lowest id; in a cover master a surplus row with a negative
        dual enters instead when its reduced cost is strictly better.
        """
        thresh = self.delta if phase == 2 else 0
        best_code = None
        best_num = None
        if self.columns:
            scores = y_nums @ self._pool
            cid = int(np.argmax(scores))
            if scores[cid] > thresh:
                best_code = cid
                best_num = thresh - int(scores[cid])
        if self.sense == COVER:
            r = int(np.argmin(y_nums))
            rcn = int(y_nums[r])
            if rcn < 0 and (best_num is None or rcn < best_num):
                best_code = -1 - r
        return best_code

    def _ftran_scaled(self, code: int) -> np.ndarray:
        """t*delta for the entering column, as integers."""
        if code >= 0:
            _, rows = self.columns[code]
            return self.T[:, list(rows)].sum(axis=1)
        if self._is_surplus(code):
            return -self.T[:, -1 - code]
        return self.T[:, -1 - self.m - code].copy()

    def _choose_leaving(self, t_nums: np.ndarray, phase: int, x_nums: np.ndarray):
        """Leaving row, or None when no row limits the step.

        An artificial row moved in the negative direction cannot join
        the ratio test, yet letting the step through would lift the
        artificial off zero; such rows force an immediate zero-step
        repair pivot, the artificial of the lowest constraint row first.
        Artificial rows moved positively sit at ratio zero and block
        oversized steps on their own.

        Otherwise the row is the lexicographic minimum of the vector
        ratios (x_i, G_i)/t_i over rows with t_i > 0, compared by exact
        cross multiplication level by level.  G = T @ B0 for the reset
        snapshot B0, so its entries are computed here on demand; rows of
        G are rows of a nonsingular matrix, so the minimum is unique and
        the pivot sequence cannot cycle between resets.
        """
        basis = self.basis
        if phase == 2:
            forced = [i for i in np.nonzero(t_nums < 0)[0].tolist()
                      if self._is_art(basis[i])]
            if forced:
                return min(forced, key=lambda i: -1 - self.m - basis[i])
        rows = np.nonzero(t_nums > 0)[0].tolist()
        if not rows:
            return None
        cands: list[int] = []
        best_x = best_t = 0
        for i in rows:
            xi = int(x_nums[i])
            ti = int(t_nums[i])
            if not cands:
                cands = [i]
                best_x, best_t = xi, ti
                continue
            lhs = xi * best_t
            rhs = best_x * ti
            if lhs < rhs:
                cands = [i]
                best_x, best_t = xi, ti
            elif lhs == rhs:
                cands.append(i)
        if len(cands) > 1:
            tc = self.T[cands]
            tv = [int(t_nums[i]) for i in cands]
            idx = list(range(len(cands)))
            for level in self._lexorder:
                if len(idx) == 1:
                    break
                rows_l, sign = self._lexref[level]
                if len(rows_l) == 1:
                    col = tc[:, rows_l[0]]
                else:
                    col = tc[:, rows_l].sum(axis=1)
                keep: list[int] = []
                best_g = best_t = 0
                for k in idx:
                    gi = sign * int(col[k])
                    ti = tv[k]
                    if not keep:
                        keep = [k]
                        best_g, best_t = gi, ti
                        continue
                    lhs = gi * best_t
                    rhs = best_g * ti
                    if lhs < rhs:
                        keep = [k]
                        best_g, best_t = gi, ti
                    elif lhs == rhs:
                        keep.append(k)
                idx = keep
            cands = [cands[idx[0]]]
        return cands[0]

    def _exchange(self, enter: int, pos: int, t_nums: np.ndarray) -> None:
        """Put `enter` in slot `pos`: T and delta by Sylvester's identity,
        promoting T to Python ints first if a product could overflow."""
        p = int(t_nums[pos])
        if p == 0:
            raise InvariantViolation("zero pivot element")
        if not self._objmode:
            spread = abs(p) + int(np.abs(t_nums).max())
            if spread * max(1, self._tmax) >= _INT64_GUARD:
                self._promote()
                t_nums = t_nums.astype(object)
        numer = self._sylvester(self.T, t_nums, pos, p, self.delta)
        if p < 0:
            numer = -numer
        self.basis[pos] = enter
        self._set_matrix(numer, abs(p))

    def _sylvester(self, mat: np.ndarray, t_nums: np.ndarray, pos: int,
                   p: int, den: int) -> np.ndarray:
        row = mat[pos].copy()
        if p == den:
            # Pivot equal to the old determinant: rows with a zero
            # tableau entry come out unchanged, so skip them.  Common on
            # these incidence bases, and a large saving once entries are
            # Python ints.
            nz = np.nonzero(t_nums)[0]
            numer = mat.copy()
            block = p * mat[nz]
            block -= np.outer(t_nums[nz], row)
            if den != 1:
                if VERIFY_PIVOTS and np.any(block % den):
                    raise InvariantViolation("inexact division in pivot update")
                block //= den
            numer[nz] = block
        else:
            numer = p * mat
            numer -= np.outer(t_nums, row)
            if den != 1:
                if VERIFY_PIVOTS and np.any(numer % den):
                    raise InvariantViolation("inexact division in pivot update")
                numer //= den
        numer[pos] = row
        return numer

    def _optimize(self, phase: int) -> None:
        self._lex_reset()
        while True:
            self.pivots += 1
            if self.pivots > MAX_PIVOTS:
                raise InvariantViolation("pivot limit hit; simplex is not terminating")
            x_nums = self._basic_numerators()
            y_nums = self._dual_numerators(phase)
            enter = self._choose_entering(y_nums, phase)
            if enter is None:
                self._check_basis_consistency(phase, x_nums, y_nums)
                return
            t_nums = self._ftran_scaled(enter)
            pos = self._choose_leaving(t_nums, phase, x_nums)
            if pos is None:
                # Impossible for these LPs: objectives are bounded below by 0.
                raise InvariantViolation("unbounded direction in a bounded LP")
            leaving = self.basis[pos]
            self._exchange(enter, pos, t_nums)
            if self._is_art(leaving):
                # One artificial gone for good; restart the perturbation
                # reference from the new basis.
                self._lex_reset()

    def _check_basis_consistency(self, phase: int, x_nums, y_nums) -> None:
        # End-of-phase self audit: primal feasibility and scaled strong
        # duality of the final basis.
        if any(int(v) < 0 for v in x_nums):
            raise InvariantViolation("scaled basis lost primal feasibility")
        costly = ((c >= 0) if phase == 2 else self._is_art(c) for c in self.basis)
        obj = sum(int(x_nums[i]) for i, flag in enumerate(costly) if flag)
        if int(y_nums.sum()) != obj:
            raise InvariantViolation("scaled basis lost strong duality")


# ---------------------------------------------------------------------------
# Stateless interface
# ---------------------------------------------------------------------------

def solve(lp: LinearProgram) -> LpSolution:
    """Solve to proven optimality or infeasibility, with exact certificates.

    Each call builds a fresh `SimplexSolver` and runs phase 2 only from
    a feasible start in closed form (`_start_columns`): a minimal cover
    for a cover, the singleton columns for a partition.  When there is
    none, because a cover's columns miss a row or a partition row has
    no singleton column, it starts cold, and phase 1 either finds a
    feasible basis or proves infeasibility.  Optimal solutions are
    checked for primal feasibility and exact strong duality before
    being returned; infeasible outcomes carry a verified Farkas ray.
    The optimal value is unique, but which optimal vertex is returned
    depends on the start.
    """
    s = SimplexSolver(lp.num_rows, lp.sense, lp.columns)
    start = _start_columns(s)
    if start is not None:
        s.install_start(start)
        s.reoptimize()
    elif s.solve_from_cold() == "infeasible":
        ray = s.farkas_ray()
        _check_farkas(lp, s.columns, ray)
        return LpSolution("infeasible", None, None, ray)
    x = [ZERO] * lp.num_cols
    for cid, v in s.primal_by_id().items():
        x[cid] = v
    y = s.duals()
    obj = s.objective()
    _check_optimal(lp, s.columns, x, y, obj)
    return LpSolution("optimal", obj, tuple(x), y)


def _start_columns(s: SimplexSolver) -> list[int] | None:
    """Column ids for `s.install_start`, or None when there are none.

    Cover: a minimal cover.  Columns are scanned smallest first, ties to
    the lower id, and each is dropped when all its rows are covered by
    the columns still kept, so every kept column ends up owning a row.
    Partition: each row's lowest-id singleton column, when every row
    has one.
    """
    m = s.m
    if s.sense == PARTITION:
        singles: dict[int, int] = {}
        for cid, (_, rows) in enumerate(s.columns):
            if len(rows) == 1:
                singles.setdefault(rows[0], cid)
        return [singles[r] for r in range(m)] if len(singles) == m else None
    count = [0] * m
    for _, rows in s.columns:
        for r in rows:
            count[r] += 1
    if not all(count):
        return None
    kept = set(range(len(s.columns)))
    for cid in sorted(kept, key=lambda k: (len(s.columns[k][1]), k)):
        rows = s.columns[cid][1]
        if all(count[r] > 1 for r in rows):
            for r in rows:
                count[r] -= 1
            kept.discard(cid)
    return sorted(kept)


def _check_optimal(lp: LinearProgram, columns, x, y, obj) -> None:
    # `columns` is lp's columns as a solver holds them, (bits, rows) per
    # column, so no column is split into its rows again here.
    # Denominators are cleared once, so every per-row and per-column
    # sum is over integers: x = xn / dx and y = yn / dy.
    dx, xn = clear_denominators(x)
    cover = [0] * lp.num_rows
    for (_, rows), v in zip(columns, xn):
        if v < 0:
            raise InvariantViolation("negative primal value")
        if v:
            for r in rows:
                cover[r] += v
    for r, c in enumerate(cover):
        ok = (c == dx) if lp.sense == PARTITION else (c >= dx)
        if not ok:
            raise InvariantViolation(f"primal infeasible at row {r}")
    dy, yn = clear_denominators(y)
    if rat(sum(yn), dy) != obj:
        raise InvariantViolation("strong duality does not hold exactly")
    if lp.sense == COVER and any(v < 0 for v in yn):
        raise InvariantViolation("cover dual must be nonnegative")
    getter = yn.__getitem__
    for k, (_, rows) in enumerate(columns):
        if sum(map(getter, rows)) > dy:
            raise InvariantViolation(f"dual infeasible at column {k}")


def _check_farkas(lp: LinearProgram, columns, y) -> None:
    # `columns` as in _check_optimal; y = yn / dy with dy > 0, so every
    # sign test holds on yn alone.
    _, yn = clear_denominators(y)
    if sum(yn) <= 0:
        raise InvariantViolation("Farkas ray has nonpositive objective")
    getter = yn.__getitem__
    for k, (_, rows) in enumerate(columns):
        if sum(map(getter, rows)) > 0:
            raise InvariantViolation(f"Farkas ray violated by column {k}")
    if lp.sense == COVER and any(v < 0 for v in yn):
        raise InvariantViolation("cover Farkas ray must be nonnegative")


# ---------------------------------------------------------------------------
# Exact basis solutions
# ---------------------------------------------------------------------------

def solve_basis(matrix: np.ndarray, num_cols: int, rhs, x, y):
    """The exact solution (x, y) of a float solver's optimal basis, or
    None when the basis is singular or its x is not feasible.

    `matrix` is the square integer basis matrix: `num_cols` basic
    columns of cost 1, then a unit column for each row whose slack is
    basic, which stands for an artificial of cost 0.  The result's x
    holds the basic columns' values, with matrix x = rhs, and y the row
    duals, with y' matrix = the costs.  The arguments `x` and `y` are
    the float solver's values rounded to nearby fractions: each is
    returned when it solves its system exactly, which costs one product
    with the basis, and is otherwise solved by Bareiss elimination.  x
    is refused when a value is negative or an artificial is not zero.

    x is then exactly feasible, so its sum is an upper bound on the
    LP's optimum, and sum(y) equals it; y priced exactly to its maximum
    alpha gives y / alpha, which is dual feasible: a lower bound.  No
    basis inverse is needed (Applegate, Cook, Dash and Espinoza, ORL
    2007).
    """
    n = len(matrix)
    costs = [1] * num_cols + [0] * (n - num_cols)
    x = list(x) + [ZERO] * (n - num_cols)
    if not _solves(matrix, x, rhs):
        x = _bareiss_solve(matrix.tolist(), rhs)
    if x is None or min(x) < 0 or any(x[num_cols:]):
        return None
    if not _solves(matrix.T, y, costs):
        y = _bareiss_solve(matrix.T.tolist(), costs)
    if y is None:
        return None
    return x[:num_cols], y


def _solves(matrix: np.ndarray, x, rhs) -> bool:
    """Whether matrix x == rhs exactly, for an integer matrix and
    rational x.  Every entry of the product is at most max|entry| times
    the numerators' absolute sum, so int64 holds it below
    _INT64_GUARD; Python ints take the rest."""
    den, nums = clear_denominators(x)
    if int(np.abs(matrix).max(initial=0)) * sum(map(abs, nums)) < _INT64_GUARD:
        product = matrix.dot(np.array(nums, dtype=np.int64))
    else:
        product = matrix.astype(object).dot(np.array(nums, dtype=object))
    return product.tolist() == [b * den for b in rhs]


def _bareiss_solve(matrix, rhs):
    """x with matrix x = rhs for a square integer matrix, exactly, or
    None when it is singular.  Fraction-free Gaussian elimination
    (Bareiss): every division is exact, so entries stay integers, and
    only the back substitution is rational."""
    n = len(matrix)
    m = [list(row) + [b] for row, b in zip(matrix, rhs)]
    prev = 1
    for p in range(n):
        pick = next((i for i in range(p, n) if m[i][p]), None)
        if pick is None:
            return None
        m[p], m[pick] = m[pick], m[p]
        top = m[p]
        pivot = top[p]
        for row in m[p + 1:]:
            f = row[p]
            for j in range(p + 1, n + 1):
                row[j] = (pivot * row[j] - f * top[j]) // prev
            row[p] = 0
        prev = pivot
    # With det the last pivot, det * x is an integer vector (Cramer),
    # so back substitution on it divides exactly too.
    det = prev
    scaled = [0] * n
    for i in reversed(range(n)):
        row = m[i]
        rest = sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = (row[n] * det - rest) // row[i]
    return [rat(v, det) for v in scaled]


# ---------------------------------------------------------------------------
# HiGHS models
# ---------------------------------------------------------------------------

_DUAL_SIMPLEX = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


def highs_model(num_rows: int, indptr, indices, data, sense: str):
    """A HiGHS model of min 1'x over Mx (= or >=) 1, x >= 0, or None
    when HiGHS refuses it.

    M is given by columns: column j's rows are indices[indptr[j]:
    indptr[j + 1]], ascending, with values in data at the same
    positions.  A partition and a cover differ only in the rows' upper
    bounds, 1 and infinity.  The options are the ones scipy's
    linprog(method="highs-ds") sets: presolve on, the simplex solver,
    the dual simplex strategy and no output, so the first solve gives
    linprog's vertex without linprog's per-call option checks and
    conversions.
    """
    n = len(indptr) - 1
    model = _highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("log_to_console", False)
    model.setOptionValue("presolve", "on")
    model.setOptionValue("solver", "simplex")
    model.setOptionValue("simplex_strategy", _DUAL_SIMPLEX)
    row_upper = np.full(num_rows, 1.0 if sense == PARTITION else _highs.kHighsInf)
    # The array form of passModel takes the numpy arrays as they are,
    # where filling a HighsLp's fields converts them element by element.
    passed = model.passModel(
        n, num_rows, len(indices), _COLWISE, _MINIMIZE, 0.0,
        np.ones(n), np.zeros(n), np.full(n, _highs.kHighsInf),
        np.ones(num_rows), row_upper, indptr, indices, data,
        np.zeros(n, dtype=np.int32))  # every column continuous
    return None if passed == _highs.HighsStatus.kError else model


def highs_solution(model):
    """Run `model`; its solution (col_value, row_dual, ...) when HiGHS
    reports an optimum, else None."""
    if (model.run() == _highs.HighsStatus.kError
            or model.getModelStatus() != _highs.HighsModelStatus.kOptimal):
        return None
    return model.getSolution()


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def solve_integer(lp: LinearProgram, node_cap: int = NODE_CAP,
                  symmetries=None) -> IntegerSolution:
    """Optimal integer (0/1) solution by LP-based branch and bound.

    Depth first, branching on the most fractional variable, diving on
    the x=1 side first.  The root is one `solve`; every other node is a
    bound change on one HiGHS model of the root LP, built for this call,
    and is pruned or closed only on exactly checked bounds, or else
    solved by `solve` (see the module notes).  The objective is the
    integer optimum whatever vertices HiGHS and `solve` return.  The
    selection is one optimum among possibly several, and it and the
    node count move with those vertices.  `node_cap` limits LP solves;
    exceeding it raises NodeCapExceeded carrying the incumbent and root
    bound.

    `symmetries`, when given, is a function of no arguments returning
    row maps of `lp`, each a sequence whose entry r is row r's image,
    and branching is orbital (see the module notes): the x=0 child of
    column j fixes at zero j's whole orbit under the node's symmetries,
    since a symmetry h maps any solution with x_h(j) = 1 onto one with
    x_j = 1, which the x=1 child searches.  The function is called at
    most once, at the first x=0 child that must branch while no
    incumbent meets the root bound's ceiling, so a search that meets
    it on its first dive never calls it.  The maps are checked
    exactly: one that is no permutation of the rows, or that sends
    some column onto no column, raises InvariantViolation, and the
    columns must be distinct.  The group they generate is closed up to
    `symmetry._CLOSURE_CAP` elements, which only weakens the pruning.
    The objective is the same with or without them; the selection and
    the node count move.
    """
    root = solve(lp)
    if root.status == "infeasible":
        raise ContractViolation("integer model is infeasible")
    search = _BranchAndBound(lp, node_cap, root.objective, symmetries)
    cols = list(enumerate(lp.columns))
    frac = search.exact_node(cols, [], root)
    if frac is not None:
        search.indptr, search.indices, search.model = _node_model(lp)
        search.branch((1 << lp.num_rows) - 1, cols, [], frac)
    if search.best is None:
        raise InvariantViolation("no integer solution found in a feasible model")
    selection = tuple(1 if k in search.chosen else 0 for k in range(lp.num_cols))
    return IntegerSolution(search.best, selection, search.nodes)


# A float x this close to 0 or 1 counts as integral.  It only steers:
# an integral float leaf is checked exactly before it is closed.
_INTEGRAL_TOL = 1e-6

# A node's float row duals are rounded to multiples of 2^-_DUAL_BITS
# and shrunk by the factor 1 - 2^-_SHRINK_BITS.  HiGHS meets the dual
# constraints to within ~1e-12 on these LPs, far inside the shrink, so
# they then hold exactly.  The shrink lowers the bound's ceiling only
# for a node whose LP value lies that close above an integer.
_DUAL_BITS = 40
_SHRINK_BITS = 30

# The symmetries of a node that uses none.
_NO_GROUP = ()


class _BranchAndBound:
    """The search state of one `solve_integer` call.

    A node is its live rows (`row_mask`), its live columns as (column
    id, bits on the live rows), and the column ids fixed at one
    (`ones`).  `model` is the HiGHS model of the root LP, or None when
    HiGHS refused it, and then every node is solved exactly; `indptr`
    and `indices` hold the root LP's columns in CSC form.

    A node's symmetries (`group`) are row maps, one per row of an
    array, each mapping `ones` onto itself and the live columns onto
    themselves, so that it maps the node's integer solutions onto
    themselves.  `_NO_GROUP` when the node uses none, and None on the
    first dive, where every decision fixed a column at one, so that
    they are the maps of G that map `ones` onto itself (`_dive_group`).
    Only an x=1 child inherits None, so no node below an x=0 decision
    derives its symmetries that way.
    """

    def __init__(self, lp: LinearProgram, node_cap: int, root_bound, symmetries):
        self.lp = lp
        self.node_cap = node_cap
        self.root_bound = root_bound
        self.model = None
        self.indptr = self.indices = None
        self.best: int | None = None
        self.chosen: set[int] = set()
        self.nodes = 1
        self.symmetries = symmetries
        self._target = rat_ceil(root_bound)
        # G once built, with whether it is closed under composition, each
        # column's id by its bitset, and row r's bit (int64 while every
        # row bitset fits, else a Python int).
        self._group = None
        self._closed = True
        self._col_id: dict[int, int] = {}
        self._bit = None

    def branch(self, row_mask: int, cols, ones: list[int], frac: int,
               group=None) -> None:
        """Search both children of a node, branching on cols[frac]."""
        j = cols[frac][0]
        bits = self.lp.columns[j]  # whole: the maps act on the root's rows
        # x = 1, with the maps that fix j.
        images = None
        if group is None:
            fixing = None
        elif len(group) and self._symmetric():
            images = self._images(group, bits)
            fixing = self._trim(group[images == bits])
        else:
            fixing = _NO_GROUP
        sub_rows, sub_cols = _fix_one(self.lp.sense, row_mask, cols, frac)
        self._search(sub_rows, sub_cols, ones + [j], fixing)

        # x = 0, with j's orbit fixed at zero and every map kept.
        orbit, sub_group, parent = (j,), _NO_GROUP, None
        if self._symmetric():
            if group is None and self._group is None:
                parent = (ones, j)
            else:
                if group is None:
                    group = self._dive_group(ones)
                if len(group):
                    if images is None:
                        images = self._images(group, bits)
                    orbit, sub_group = self._orbit(group, images), group
        if len(orbit) == 1:
            sub_cols = cols[:frac] + cols[frac + 1:]
        else:
            sub_cols = _without(cols, orbit)
        self._search(row_mask, sub_cols, ones, sub_group, parent)

    def _search(self, row_mask: int, cols, ones: list[int], group,
                parent=None) -> None:
        """Bound a child, and search its subtree if it must branch.

        `parent` is (ones, j) for the x=0 child of a node on the first
        dive while G is not built: G is built only once such a child
        must branch, since one pruned or closed at once gains nothing
        from it.  The rest of j's orbit under its parent's symmetries is
        then fixed at zero below the child, whose bound, taken without
        them, still holds; it is bounded again only if its branching
        column is in that orbit."""
        frac = self._bound(row_mask, cols, ones)
        if frac is not None and parent is not None and self._symmetric():
            group = self._dive_group(parent[0])
            if len(group):
                j = parent[1]
                orbit = self._orbit(group, self._images(group, self.lp.columns[j]))
                if len(orbit) > 1:
                    k = cols[frac][0]
                    cols = _without(cols, orbit - {j})
                    if k in orbit:
                        frac = self._bound(row_mask, cols, ones)
                    else:
                        frac = next(t for t, col in enumerate(cols) if col[0] == k)
        if frac is not None:
            self.branch(row_mask, cols, ones, frac, group)

    def _bound(self, row_mask: int, cols, ones: list[int]) -> int | None:
        """Count a child as a node and bound it (`node`), unless it has
        no rows left (an integer solution) or no columns (infeasible)."""
        if row_mask == 0:
            self._offer(ones)
            return None
        if not cols:
            return None
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise NodeCapExceeded(
                f"branch and bound exceeded {self.node_cap} nodes",
                incumbent=self.best, root_bound=self.root_bound,
                nodes=self.nodes)
        return self.node(row_mask, cols, ones)

    def node(self, row_mask: int, cols, ones: list[int]) -> int | None:
        """Bound a node on the HiGHS model.  Returns the position in
        `cols` to branch on, or None once the node is pruned or closed.
        Falls back to `exact_node` whenever HiGHS fails or a check does.
        """
        vertex = None
        if self.model is not None:
            ids = np.fromiter((k for k, _ in cols), dtype=np.intp, count=len(cols))
            vertex = _highs_node(self.model, *self._bounds(ids, ones))
        if vertex is not None:
            x, duals = vertex
            need = self._dual_bound(row_mask, ids, duals)
            if need is not None:
                if self.best is not None and len(ones) + need >= self.best:
                    return None
                xs = x[ids]
                # Rounded, gaps that are equal in exact arithmetic tie,
                # and argmin takes the first of them, as `_most_fractional`
                # does; unrounded, float noise would pick among them.
                gap = np.round(np.abs(xs - 0.5), 9)
                if (gap < 0.5 - _INTEGRAL_TOL).any():
                    return int(np.argmin(gap))
                picked = [col for col, v in zip(cols, xs.tolist()) if v > 0.5]
                if len(picked) == need and self._fills(row_mask, picked):
                    self._offer(ones + [k for k, _ in picked])
                    return None
        return self.exact_node(
            cols, ones, solve(_remap(self.lp.sense, row_mask, cols)))

    def exact_node(self, cols, ones: list[int], sol: LpSolution) -> int | None:
        """`node` for an exact solution of the node's LP."""
        if sol.status == "infeasible":
            return None
        if self.best is not None and len(ones) + rat_ceil(sol.objective) >= self.best:
            return None
        frac = _most_fractional(sol.primal)
        if frac is None:
            self._offer(ones + [cols[k][0] for k, v in enumerate(sol.primal) if v == 1])
        return frac

    def _offer(self, chosen: list[int]) -> None:
        if self.best is None or len(chosen) < self.best:
            self.best = len(chosen)
            self.chosen = set(chosen)

    def _bounds(self, ids, ones: list[int]):
        # Live columns free, the ones fixed at 1, every other column at 0.
        lower = np.zeros(self.lp.num_cols)
        upper = np.zeros(self.lp.num_cols)
        upper[ids] = np.inf
        lower[ones] = upper[ones] = 1
        return lower, upper

    def _dual_bound(self, row_mask: int, ids, duals) -> int | None:
        """ceil(sum of y) over the node's rows for the rounded float row
        duals y, or None unless y is exactly feasible for the dual of the
        node's LP: every live column sums to at most 1 over the node's
        rows, and in a cover y >= 0.  By weak duality the node's optimum
        is at least sum(y).  With y zero off the node's rows, a root
        column sums to what its live part does, so the check is one
        integer sum per root column, in int64 while the sum of |y| is
        below 2^62 and in Python integers otherwise."""
        rows = list(bit_indices(row_mask))
        nums = np.rint(duals[rows] * 2.0 ** _DUAL_BITS)
        if self.lp.sense == COVER and (nums < 0).any():
            return None
        # Bounds every sum below; not finite when a dual is not.  (A sum,
        # not numpy's max, whose code nothing else here pages in.)
        top = float(np.abs(nums).sum())
        if top < _INT64_GUARD:
            y = np.zeros(self.lp.num_rows, dtype=np.int64)
            y[rows] = nums
        elif math.isfinite(top):
            y = np.zeros(self.lp.num_rows, dtype=object)
            y[rows] = [int(v) for v in nums.tolist()]
        else:
            return None
        sums = np.add.reduceat(y[self.indices], self.indptr[:-1])
        # y = nums * keep / limit, a shade below the float duals, and
        # for an integer s, s * keep > limit exactly when s > limit // keep.
        keep = (1 << _SHRINK_BITS) - 1
        limit = 1 << (_DUAL_BITS + _SHRINK_BITS)
        if (sums[ids] > limit // keep).any():
            return None
        return -(-int(y.sum()) * keep // limit)

    def _fills(self, row_mask: int, picked) -> bool:
        """Whether the picked columns partition (or cover) the node's
        rows, checked edge by edge."""
        covered = 0
        for _, bits in picked:
            if self.lp.sense == PARTITION and covered & bits:
                return False
            covered |= bits
        return covered == row_mask

    # Symmetries -----------------------------------------------------------

    def _symmetric(self) -> bool:
        """Whether orbital branching can still save a node: there are
        symmetries, and no incumbent meets the root bound's ceiling
        (one that does is optimal, and nodes are pruned on bounds)."""
        return self.symmetries is not None and (
            self.best is None or self.best > self._target)

    def _trim(self, group):
        """`group`, or `_NO_GROUP` once only the identity is left."""
        return group if len(group) > 1 else _NO_GROUP

    def _images(self, group, bits: int) -> np.ndarray:
        """Each map's image of the row bitset `bits`."""
        return self._bit[group[:, list(bit_indices(bits))]].sum(axis=1)

    def _orbit(self, group, images) -> set[int]:
        """The column ids of `images`, the images of one column under
        `group`.  When G is no group (its closure was cut at the cap),
        the orbit is closed under `group`'s maps first, so that they
        map it onto itself."""
        orbit = self._ids(images)
        frontier = orbit if not self._closed else ()
        while frontier:
            found = set()
            for k in frontier:
                found |= self._ids(self._images(group, self.lp.columns[k]))
            frontier = found - orbit
            orbit |= frontier
        return orbit

    def _ids(self, images) -> set[int]:
        """The ids of the columns whose bitsets `images` holds."""
        return {self._col_id[b] for b in set(images.tolist())}

    def _dive_group(self, ones: list[int]):
        """The maps of G that map `ones` onto itself: the symmetries of
        a node on the first dive, whose fixed-at-zero columns are the
        ones that `ones` rule out.  Builds G on first use."""
        if self._group is None:
            self._group = self._build_group()
        group = self._group
        fixed = {self.lp.columns[k] for k in ones}
        for bits in fixed:
            if len(group) < 2:
                break
            group = group[[b in fixed for b in self._images(group, bits).tolist()]]
        return self._trim(group)

    def _build_group(self) -> np.ndarray:
        """G: the row maps `symmetries` returns, each checked to be a
        permutation of the rows that sends every column onto a column,
        closed under composition up to `symmetry._CLOSURE_CAP` elements,
        the identity first."""
        from .symmetry import _CLOSURE_CAP

        m = self.lp.num_rows
        self._bit = np.array([1 << r for r in range(m)],
                             dtype=np.int64 if m <= 62 else object)
        self._col_id = {bits: k for k, bits in enumerate(self.lp.columns)}
        if len(self._col_id) != self.lp.num_cols:
            raise ContractViolation("symmetric branching needs distinct columns")
        rows = list(range(m))
        dtype = np.int16 if m < 1 << 15 else np.int32
        gens = []
        for perm in self.symmetries():
            # Compared in Python: numpy's sort and int16 comparisons would
            # page in code used nowhere else, which shows in peak memory.
            perm = list(perm)
            if sorted(perm) != rows:
                raise InvariantViolation("a row map is no permutation of the rows")
            g = np.array(perm, dtype=dtype)
            images = np.add.reduceat(self._bit[g[self.indices]], self.indptr[:-1])
            if not all(b in self._col_id for b in images.tolist()):
                raise InvariantViolation("a row map sends a column onto no column")
            if perm != rows:
                gens.append(g)
        ident = np.array(rows, dtype=dtype)
        group, self._closed = _closure(ident, gens, _CLOSURE_CAP)
        return group


def _closure(ident: np.ndarray, gens, cap: int) -> tuple[np.ndarray, bool]:
    """The row maps generated by `gens`, one per row from the identity
    on, and whether they are all of them: the closure stops at `cap`
    maps.  Each generator's images of the newest maps are filtered
    before the next generator's are made."""
    seen = {ident.tobytes()}
    found = [ident[None, :]]
    frontier = found[0]
    while len(frontier):
        fresh = []
        for g in gens:
            images = g[frontier]
            new = []
            for t, h in enumerate(images):
                key = h.tobytes()
                if key not in seen:
                    if len(seen) >= cap:
                        return np.concatenate(found + fresh), False
                    seen.add(key)
                    new.append(t)
            if new:
                fresh.append(images[new])
        found += fresh
        frontier = np.concatenate(fresh) if fresh else fresh
    return np.concatenate(found), True


def _without(cols, orbit):
    """`cols` less the columns whose ids are in `orbit`, every one of
    which must be live."""
    out = [col for col in cols if col[0] not in orbit]
    if len(out) != len(cols) - len(orbit):
        raise InvariantViolation("a symmetric image of a live column is not live")
    return out


def _node_model(lp: LinearProgram):
    """The root LP's columns in CSC form, (indptr, indices), and its
    HiGHS model, or None in its place when HiGHS refuses it."""
    rows = [bit_indices(bits) for bits in lp.columns]
    indptr = np.zeros(lp.num_cols + 1, dtype=np.int32)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.fromiter((r for col in rows for r in col), dtype=np.int32,
                          count=int(indptr[-1]))
    model = highs_model(lp.num_rows, indptr, indices, np.ones(len(indices)), lp.sense)
    return indptr, indices, model


def _highs_node(model, lower, upper):
    """Re-solve `model` hot from its last basis with every column's
    bounds replaced: (x, row duals), or None when HiGHS reports no
    optimum."""
    n = len(lower)
    status = model.changeColsBounds(n, np.arange(n, dtype=np.int32), lower, upper)
    solution = None if status == _highs.HighsStatus.kError else highs_solution(model)
    if solution is None:
        return None
    return np.array(solution.col_value), np.array(solution.row_dual)


def _most_fractional(x):
    half = rat(1, 2)
    best = None
    best_gap = None
    for k, v in enumerate(x):
        if v == 0 or v == 1:
            continue
        gap = abs(v - half)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best = k
    return best


def _fix_one(sense: str, row_mask: int, cols, idx: int):
    """Rows and columns remaining after forcing column `idx` to one."""
    covered = cols[idx][1]
    remaining = row_mask & ~covered
    out = []
    for k, (orig, bits) in enumerate(cols):
        if k == idx:
            continue
        if sense == PARTITION and bits & covered:
            continue  # would double-cover a satisfied row
        kept = bits & remaining
        if kept:
            out.append((orig, kept))
    return remaining, out


def _remap(sense: str, row_mask: int, cols) -> LinearProgram:
    """Compress surviving rows to 0..m'-1 and rebuild column bitsets."""
    order = bit_indices(row_mask)
    newpos = {r: i for i, r in enumerate(order)}
    packed = []
    for _, bits in cols:
        nb = 0
        for r in bit_indices(bits & row_mask):
            nb |= 1 << newpos[r]
        packed.append(nb)
    return LinearProgram(len(order), tuple(packed), sense)
