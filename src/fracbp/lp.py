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
(strong duality, feasibility, or a Farkas ray).  `SimplexSolver` is the
stateful engine that column generation drives directly, so the basis
survives column additions and removals between master solves.

Design notes that matter for correctness:

- Masters start with far fewer columns than rows, so the constraint
  matrix is rank deficient.  Redundant rows keep an artificial variable
  pinned in the basis at value zero forever; the ratio test caps the
  step at zero whenever a pivot would move one, which is what makes the
  basis stay feasible without row deletion or Big-M terms.
- Dantzig pricing throughout, with a lexicographic ratio test.  These
  masters are brutally degenerate (hundreds of ties at step zero), and
  plain tie-breaking makes the walk thrash for thousands of pivots.
  The lexicographic rule is an exact perturbation of the right hand
  side in the direction of the basis at phase start, so ties are broken
  uniquely and no basis ever repeats.  Whenever an artificial leaves
  the basis the perturbation reference is reset; each reset strictly
  shrinks the artificial count, and between resets the perturbed
  objective strictly decreases, so the solve terminates.  A switch to
  Bland's rule after a long degenerate run is kept as a backstop.
- The pivot update on T is the classical two-multiplication step
  T'[i] = (t[pos]*T[i] - t[i]*T[pos]) / den, whose division is exact
  by Sylvester's identity because T stays a signed adjugate.  That
  keeps the hot loops in machine integers (numpy int64, promoted to
  Python-int arrays on overflow risk) with rationals only at the
  interface.
- Basis determinants on these incidence matrices routinely blow past
  int64, so the Python-int regime must stay usable.  Everything except
  the rank-one update of T is therefore O(m) per pivot there: basic
  values and duals are updated incrementally by the same exact
  recurrence as T, the lexicographic reference is never materialized
  (its entries are read off T and a snapshot of the reset basis only
  when a tie actually needs them), and entering columns are screened
  with float scores before a single exact verification.  Any "no
  entering column" conclusion is re-certified by a full exact scan, and
  phase ends recompute values and duals from scratch and compare, so
  the incremental state cannot drift silently.
- Warm starts come from a float solver's optimal vertex: `crash` pivots
  the suggested columns into the current basis without a ratio test,
  then checks exactly that the result is primal feasible and keeps it
  only if so.  A good suggestion leaves phase 2 a handful of pivots; a
  bad one costs nothing but the crash.  `install_basis` is the same
  crash from the all-artificial basis followed by a row permutation, so
  every basis inverse, warm or explicit, comes from the same
  fraction-free pivots; there is no separate rational inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rational import ZERO, rat, rat_ceil
from .core import BinaryMatrix, bit_indices, incidence_column
from .errors import ContractViolation, InvariantViolation, NodeCapExceeded

PARTITION = "partition"
COVER = "cover"

# Switch from Dantzig to Bland pricing after this many consecutive
# degenerate pivots; switch back on the first real step.  Termination
# is already guaranteed by the lexicographic ratio test, but Bland's
# first-index discipline empirically exits the long degenerate
# plateaus of flooded masters in far fewer pivots than Dantzig, so the
# switch stays as a performance device, not just insurance.
DEGENERATE_STALL = 60

# Hard circuit breaker; hitting it means a termination bug.
MAX_PIVOTS = 2_000_000

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

    For status "optimal": exact objective, primal (per column), dual
    (per row), and a basis encoding.  Basis codes: k < num_cols is
    structural column k, num_cols + r is the surplus of row r, and
    num_cols + num_rows + r is the artificial of row r.

    For status "infeasible": objective and primal are None and `dual`
    holds a Farkas ray y with 1'y > 0 and M'y <= 0 (y >= 0 for cover).
    """

    status: str
    objective: object
    primal: tuple | None
    dual: tuple
    basis: tuple[int, ...] | None


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
    """Revised simplex over an incrementally edited column set.

    Columns get stable integer ids from `add_column`; removing a column
    requires it to be nonbasic.

    The basis inverse lives in `self.T` (dense integer numpy array) and
    `self.delta` (positive int) with B^-1 = T/delta.  Basic values x_B
    and duals y are row and column sums of T over delta (the right hand
    side is all ones and every cost is 0 or 1); they are recomputed per
    pivot while entries are int64 and carried incrementally once the
    matrix has been promoted to Python-int (object dtype) arrays, which
    a magnitude guard triggers before any product could overflow.
    Results are exact in both regimes.
    """

    def __init__(self, num_rows: int, sense: str):
        if sense not in (PARTITION, COVER):
            raise ContractViolation(f"unknown sense {sense!r}")
        self.m = num_rows
        self.sense = sense
        self.columns: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._next_id = 0
        # Column pool as a dense 0/1 matrix for vectorized pricing,
        # plus a float shadow for the entering screen.  Slots are
        # append-only; removal just clears the active flag.
        self._pool = np.zeros((num_rows, 64), dtype=np.int8)
        self._poolf = np.zeros((num_rows, 64), dtype=np.float64)
        self._active = np.zeros(64, dtype=bool)
        self._cids: list[int] = []
        self._slot: dict[int, int] = {}
        self.basis: list[int] | None = None
        self.T: np.ndarray | None = None
        self.delta: int = 1
        # Lexicographic reference columns (row indices and a sign) for
        # the basis at the last reset; G = T @ B0 is evaluated from
        # these on demand instead of being carried as a matrix.
        self._lexref: list | None = None
        self._objmode = False
        self._tmax = 0
        # Incrementally maintained x_B*delta and y*delta, used only in
        # the Python-int regime where recomputation is the hot cost.
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._xy_valid = False
        self._xyphase = 0
        self.pivots = 0
        self._feasible = False
        self._farkas: tuple | None = None

    # -- column bookkeeping --

    def add_column(self, bits: int) -> int:
        if bits <= 0 or bits >> self.m:
            raise ContractViolation("column bitset empty or out of range")
        cid = self._next_id
        self._next_id += 1
        rows = bit_indices(bits)
        self.columns[cid] = (bits, rows)
        slot = len(self._cids)
        if slot == self._pool.shape[1]:
            grown = np.zeros((self.m, 2 * slot), dtype=np.int8)
            grown[:, :slot] = self._pool
            self._pool = grown
            grownf = np.zeros((self.m, 2 * slot), dtype=np.float64)
            grownf[:, :slot] = self._poolf
            self._poolf = grownf
            flags = np.zeros(2 * slot, dtype=bool)
            flags[:slot] = self._active
            self._active = flags
        self._pool[list(rows), slot] = 1
        self._poolf[list(rows), slot] = 1.0
        self._active[slot] = True
        self._cids.append(cid)
        self._slot[cid] = slot
        return cid

    def remove_column(self, cid: int) -> None:
        if cid not in self.columns:
            raise ContractViolation(f"no column with id {cid}")
        if self.basis is not None and cid in self.basis:
            raise ContractViolation("cannot remove a basic column")
        del self.columns[cid]
        self._active[self._slot.pop(cid)] = False

    def is_basic(self, cid: int) -> bool:
        return self.basis is not None and cid in self.basis

    # -- basis installation --

    def install_cold_start(self) -> None:
        """All-artificial basis; caller must run phase 1 next."""
        m = self.m
        self.basis = [self._art(r) for r in range(m)]
        self._set_matrix(np.eye(m, dtype=np.int64), 1)
        self._feasible = False

    def install_disjoint_start(self, col_ids) -> None:
        """Feasible start from pairwise disjoint columns covering all rows.

        Each column becomes basic at value 1 on its lowest row; every
        other row of the column gets an artificial pinned at zero.  The
        inverse has a closed form because the columns do not overlap, so
        no elimination is needed, and its determinant is +-1.
        """
        m = self.m
        covered = 0
        reps = []
        for cid in col_ids:
            bits, rows = self.columns[cid]
            if covered & bits:
                raise ContractViolation("start columns must be disjoint")
            covered |= bits
            reps.append((cid, rows))
        if covered != (1 << m) - 1:
            raise ContractViolation("start columns must cover every row")
        basis = [self._art(r) for r in range(m)]
        t = np.eye(m, dtype=np.int64)
        for cid, rows in reps:
            rep = rows[0]
            basis[rep] = cid
            for i in rows[1:]:
                t[i, rep] = -1
        self.basis = basis
        self._set_matrix(t, 1)
        self._feasible = True

    def install_basis(self, codes) -> None:
        """Install an explicit basis (codes as in LpSolution.basis order).

        The basis must be nonsingular and primal feasible, with any
        artificial slots sitting at value zero; otherwise this raises
        ContractViolation.
        """
        m = self.m
        codes = list(codes)
        if len(codes) != m:
            raise ContractViolation("basis must have one variable per row")
        for code in codes:
            if (code < -2 * m or (code >= 0 and code not in self.columns)
                    or (self._is_surplus(code) and self.sense != COVER)):
                raise ContractViolation(f"basis code {code} is no variable of this LP")
        # Crash the codes into the all-artificial basis; each one that
        # enters is independent of those before it, so all of them get
        # in exactly when the basis matrix is nonsingular.
        self.install_cold_start()
        self._crash(codes)
        if set(codes) != set(self.basis):
            raise ContractViolation("basis matrix is singular")
        slot = {code: i for i, code in enumerate(self.basis)}
        self.basis = codes
        self._set_matrix(self.T[[slot[code] for code in codes]], self.delta)
        x = self._basic_numerators()
        for i, code in enumerate(codes):
            if x[i] < 0:
                raise ContractViolation("basis is not primal feasible")
            if self._is_art(code) and x[i] != 0:
                raise ContractViolation("artificial basis slot with nonzero value")
        self._feasible = True

    def crash(self, codes) -> bool:
        """Pivot `codes` into the basis in order, without a ratio test.

        Meant for an optimal basis suggested by a float solver, support
        columns first.  Each code that is not basic takes the first free
        row with a nonzero tableau entry, artificial rows first, and is
        skipped when there is none; a row is free until the code holding
        it has had its turn.  The new basis is kept only if it is exactly
        primal feasible with every artificial at zero; otherwise the old
        basis, inverse and regime are restored and False is returned.
        """
        saved = (list(self.basis), self.T, self.delta, self._objmode, self._tmax)
        self._crash(codes)
        x = self._basic_numerators()
        art = self._art_mask()
        if all(int(v) >= 0 for v in x) and not any(int(v) for v in x[art]):
            self._feasible = True
            return True
        self.basis, self.T, self.delta, self._objmode, self._tmax = saved
        self._xy_valid = False
        return False

    def _crash(self, codes) -> None:
        fixed = np.zeros(self.m, dtype=bool)
        art = self._art_mask()
        where = {code: i for i, code in enumerate(self.basis)}
        for code in codes:
            pos = where.get(code)
            if pos is None:
                t_nums = self._ftran_scaled(code)
                rows = np.nonzero((t_nums != 0) & ~fixed)[0]
                if not rows.size:
                    continue
                arts = rows[art[rows]]
                pos = int(arts[0] if arts.size else rows[0])
                del where[self.basis[pos]]
                where[code] = pos
                art[pos] = self._is_art(code)
                self._exchange(code, pos, t_nums)
            fixed[pos] = True

    # -- solving --

    def solve_from_cold(self) -> str:
        """Phase 1 then phase 2; returns "optimal" or "infeasible"."""
        self.install_cold_start()
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
        x = self._value_numerators()
        total = sum(int(x[i]) for i in range(self.m) if self.basis[i] >= 0)
        return rat(total, self.delta)

    def duals(self) -> tuple:
        return tuple(self._duals(phase=2))

    def primal_by_id(self) -> dict[int, object]:
        """Structural values, zero entries omitted."""
        x = self._value_numerators()
        out = {}
        for i, code in enumerate(self.basis):
            if code >= 0 and x[i]:
                out[code] = rat(int(x[i]), self.delta)
        return out

    def farkas_ray(self) -> tuple:
        return self._farkas

    # -- internals --

    def _art(self, r: int) -> int:
        return -1 - self.m - r

    def _is_art(self, code: int) -> bool:
        return code < -self.m

    def _is_surplus(self, code: int) -> bool:
        return -1 - self.m < code < 0

    def _order_key(self, code: int) -> tuple[int, int]:
        # Fixed total variable order for Bland's rule.
        if code >= 0:
            return (0, code)
        if self._is_surplus(code):
            return (1, -1 - code)
        return (2, -1 - self.m - code)

    def _set_matrix(self, t: np.ndarray, delta: int) -> None:
        # Entries above limit would let an m*m-term dot product overflow
        # int64, so such matrices live as Python-int arrays instead.
        # The full entry scan needed to demote back is itself costly, so
        # it only runs when the determinant already fits and then only
        # every few pivots.
        self.delta = delta
        self._xy_valid = False
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
        self._xy_valid = False

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

    def _art_mask(self) -> np.ndarray:
        return np.fromiter((self._is_art(code) for code in self.basis),
                           dtype=bool, count=self.m)

    def _basic_numerators(self) -> np.ndarray:
        # x_B*delta; the RHS is all ones so this is just row sums of T.
        return self.T.sum(axis=1)

    def _value_numerators(self) -> np.ndarray:
        # Like _basic_numerators but allowed to reuse the incremental
        # copy, which spares an O(m^2) sum in the Python-int regime.
        if self._objmode and self._xy_valid:
            return self._x
        return self._basic_numerators()

    def _dual_numerators(self, phase: int) -> np.ndarray:
        mask = np.fromiter(
            ((code >= 0) if phase == 2 else self._is_art(code) for code in self.basis),
            dtype=bool, count=self.m)
        if not mask.any():
            return np.zeros(self.m, dtype=self.T.dtype)
        return self.T[mask].sum(axis=0)

    def _duals(self, phase: int) -> list:
        # y = c_B' B^-1 with phase-dependent basic costs (all 0/1).
        if self._objmode and self._xy_valid and self._xyphase == phase:
            nums = self._y
        else:
            nums = self._dual_numerators(phase)
        return [rat(int(v), self.delta) for v in nums]

    def _phase1_objective(self):
        x = self._value_numerators()
        total = sum(int(x[i]) for i in range(self.m) if self._is_art(self.basis[i]))
        return rat(total, self.delta)

    def _choose_entering(self, y_nums: np.ndarray, phase: int, bland: bool):
        """Entering variable code, or None at optimality.

        `y_nums` holds the duals scaled by delta, so reduced costs
        compare as plain integers: column j is eligible exactly when
        sum(y_nums over its rows) > cost_j*delta.  Dantzig mode screens
        with float scores and verifies candidates exactly, most
        promising first; whenever the screen comes up empty the full
        exact scan reruns before optimality is declared, so the float
        path can never change an answer, only the route taken.  Bland
        mode stays fully exact and takes the lowest id, structural
        columns before surplus rows.
        """
        used = len(self._cids)
        thresh = self.delta if phase == 2 else 0
        best_code = None
        best_num = None
        if used:
            got = self._screen_entering(y_nums, thresh, used, bland)
            if got is None:
                scores = y_nums @ self._pool[:, :used]
                eligible = np.nonzero(self._active[:used] & (scores > thresh))[0]
                if eligible.size:
                    if bland:
                        return self._cids[int(eligible[0])]
                    sub = scores[eligible]
                    slot = int(eligible[int(np.argmax(sub))])
                    best_code = self._cids[slot]
                    best_num = thresh - int(scores[slot])
            else:
                slot, score = got
                if bland:
                    return self._cids[slot]
                best_code = self._cids[slot]
                best_num = thresh - score
        if self.sense == COVER:
            if bland:
                if best_code is None:
                    negative = np.nonzero(y_nums < 0)[0]
                    if negative.size:
                        return -1 - int(negative[0])
                return best_code
            r = int(np.argmin(y_nums))
            rcn = int(y_nums[r])
            if rcn < 0 and (best_num is None or rcn < best_num):
                best_code = -1 - r
        return best_code

    # Exactly verify at most this many screen hits before falling back
    # to the certified full scan; only masses of boundary columns with
    # reduced cost within float noise of zero ever exhaust it.
    _SCREEN_TRIES = 48

    def _screen_entering(self, y_nums: np.ndarray, thresh: int, used: int,
                         bland: bool = False):
        """Float-guided candidate hunt: (slot, exact score) or None.

        Only a verified strict winner is ever returned; None means "the
        screen found nothing", which the caller must treat as a hint,
        not a certificate.  Bland mode verifies lowest slot first,
        Dantzig mode best float score first.
        """
        den = self.delta
        if den.bit_length() > 900:
            return None
        try:
            if self._objmode:
                yf = np.fromiter((v / den for v in y_nums),
                                 dtype=np.float64, count=self.m)
            else:
                yf = y_nums.astype(np.float64) / float(den)
        except OverflowError:
            return None
        if not np.isfinite(yf).all():
            return None
        scores = yf @ self._poolf[:, :used]
        target = 1.0 if thresh else 0.0
        cand = np.nonzero(self._active[:used] & (scores > target - 1e-7))[0]
        if not cand.size:
            return None
        if bland:
            order = cand
        else:
            order = cand[np.argsort(-scores[cand], kind="stable")]
        for slot in order[:self._SCREEN_TRIES].tolist():
            score = self._exact_slot_score(slot, y_nums)
            if score > thresh:
                return slot, score
        return None

    def _exact_slot_score(self, slot: int, y_nums: np.ndarray) -> int:
        rows = self.columns[self._cids[slot]][1]
        if self._objmode:
            return sum(int(y_nums[r]) for r in rows)
        return int(y_nums[list(rows)].sum())

    def _ftran_scaled(self, code: int) -> np.ndarray:
        """t*delta for the entering column, as integers."""
        if code >= 0:
            _, rows = self.columns[code]
            return self.T[:, list(rows)].sum(axis=1)
        if self._is_surplus(code):
            return -self.T[:, -1 - code]
        return self.T[:, -1 - self.m - code].copy()

    def _choose_leaving(self, t_nums: np.ndarray, phase: int, x_nums: np.ndarray):
        """Leaving row and whether the step is degenerate.

        An artificial row moved in the negative direction cannot join
        the ratio test, yet letting the step through would lift the
        artificial off zero; such rows force an immediate zero-step
        repair pivot.  Artificial rows moved positively sit at ratio
        zero and block oversized steps on their own.

        Otherwise the row is the lexicographic minimum of the vector
        ratios (x_i, G_i)/t_i over rows with t_i > 0, compared by exact
        cross multiplication level by level.  G = T @ B0 for the reset
        snapshot B0, so its entries are computed here on demand; rows of
        G are rows of a nonsingular matrix, so the minimum is unique and
        the pivot sequence cannot cycle between resets.
        """
        basis = self.basis
        if phase == 2:
            forced = None
            for i in np.nonzero(t_nums < 0)[0].tolist():
                if self._is_art(basis[i]):
                    cand = (self._order_key(basis[i]), i)
                    if forced is None or cand < forced:
                        forced = cand
            if forced is not None:
                return forced[1], True
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
        degenerate = best_x == 0
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
        return cands[0], degenerate

    def _pivot_update(self, enter: int, pos: int, t_nums: np.ndarray,
                      phase: int, x_nums: np.ndarray, y_nums: np.ndarray) -> None:
        leaving = self.basis[pos]
        newx = newy = None
        if self._objmode:
            # Values and duals follow the same exact recurrence as T,
            # which makes them O(m) per pivot instead of O(m^2) sums.
            # (A pivot that promotes T leaves them to be recomputed.)
            den = self.delta
            p = int(t_nums[pos])
            row = self.T[pos]
            xp = int(x_nums[pos])
            newx = p * x_nums - xp * t_nums
            if phase == 2:
                s = sum(int(t_nums[i]) for i, c in enumerate(self.basis) if c >= 0)
                cpos = 1 if enter >= 0 else 0
            else:
                s = sum(int(t_nums[i]) for i, c in enumerate(self.basis)
                        if self._is_art(c))
                cpos = 0
            newy = p * y_nums - s * row
            if VERIFY_PIVOTS and den != 1:
                if np.any(newx % den) or np.any(newy % den):
                    raise InvariantViolation("inexact division in pivot update")
            if den != 1:
                newx //= den
                newy //= den
            newx[pos] = xp
            if cpos:
                newy = newy + row
            if p < 0:
                newx = -newx
                newy = -newy
        self._exchange(enter, pos, t_nums)
        if newx is not None:
            self._x = newx
            self._y = newy
            self._xy_valid = True
            self._xyphase = phase
        if self._is_art(leaving):
            # One artificial gone for good; restart the perturbation
            # reference from the new basis.
            self._lex_reset()

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
        stall = 0
        bland = False
        self._lex_reset()
        self._xy_valid = False
        while True:
            self.pivots += 1
            if self.pivots > MAX_PIVOTS:
                raise InvariantViolation("pivot limit hit; simplex is not terminating")
            if self._objmode and self._xy_valid and self._xyphase == phase:
                x_nums = self._x
                y_nums = self._y
            else:
                x_nums = self._basic_numerators()
                y_nums = self._dual_numerators(phase)
                if self._objmode:
                    self._x = x_nums
                    self._y = y_nums
                    self._xy_valid = True
                    self._xyphase = phase
            enter = self._choose_entering(y_nums, phase, bland)
            if enter is None:
                self._check_basis_consistency(phase, y_nums, x_nums)
                return
            t_nums = self._ftran_scaled(enter)
            picked = self._choose_leaving(t_nums, phase, x_nums)
            if picked is None:
                # Impossible for these LPs: objectives are bounded below by 0.
                raise InvariantViolation("unbounded direction in a bounded LP")
            pos, degenerate = picked
            self._pivot_update(enter, pos, t_nums, phase, x_nums, y_nums)
            if degenerate:
                stall += 1
                if stall > DEGENERATE_STALL:
                    bland = True
            else:
                stall = 0
                bland = False

    def _check_basis_consistency(self, phase: int, y_nums, x_nums) -> None:
        # End-of-phase self audit: recompute values and duals from T,
        # compare against the working copies (catches any incremental
        # drift), then check feasibility and scaled strong duality.
        x = self._basic_numerators()
        y = self._dual_numerators(phase)
        if any(int(a) != int(b) for a, b in zip(x, x_nums)):
            raise InvariantViolation("incremental basic values drifted")
        if any(int(a) != int(b) for a, b in zip(y, y_nums)):
            raise InvariantViolation("incremental duals drifted")
        if any(int(v) < 0 for v in x):
            raise InvariantViolation("scaled basis lost primal feasibility")
        costly = ((c >= 0) if phase == 2 else self._is_art(c) for c in self.basis)
        obj = sum(int(x[i]) for i, flag in enumerate(costly) if flag)
        if int(y.sum()) != obj:
            raise InvariantViolation("scaled basis lost strong duality")


# ---------------------------------------------------------------------------
# Stateless interface
# ---------------------------------------------------------------------------

def solve(lp: LinearProgram, start_basis=None) -> LpSolution:
    """Solve to proven optimality or infeasibility, with exact certificates.

    Optimal solutions are checked for primal feasibility and exact
    strong duality before being returned; infeasible outcomes carry a
    verified Farkas ray.  `start_basis` takes codes from a previous
    LpSolution.basis for the same LP shape.
    """
    s = SimplexSolver(lp.num_rows, lp.sense)
    ids = [s.add_column(bits) for bits in lp.columns]
    n, m = lp.num_cols, lp.num_rows
    if start_basis is not None:
        s.install_basis([_decode(code, n, m) for code in start_basis])
        s.reoptimize()
        status = "optimal"
    else:
        status = s.solve_from_cold()
    if status == "infeasible":
        ray = s.farkas_ray()
        _check_farkas(lp, ray)
        return LpSolution("infeasible", None, None, ray, None)
    x = [ZERO] * n
    for cid, v in s.primal_by_id().items():
        x[cid] = v
    y = s.duals()
    obj = s.objective()
    _check_optimal(lp, x, y, obj)
    basis = tuple(_encode(code, n, m) for code in s.basis)
    return LpSolution("optimal", obj, tuple(x), y, basis)


def _encode(code: int, n: int, m: int) -> int:
    if code >= 0:
        return code
    if code >= -m:
        return n + (-1 - code)
    return n + m + (-1 - m - code)


def _decode(code: int, n: int, m: int) -> int:
    if code < 0 or code >= n + 2 * m:
        raise ContractViolation(f"basis code {code} out of range")
    if code < n:
        return code
    if code < n + m:
        return -1 - (code - n)
    return -1 - m - (code - n - m)


def _check_optimal(lp: LinearProgram, x, y, obj) -> None:
    cover = [ZERO] * lp.num_rows
    for bits, xj in zip(lp.columns, x):
        if xj < 0:
            raise InvariantViolation("negative primal value")
        if xj:
            for r in bit_indices(bits):
                cover[r] = cover[r] + xj
    for r, c in enumerate(cover):
        ok = (c == 1) if lp.sense == PARTITION else (c >= 1)
        if not ok:
            raise InvariantViolation(f"primal infeasible at row {r}")
    if sum(y, ZERO) != obj:
        raise InvariantViolation("strong duality does not hold exactly")
    if lp.sense == COVER and any(v < 0 for v in y):
        raise InvariantViolation("cover dual must be nonnegative")
    for k, bits in enumerate(lp.columns):
        if sum((y[r] for r in bit_indices(bits)), ZERO) > 1:
            raise InvariantViolation(f"dual infeasible at column {k}")


def _check_farkas(lp: LinearProgram, y) -> None:
    if sum(y, ZERO) <= 0:
        raise InvariantViolation("Farkas ray has nonpositive objective")
    for k, bits in enumerate(lp.columns):
        if sum((y[r] for r in bit_indices(bits)), ZERO) > 0:
            raise InvariantViolation(f"Farkas ray violated by column {k}")
    if lp.sense == COVER and any(v < 0 for v in y):
        raise InvariantViolation("cover Farkas ray must be nonnegative")


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def solve_integer(lp: LinearProgram, node_cap: int = 100_000) -> IntegerSolution:
    """Optimal integer (0/1) solution by LP-based branch and bound.

    Depth first, branching on the most fractional variable, diving on
    the x=1 side first.  `node_cap` limits LP solves; exceeding it
    raises NodeCapExceeded carrying the incumbent and root bound.
    """
    root = solve(lp)
    if root.status == "infeasible":
        raise ContractViolation("integer model is infeasible")
    state = {"best": None, "sel": None, "nodes": 1, "root": root.objective}

    def recurse(row_mask: int, cols: list[tuple[int, int]], ones: list[int], sol: LpSolution):
        frac = _most_fractional(sol.primal)
        if frac is None:
            total = len(ones) + int(sol.objective)
            if state["best"] is None or total < state["best"]:
                state["best"] = total
                chosen = set(ones)
                for k, v in enumerate(sol.primal):
                    if v == 1:
                        chosen.add(cols[k][0])
                state["sel"] = chosen
            return
        branch_col = cols[frac]
        for value in (1, 0):
            if value == 1:
                sub_rows, sub_cols = _fix_one(lp.sense, row_mask, cols, frac)
                sub_ones = ones + [branch_col[0]]
            else:
                sub_rows = row_mask
                sub_cols = cols[:frac] + cols[frac + 1:]
                sub_ones = ones
            if sub_rows == 0:
                total = len(sub_ones)
                if state["best"] is None or total < state["best"]:
                    state["best"] = total
                    state["sel"] = set(sub_ones)
                continue
            if not sub_cols:
                continue
            state["nodes"] += 1
            if state["nodes"] > node_cap:
                raise NodeCapExceeded(
                    f"branch and bound exceeded {node_cap} nodes",
                    incumbent=state["best"], root_bound=state["root"],
                    nodes=state["nodes"])
            sub_lp = _remap(lp.sense, sub_rows, sub_cols)
            sub_sol = solve(sub_lp)
            if sub_sol.status == "infeasible":
                continue
            bound = len(sub_ones) + rat_ceil(sub_sol.objective)
            if state["best"] is not None and bound >= state["best"]:
                continue
            recurse(sub_rows, sub_cols, sub_ones, sub_sol)

    all_rows = (1 << lp.num_rows) - 1
    cols0 = list(enumerate(lp.columns))
    recurse(all_rows, cols0, [], root)
    if state["best"] is None:
        raise InvariantViolation("no integer solution found in a feasible model")
    selection = tuple(1 if k in state["sel"] else 0 for k in range(lp.num_cols))
    return IntegerSolution(state["best"], selection, state["nodes"])


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
