"""Open-boundary matrix-product-state simulation over a slot register.

:class:`MPSState` mirrors the positional register API of
:class:`repro.sim.statevector.StateVector` — ``add_qubit`` appends at the
top slot, measurement removes the measured slot so slots above shift
down, ``permute`` relabels slots — but stores the state as a chain of
``(D_left, 2, D_right)`` site tensors in mixed-canonical form.  Memory
and gate cost scale with the *bond dimension* ``chi`` (the Schmidt rank
across chain cuts) instead of ``2^n``, which is what opens
bounded-entanglement patterns at hundreds of qubits.

Slots and sites are decoupled: a slot is the simulator-facing register
position (what compiled ops address), a site is the physical position in
the chain.  Two-qubit gates act on adjacent sites only; distant pairs
are routed together first — a still-product operand (both bonds 1) is
relocated next to its partner as a free list move (the tensor factor
commutes past everything), an entangled operand is walked over site by
site with SWAP contractions.  Routing leaves qubits where they end; the
slot→site map absorbs the shuffle.

Every two-site contraction is refactored by a truncated SVD under
``chi_max`` and a relative singular-value ``cutoff``; the discarded
relative weight ``Σ s_dropped² / Σ s²`` accumulates in
:attr:`MPSState.truncation_error` (zero means the run was numerically
exact, the contract the MPS backend surfaces on its outputs).

All randomness enters through pre-drawn uniform deviates (the ``u``
argument of :meth:`MPSState.measure`, same ``outcome = 0 iff u < p0``
convention as :meth:`repro.sim.density.DensityMatrix.measure`) so callers
own the draw schedule.

:class:`BatchedMPSState` is the shot-stacked sibling the MPS engine runs
on: ``B`` chains kept in groups that share every bond dimension, slot map
and center, each group's site tensors stored as ``(b, Dl, 2, Dr)``, so
every op is one stacked ``matmul``/``qr``/``svd`` call per group instead
of ``b`` small ones (the canonical-form sweep of Vidal, PRL 91, 147902
(2003), batched).  Each chain truncates against its own spectrum and
keeps its own ``truncation_error``; an SVD at which chains keep different
ranks splits their group, so every chain takes exactly the routes and
truncations of its own scalar chain.  The scalar :class:`MPSState` (which
shares the slot/site bookkeeping and routing through :class:`_SlotChain`)
carries single outputs and is the reference the stacked kernels are
tested against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.statevector import (
    IPAULIS,
    MeasurementBasis,
    ZeroProbabilityBranch,
    _row_sq_norms,
)

#: Densification guard: ``to_array`` on more qubits than this raises
#: instead of materializing an out-of-budget ``2^n`` block.
MPS_DENSIFY_MAX = 24


def _as_basis_block(basis: Union[MeasurementBasis, np.ndarray]) -> np.ndarray:
    """Coerce a basis to a ``(2, 2)`` block of row vectors ``(b0, b1)``.

    Building the block from a :class:`MeasurementBasis` reproduces the
    exact floats of the compiler's precomputed ``basis_block`` gather, so
    scalar and chunked samplers see bit-identical projectors."""
    if isinstance(basis, MeasurementBasis):
        return np.array([basis.b0, basis.b1], dtype=complex)
    block = np.asarray(basis, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"expected a (2, 2) basis block, got {block.shape}")
    return block


class _SlotChain:
    """Slot/site bookkeeping and routing shared by :class:`MPSState` and
    the stacked groups of :class:`BatchedMPSState`.

    Site tensors are ``(..., Dl, 2, Dr)``: no leading axis on a scalar
    chain, one batch axis on a stacked group whose chains share every bond
    dimension.  Everything here reads only the last three axes, so both
    layouts take the same routing decisions from the same shapes;
    subclasses supply the tensor kernels (center shifts, SVD splits)."""

    _lead: Tuple[int, ...] = ()  # leading batch shape of every site tensor

    def __init__(self, chi_max: Optional[int], cutoff: float):
        if chi_max is not None and chi_max < 1:
            raise ValueError("chi_max must be at least 1")
        self.chi_max = chi_max
        self.cutoff = float(cutoff)
        self._tensors: List[np.ndarray] = []  # site -> (..., Dl, 2, Dr)
        self._slot_at: List[int] = []  # site -> slot
        self._site_of: List[int] = []  # slot -> site
        self._center = -1  # orthogonality-center site (-1: no qubits)

    @property
    def num_qubits(self) -> int:
        return len(self._tensors)

    def bond_dims(self) -> Tuple[int, ...]:
        """The inner bond dimensions, left to right."""
        return tuple(t.shape[-1] for t in self._tensors[:-1])

    @property
    def max_bond(self) -> int:
        """Peak current bond dimension (1 for product states)."""
        return max(self.bond_dims(), default=1)

    def _rebuild_site_of(self) -> None:
        self._site_of = [0] * len(self._slot_at)
        for site, slot in enumerate(self._slot_at):
            self._site_of[slot] = site

    def _site(self, slot: int, what: str) -> int:
        if not 0 <= slot < len(self._site_of):
            raise ValueError(
                f"{what} targets slot {slot} of a {self.num_qubits}-qubit state"
            )
        return self._site_of[slot]

    def _move_center(self, site: int) -> None:
        while self._center < site:
            self._shift_center_right()
        while self._center > site:
            self._shift_center_left()

    def _center_on_pair(self, k: int) -> None:
        if self._center < k:
            self._move_center(k)
        elif self._center > k + 1:
            self._move_center(k + 1)

    def _is_product_site(self, site: int) -> bool:
        shape = self._tensors[site].shape
        return shape[-3] == 1 and shape[-1] == 1

    def _drop_site(self, site: int, slot: int) -> None:
        """Remove ``site`` (holding ``slot``) from the chain; slots above
        shift down."""
        del self._tensors[site]
        del self._site_of[slot]
        del self._slot_at[site]
        self._site_of = [s - 1 if s > site else s for s in self._site_of]
        self._slot_at = [s - 1 if s > slot else s for s in self._slot_at]
        if self._center > site:
            self._center -= 1

    def _relocate(self, src: int, dst: int) -> None:
        """Move the (unentangled, unit-norm) site ``src`` to index ``dst``.

        A product factor commutes past the chain, so this is exact and
        truncation-free: the tensor is re-expressed as ``v ⊗ I_D`` over the
        bond it lands on (an isometry from both sides, so the canonical
        structure survives), at no SVD cost."""
        if self._center == src:
            if len(self._tensors) > 1:
                if src + 1 < len(self._tensors):
                    self._shift_center_right()
                else:
                    self._shift_center_left()
        vec = self._tensors.pop(src)[..., 0, :, 0]
        slot = self._slot_at.pop(src)
        cut = 1 if dst == 0 else self._tensors[dst - 1].shape[-1]
        eye = np.eye(cut, dtype=complex)[:, None, :]
        self._tensors.insert(dst, eye * vec[..., None, :, None])
        self._slot_at.insert(dst, slot)
        c = self._center
        if c != src:
            if src < c:
                c -= 1
            if dst <= c:
                c += 1
        else:  # single-site state: center rides along
            c = dst
        self._center = c
        self._rebuild_site_of()

    def _route(self, s0: int, s1: int) -> Tuple[List[int], int]:
        """Plan bringing the qubits of slots ``s0``/``s1`` onto adjacent
        sites.  A still-product operand is relocated next to its partner
        right away; otherwise the smaller tensor is walked over.  Returns
        the walk's SWAP sites (left index of each swapped pair, in order)
        and the left site of the operand pair once walked."""
        i, j = self._site_of[s0], self._site_of[s1]
        if abs(i - j) == 1:
            return [], min(i, j)
        if self._is_product_site(j):
            self._relocate(j, (i if j < i else i + 1) - (1 if j < i else 0))
            return [], min(self._site_of[s0], self._site_of[s1])
        if self._is_product_site(i):
            self._relocate(i, (j if i < j else j + 1) - (1 if i < j else 0))
            return [], min(self._site_of[s0], self._site_of[s1])
        ti, tj = self._tensors[i].shape, self._tensors[j].shape
        lo, hi = min(i, j), max(i, j)
        if (ti[-3] * ti[-1] < tj[-3] * tj[-1]) == (i == lo):
            return list(range(lo, hi - 1)), hi - 1
        return list(range(hi - 1, lo, -1)), lo

    def add_qubit(self, state) -> None:
        """Append one qubit in ``state`` (length-2, normalized; shared by
        every chain of a stack) at the top slot — the
        :class:`~repro.mbqc.compile.PrepOp` contract."""
        vec = np.asarray(state, dtype=complex).reshape(2)
        nrm = float(np.linalg.norm(vec))
        if nrm == 0.0:
            raise ValueError("cannot append a zero state")
        if self._tensors:
            # Fold any non-unit norm into the center so the appended site
            # is a valid right-canonical tensor.
            if abs(nrm - 1.0) > 1e-12:
                self._tensors[self._center] = self._tensors[self._center] * nrm
                vec = vec / nrm
            site = np.broadcast_to(vec.reshape(1, 2, 1), self._lead + (1, 2, 1))
        else:
            site = (np.asarray(self._amp)[..., None] * vec).reshape(
                self._lead + (1, 2, 1)
            )
            self._amp = np.ones(self._lead, dtype=complex)[()]
            self._center = 0
        self._tensors.append(site.copy())
        self._slot_at.append(len(self._site_of))
        self._site_of.append(len(self._tensors) - 1)

    def permute(self, order) -> None:
        """Relabel slots: new slot ``j`` holds what old slot ``order[j]``
        held.  Pure bookkeeping — no tensor work."""
        order = list(order)
        if sorted(order) != list(range(self.num_qubits)):
            raise ValueError(
                f"permutation {order!r} is not over {self.num_qubits} slots"
            )
        self._site_of = [self._site_of[s] for s in order]
        for slot, site in enumerate(self._site_of):
            self._slot_at[site] = slot


class MPSState(_SlotChain):
    """A pure state as an open-boundary MPS with a slot-indexed API."""

    def __init__(self, chi_max: Optional[int] = None, cutoff: float = 1e-12):
        super().__init__(chi_max, cutoff)
        self._amp = 1.0 + 0.0j  # amplitude of the zero-qubit state
        self.truncation_error = 0.0

    @property
    def nbytes(self) -> int:
        """Resident bytes of the site tensors."""
        return sum(t.nbytes for t in self._tensors)

    def copy(self) -> "MPSState":
        dup = MPSState(chi_max=self.chi_max, cutoff=self.cutoff)
        dup._tensors = [t.copy() for t in self._tensors]
        dup._slot_at = list(self._slot_at)
        dup._site_of = list(self._site_of)
        dup._center = self._center
        dup._amp = self._amp
        dup.truncation_error = self.truncation_error
        return dup

    # -- canonical-form plumbing --------------------------------------------

    def _shift_center_right(self) -> None:
        c = self._center
        a = self._tensors[c]
        dl, _, dr = a.shape
        q, r = np.linalg.qr(a.reshape(dl * 2, dr))
        self._tensors[c] = q.reshape(dl, 2, -1)
        self._tensors[c + 1] = np.tensordot(r, self._tensors[c + 1], axes=(1, 0))
        self._center = c + 1

    def _shift_center_left(self) -> None:
        c = self._center
        a = self._tensors[c]
        dl, _, dr = a.shape
        q, r = np.linalg.qr(a.reshape(dl, 2 * dr).conj().T)
        self._tensors[c] = q.conj().T.reshape(-1, 2, dr)
        self._tensors[c - 1] = np.tensordot(
            self._tensors[c - 1], r.conj().T, axes=(2, 0)
        )
        self._center = c - 1

    def _split_pair(self, theta: np.ndarray, k: int) -> None:
        """Refactor a two-site block ``theta`` (``(Dl, 2, 2, Dr)``) back
        into sites ``k``/``k+1`` by truncated SVD; center lands on ``k+1``."""
        dl, _, _, dr = theta.shape
        u, s, vh = np.linalg.svd(
            theta.reshape(dl * 2, 2 * dr), full_matrices=False
        )
        keep = s.size
        if s[0] > 0.0:
            keep = int(np.count_nonzero(s > self.cutoff * s[0]))
        if self.chi_max is not None:
            keep = min(keep, self.chi_max)
        keep = max(1, keep)
        if keep < s.size:
            weights = s * s
            total = float(weights.sum())
            if total > 0.0:
                self.truncation_error += float(weights[keep:].sum()) / total
        self._tensors[k] = u[:, :keep].reshape(dl, 2, keep)
        self._tensors[k + 1] = (s[:keep, None] * vh[:keep]).reshape(keep, 2, dr)
        self._center = k + 1

    def _swap_sites(self, k: int) -> None:
        """Exchange the qubits at sites ``k`` and ``k+1`` (SWAP routing)."""
        self._center_on_pair(k)
        theta = np.tensordot(self._tensors[k], self._tensors[k + 1], axes=(2, 0))
        self._split_pair(theta.transpose(0, 2, 1, 3), k)
        self._slot_at[k], self._slot_at[k + 1] = (
            self._slot_at[k + 1],
            self._slot_at[k],
        )
        self._rebuild_site_of()

    def _route_adjacent(self, s0: int, s1: int) -> Tuple[int, int]:
        """Bring the qubits of slots ``s0``/``s1`` onto adjacent sites and
        return their site indices (in slot-argument order)."""
        swaps, _ = self._route(s0, s1)
        for k in swaps:
            self._swap_sites(k)
        return self._site_of[s0], self._site_of[s1]

    # -- register operations ------------------------------------------------

    def apply_1q(self, mat: np.ndarray, slot: int) -> None:
        """Apply a single-qubit operator (local contraction; canonical
        structure survives for unitaries, which is all compiled ops use)."""
        site = self._site(slot, "1q gate")
        self._tensors[site] = np.tensordot(
            np.asarray(mat, dtype=complex), self._tensors[site], axes=(1, 1)
        ).transpose(1, 0, 2)

    def apply_2q(self, mat: np.ndarray, slot0: int, slot1: int) -> None:
        """Apply a two-qubit gate (``4×4``, little-endian on
        ``(slot0, slot1)``) — route adjacent, contract, truncated-SVD split."""
        if slot0 == slot1:
            raise ValueError("2q gate needs two distinct slots")
        self._site(slot0, "2q gate")
        self._site(slot1, "2q gate")
        i, j = self._route_adjacent(slot0, slot1)
        k = min(i, j)
        self._center_on_pair(k)
        gate = np.asarray(mat, dtype=complex).reshape(2, 2, 2, 2)
        theta = np.tensordot(self._tensors[k], self._tensors[k + 1], axes=(2, 0))
        if i < j:  # site k holds slot0: G[y1, y0, x1, x0], theta (l, x0, x1, r)
            theta = np.einsum("dcba,labr->lcdr", gate, theta)
        else:  # site k holds slot1
            theta = np.einsum("dcba,lbar->ldcr", gate, theta)
        self._split_pair(theta, k)

    def apply_cz(self, slot0: int, slot1: int) -> None:
        """Controlled-Z between two slots (symmetric)."""
        self.apply_2q(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), slot0, slot1)

    def measure(
        self,
        slot: int,
        basis: Union[MeasurementBasis, np.ndarray],
        u: Optional[float] = None,
        rng=None,
        force: Optional[int] = None,
        renormalize: bool = True,
    ) -> Tuple[int, float]:
        """Measure ``slot`` in ``basis`` and remove it from the register.

        Returns ``(outcome, probability)``.  ``u`` is an optional
        pre-drawn uniform deviate deciding the outcome (``0`` iff
        ``u < p0``, the shared trajectory-engine convention); ``force``
        pins the branch and raises :class:`ZeroProbabilityBranch` when its
        probability is below ``1e-12``.  The probability is always exact
        relative to the current (possibly truncated) state."""
        site = self._site(slot, "measurement")
        self._move_center(site)
        block = _as_basis_block(basis)
        a = self._tensors[site]
        nrm2 = float(np.real(np.vdot(a, a)))
        if nrm2 <= 0.0:
            raise ZeroProbabilityBranch("state has zero norm")
        amp0 = np.tensordot(block[0].conj(), a, axes=(0, 1))
        p0 = float(np.real(np.vdot(amp0, amp0))) / nrm2
        p0 = min(1.0, max(0.0, p0))
        if force is not None:
            outcome = int(force)
            prob = p0 if outcome == 0 else 1.0 - p0
            if prob < 1e-12:
                raise ZeroProbabilityBranch(
                    f"forced outcome {outcome} has probability ~0"
                )
        else:
            if u is None:
                if rng is None:
                    raise ValueError("measure needs u=, rng=, or force=")
                u = float(rng.random())
            outcome = 0 if u < p0 else 1
            prob = p0 if outcome == 0 else 1.0 - p0
        reduced = (
            amp0 if outcome == 0
            else np.tensordot(block[1].conj(), a, axes=(0, 1))
        )
        n = len(self._tensors)
        if n == 1:
            self._amp = self._amp * complex(reduced[0, 0])
            self._center = -1
            if renormalize and abs(self._amp) > 0.0:
                self._amp = self._amp / abs(self._amp)
        elif site > 0:
            self._tensors[site - 1] = np.tensordot(
                self._tensors[site - 1], reduced, axes=(2, 0)
            )
            self._center = site - 1
        else:
            self._tensors[1] = np.tensordot(reduced, self._tensors[1], axes=(1, 0))
            self._center = 1  # becomes site 0 after the drop below
        self._drop_site(site, slot)
        if renormalize and self._tensors:
            c = self._tensors[self._center]
            cn = float(np.linalg.norm(c))
            if cn > 0.0:
                self._tensors[self._center] = c / cn
        return outcome, prob

    def discard(self, slot: int) -> None:
        """Drop an *unentangled* qubit (both bonds 1) from the register.

        Discarding an entangled qubit would leave a mixed state, which an
        MPS cannot represent — that raises instead."""
        site = self._site(slot, "discard")
        if not self._is_product_site(site):
            raise ValueError(
                f"slot {slot} is entangled (bond dims "
                f"{self._tensors[site].shape[0]}x{self._tensors[site].shape[2]}); "
                f"only product qubits can be discarded"
            )
        factor = float(np.linalg.norm(self._tensors[site]))
        n = len(self._tensors)
        if n == 1:
            self._amp = self._amp * factor
            self._tensors = []
            self._slot_at = []
            self._site_of = []
            self._center = -1
            return
        if self._center == site:
            # Hand the norm to a neighbor, which becomes the new center.
            nb = site - 1 if site > 0 else 1
            self._tensors[nb] = self._tensors[nb] * factor
            self._center = nb
        self._drop_site(site, slot)

    # -- dense interchange --------------------------------------------------

    def norm(self) -> float:
        """``sqrt(<ψ|ψ>)`` — read off the center tensor in canonical form."""
        if not self._tensors:
            return abs(self._amp)
        return float(np.linalg.norm(self._tensors[self._center]))

    def to_array(self) -> np.ndarray:
        """Little-endian amplitudes in slot order (slot 0 least
        significant), matching :meth:`StateVector.to_array`."""
        n = self.num_qubits
        if n == 0:
            return np.array([self._amp], dtype=complex)
        if n > MPS_DENSIFY_MAX:
            raise ValueError(
                f"refusing to densify a {n}-qubit MPS "
                f"(cap {MPS_DENSIFY_MAX}); read amplitudes locally instead"
            )
        res = self._tensors[0]
        for t in self._tensors[1:]:
            res = np.tensordot(res, t, axes=(res.ndim - 1, 0))
        res = res.reshape((2,) * n)  # axis per site
        res = res.transpose([self._site_of[s] for s in range(n)])  # axis per slot
        return self._amp * res.transpose(tuple(reversed(range(n)))).reshape(-1)

    @classmethod
    def from_dense_row(
        cls,
        row: np.ndarray,
        chi_max: Optional[int] = None,
        cutoff: float = 1e-12,
    ) -> "MPSState":
        """Build an MPS from a little-endian amplitude row (``2^k``) by a
        left-to-right cascade of truncated SVDs; slot ``i`` lands on site
        ``i``."""
        row = np.asarray(row, dtype=complex).reshape(-1)
        k = int(row.size).bit_length() - 1
        if 1 << k != row.size:
            raise ValueError(f"amplitude row of size {row.size} is not 2^k")
        mps = cls(chi_max=chi_max, cutoff=cutoff)
        if k == 0:
            mps._amp = complex(row[0])
            return mps
        # Axis per qubit, slot order (inverse of to_array's flattening).
        rem = row.reshape((2,) * k).transpose(tuple(reversed(range(k))))
        dl = 1
        for site in range(k - 1):
            m = rem.reshape(dl * 2, -1)
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            keep = s.size
            if s[0] > 0.0:
                keep = int(np.count_nonzero(s > cutoff * s[0]))
            if chi_max is not None:
                keep = min(keep, chi_max)
            keep = max(1, keep)
            if keep < s.size:
                weights = s * s
                total = float(weights.sum())
                if total > 0.0:
                    mps.truncation_error += float(weights[keep:].sum()) / total
            mps._tensors.append(u[:, :keep].reshape(dl, 2, keep))
            rem = s[:keep, None] * vh[:keep]
            dl = keep
        mps._tensors.append(rem.reshape(dl, 2, 1))
        mps._center = k - 1
        mps._slot_at = list(range(k))
        mps._site_of = list(range(k))
        return mps


class _StackedChains(_SlotChain):
    """``b`` chains with one slot map, one center and *equal bond
    dimensions everywhere*, stored as ``(b, Dl, 2, Dr)`` site tensors: the
    group type :class:`BatchedMPSState` is made of.  Every kernel is one
    stacked numpy call, and every routing decision reads the same shapes a
    scalar :class:`MPSState` of each chain would.  A truncated SVD that
    keeps different ranks in different chains splits the group
    (:meth:`_split_pair` returns the parts)."""

    def __init__(self, b: int, chi_max: Optional[int], cutoff: float):
        super().__init__(chi_max, cutoff)
        self._b = b
        self._lead = (b,)
        self._amp = np.ones(b, dtype=complex)
        self.truncation_error = np.zeros(b)

    def _take(self, rows: np.ndarray) -> "_StackedChains":
        """The sub-group of chains ``rows`` (a copy)."""
        sub = _StackedChains(rows.size, self.chi_max, self.cutoff)
        sub._tensors = [t[rows] for t in self._tensors]
        sub._slot_at = list(self._slot_at)
        sub._site_of = list(self._site_of)
        sub._center = self._center
        sub._amp = self._amp[rows]
        sub.truncation_error = self.truncation_error[rows]
        return sub

    def unstack(self) -> List[MPSState]:
        res = []
        for j in range(self._b):
            st = MPSState(chi_max=self.chi_max, cutoff=self.cutoff)
            st._tensors = [t[j].copy() for t in self._tensors]
            st._slot_at = list(self._slot_at)
            st._site_of = list(self._site_of)
            st._center = self._center
            st._amp = complex(self._amp[j])
            st.truncation_error = float(self.truncation_error[j])
            res.append(st)
        return res

    # -- canonical-form plumbing --------------------------------------------

    def _shift_center_right(self) -> None:
        c = self._center
        a = self._tensors[c]
        b, dl, _, dr = a.shape
        q, r = np.linalg.qr(a.reshape(b, dl * 2, dr))
        self._tensors[c] = q.reshape(b, dl, 2, -1)
        nxt = self._tensors[c + 1]
        self._tensors[c + 1] = np.matmul(r, nxt.reshape(b, dr, -1)).reshape(
            b, -1, 2, nxt.shape[3]
        )
        self._center = c + 1

    def _shift_center_left(self) -> None:
        c = self._center
        a = self._tensors[c]
        b, dl, _, dr = a.shape
        q, r = np.linalg.qr(a.reshape(b, dl, 2 * dr).conj().transpose(0, 2, 1))
        self._tensors[c] = q.conj().transpose(0, 2, 1).reshape(b, -1, 2, dr)
        prv = self._tensors[c - 1]
        self._tensors[c - 1] = np.matmul(
            prv.reshape(b, -1, dl), r.conj().transpose(0, 2, 1)
        ).reshape(b, prv.shape[1], 2, -1)
        self._center = c - 1

    def _split_pair(
        self, theta: np.ndarray, k: int
    ) -> Optional[List[Tuple[np.ndarray, "_StackedChains"]]]:
        """Refactor ``(b, Dl, 2, 2, Dr)`` blocks back into sites ``k``/``k+1``
        by one stacked SVD; center lands on ``k+1``.  Each chain keeps the
        singular values its own cutoff and ``chi_max`` admit, exactly as
        :meth:`MPSState._split_pair`.  Returns ``None`` when every chain
        keeps the same rank, else the ``(rows, sub-group)`` parts, one per
        kept rank."""
        b, dl, _, _, dr = theta.shape
        u, s, vh = np.linalg.svd(theta.reshape(b, dl * 2, 2 * dr), full_matrices=False)
        full = s.shape[1]
        s0 = s[:, :1]
        keep = np.count_nonzero(s > self.cutoff * s0, axis=1)
        keep[s0[:, 0] <= 0.0] = full
        if self.chi_max is not None:
            np.minimum(keep, self.chi_max, out=keep)
        np.maximum(keep, 1, out=keep)
        cut = keep < full
        if cut.any():
            weights = s * s
            total = weights.sum(axis=1)
            dropped = np.where(np.arange(full) < keep[:, None], 0.0, weights).sum(axis=1)
            cut &= total > 0.0
            self.truncation_error[cut] += dropped[cut] / total[cut]
        self._center = k + 1
        ranks = np.unique(keep)
        if ranks.size == 1:
            top = int(ranks[0])
            self._tensors[k] = u[:, :, :top].reshape(b, dl, 2, top)
            self._tensors[k + 1] = (s[:, :top, None] * vh[:, :top]).reshape(
                b, top, 2, dr
            )
            return None
        parts = []
        for rank in ranks.tolist():
            rows = np.flatnonzero(keep == rank)
            sub = self._take(rows)
            sub._tensors[k] = u[rows, :, :rank].reshape(rows.size, dl, 2, rank)
            sub._tensors[k + 1] = (
                s[rows, :rank, None] * vh[rows, :rank]
            ).reshape(rows.size, rank, 2, dr)
            parts.append((rows, sub))
        return parts

    def _theta(self, k: int) -> np.ndarray:
        """The two-site block of sites ``k``/``k+1``, ``(b, Dl, 2, 2, Dr)``."""
        a, c = self._tensors[k], self._tensors[k + 1]
        b, dl, _, d = a.shape
        return np.matmul(a.reshape(b, dl * 2, d), c.reshape(b, d, -1)).reshape(
            b, dl, 2, 2, c.shape[3]
        )

    # -- register operations ------------------------------------------------

    def apply_1q(self, mat: np.ndarray, slot: int) -> None:
        site = self._site(slot, "1q gate")
        if mat.ndim == 3:
            mat = mat[:, None]
        self._tensors[site] = np.matmul(mat, self._tensors[site])

    def apply_cz(
        self, rows: np.ndarray, slot0: int, slot1: int
    ) -> List[Tuple[np.ndarray, "_StackedChains"]]:
        """Controlled-Z on every chain of the group (global indices
        ``rows``); returns the ``(rows, group)`` parts it leaves."""
        swaps, k = self._route(slot0, slot1)
        return self._two_site_steps(rows, [(q, True) for q in swaps] + [(k, False)])

    def _two_site_steps(
        self, rows: np.ndarray, steps: List[Tuple[int, bool]]
    ) -> List[Tuple[np.ndarray, "_StackedChains"]]:
        """Run ``(k, is_swap)`` steps — a SWAP of sites ``k``/``k+1``, or
        the CZ on them — each a stacked contraction and truncated SVD.  A
        step that splits the group runs the rest of the steps on each part,
        as each chain's own scalar sweep would."""
        for n, (k, swap) in enumerate(steps):
            self._center_on_pair(k)
            theta = self._theta(k)
            if swap:
                theta = theta.transpose(0, 1, 3, 2, 4)
                self._slot_at[k], self._slot_at[k + 1] = (
                    self._slot_at[k + 1],
                    self._slot_at[k],
                )
                self._rebuild_site_of()
            else:
                theta[:, :, 1, 1, :] *= -1.0
            parts = self._split_pair(theta, k)
            if parts is not None:
                rest = steps[n + 1:]
                return [
                    done
                    for sub_rows, sub in parts
                    for done in sub._two_site_steps(rows[sub_rows], rest)
                ]
        return [(rows, self)]

    def _probe(self, slot: int, vecs: np.ndarray):
        """Center the chains on ``slot`` and form the outcome-0 branch:
        ``(site, a, coef, reduced, p0)`` for :meth:`_collapse`."""
        site = self._site(slot, "measurement")
        self._move_center(site)
        a = self._tensors[site]
        nrm2 = _row_sq_norms(a)
        if np.any(nrm2 <= 0.0):
            raise ZeroProbabilityBranch("state has zero norm")
        coef = vecs.conj()[:, None, None]  # (b, 1, 1, 2, 2)
        reduced = np.matmul(coef[..., 0, :], a)  # (b, Dl, 1, Dr)
        p0 = np.clip(_row_sq_norms(reduced) / nrm2, 0.0, 1.0)
        return site, a, coef, reduced, p0

    def _collapse(self, slot: int, probe, outcomes: np.ndarray) -> None:
        """Project each chain on its outcome, fold the measured site into
        a neighbor, drop it and renormalize."""
        site, a, coef, reduced, _ = probe
        b = self._b
        ones = np.flatnonzero(outcomes)
        if ones.size:  # rebuild only the chains that drew 1
            reduced[ones] = np.matmul(coef[ones, ..., 1, :], a[ones])
        reduced = reduced[:, :, 0]  # (b, Dl, Dr)
        if len(self._tensors) == 1:
            amp = self._amp * reduced[:, 0, 0]
            mag = np.abs(amp)
            self._amp = amp / np.where(mag > 0.0, mag, 1.0)
            self._center = -1
        elif site > 0:
            prv = self._tensors[site - 1]
            self._tensors[site - 1] = np.matmul(
                prv.reshape(b, -1, prv.shape[3]), reduced
            ).reshape(b, prv.shape[1], 2, -1)
            self._center = site - 1
        else:
            nxt = self._tensors[1]
            self._tensors[1] = np.matmul(
                reduced, nxt.reshape(b, nxt.shape[1], -1)
            ).reshape(b, 1, 2, nxt.shape[3])
            self._center = 1  # becomes site 0 after the drop below
        self._drop_site(site, slot)
        if self._tensors:
            c = self._tensors[self._center]
            cn = np.sqrt(_row_sq_norms(c))
            self._tensors[self._center] = c / np.where(cn > 0.0, cn, 1.0)[
                :, None, None, None
            ]


class BatchedMPSState:
    """``B`` MPS chains evolved in lockstep: the shot-stacked sibling of
    :class:`MPSState` (as :class:`~repro.sim.statevector.BatchedStateVector`
    is of ``StateVector``).

    The chains live in groups that share every bond dimension, slot map
    and center; each group stores ``(b, Dl, 2, Dr)`` site tensors, so every
    op is one stacked numpy call (``matmul``, ``qr``, ``svd``) per group.
    Each chain keeps the singular values its *own* cutoff and ``chi_max``
    admit and accumulates its own discarded weight in
    :attr:`truncation_error`; an SVD at which chains keep different ranks
    splits their group.  Every chain therefore takes the routes and
    truncations its scalar :class:`MPSState` would, whichever chains share
    the batch.  Trajectories of one program stay in one group: chains
    whose outcome histories differ by Pauli byproducts and faults have
    equal Schmidt ranks.
    """

    def __init__(
        self, batch_size: int, chi_max: Optional[int] = None, cutoff: float = 1e-12
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._b = batch_size
        self._groups: List[Tuple[np.ndarray, _StackedChains]] = [
            (np.arange(batch_size), _StackedChains(batch_size, chi_max, cutoff))
        ]

    @classmethod
    def stack(cls, states: Sequence[MPSState]) -> "BatchedMPSState":
        """Stack scalar chains that share a slot map and center (e.g. copies
        of one input chain, or per-row :meth:`MPSState.from_dense_row`
        inputs); chains with equal bond dimensions share a group."""
        first = states[0]
        for st in states:
            if st._slot_at != first._slot_at or st._center != first._center:
                raise ValueError("stacked chains must share slot map and center")
        out = cls(len(states), chi_max=first.chi_max, cutoff=first.cutoff)
        shapes = [tuple(t.shape for t in st._tensors) for st in states]
        out._groups = []
        for shape in dict.fromkeys(shapes):
            rows = np.array([j for j, sh in enumerate(shapes) if sh == shape])
            grp = _StackedChains(rows.size, first.chi_max, first.cutoff)
            grp._tensors = [
                np.stack([states[j]._tensors[site] for j in rows])
                for site in range(first.num_qubits)
            ]
            grp._slot_at = list(first._slot_at)
            grp._site_of = list(first._site_of)
            grp._center = first._center
            grp._amp = np.array([states[j]._amp for j in rows], dtype=complex)
            grp.truncation_error = np.array(
                [states[j].truncation_error for j in rows]
            )
            out._groups.append((rows, grp))
        return out

    def unstack(self) -> List[MPSState]:
        """One scalar chain per element, in element order."""
        res: List[Optional[MPSState]] = [None] * self._b
        for rows, grp in self._groups:
            for j, st in zip(rows.tolist(), grp.unstack()):
                res[j] = st
        return res

    @property
    def batch_size(self) -> int:
        return self._b

    @property
    def num_qubits(self) -> int:
        return self._groups[0][1].num_qubits

    @property
    def truncation_error(self) -> np.ndarray:
        """Per-element accumulated relative discarded weight, ``(B,)``."""
        err = np.empty(self._b)
        for rows, grp in self._groups:
            err[rows] = grp.truncation_error
        return err

    def _part(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Group ``rows``' slice of a per-element array."""
        return x if len(self._groups) == 1 else x[rows]

    # -- register operations ------------------------------------------------

    def add_qubit(self, state) -> None:
        """Append one qubit in ``state`` (shared by every element) at the
        top slot."""
        for _, grp in self._groups:
            grp.add_qubit(state)

    def permute(self, order) -> None:
        """Relabel slots: new slot ``j`` holds what old slot ``order[j]``
        held.  Pure bookkeeping."""
        for _, grp in self._groups:
            grp.permute(order)

    def apply_1q(self, mat: np.ndarray, slot: int) -> None:
        """Apply a single-qubit operator: one ``(2, 2)`` matrix for every
        element, or a ``(B, 2, 2)`` stack of per-element matrices."""
        mat = np.asarray(mat, dtype=complex)
        for rows, grp in self._groups:
            grp.apply_1q(mat if mat.ndim == 2 else self._part(mat, rows), slot)

    def apply_1q_masked(self, mat: np.ndarray, slot: int, mask: np.ndarray) -> None:
        """Apply ``mat`` to the elements selected by the boolean ``(B,)``
        ``mask`` (conditional corrections)."""
        if mask.all():
            self.apply_1q(mat, slot)
        elif mask.any():
            self.apply_1q(np.where(mask[:, None, None], mat, IPAULIS[0]), slot)

    def apply_paulis(self, slot: int, faults: np.ndarray) -> None:
        """Per-element Pauli faults: ``faults[j]`` is ``-1`` (none) or
        ``0``/``1``/``2`` for X/Y/Z."""
        if (faults >= 0).any():
            self.apply_1q(IPAULIS[faults.astype(np.intp) + 1], slot)

    def apply_cz(self, slot0: int, slot1: int) -> None:
        """Controlled-Z between two slots of every element: route adjacent,
        one stacked contraction, one stacked truncated SVD per group."""
        if slot0 == slot1:
            raise ValueError("2q gate needs two distinct slots")
        grp = self._groups[0][1]
        grp._site(slot0, "2q gate")
        grp._site(slot1, "2q gate")
        self._groups = [
            part
            for rows, grp in self._groups
            for part in grp.apply_cz(rows, slot0, slot1)
        ]

    def measure(
        self,
        slot: int,
        vecs: np.ndarray,
        u: Optional[np.ndarray] = None,
        force: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Measure ``slot`` of every element, remove it from the register
        and renormalize.

        ``vecs`` is a ``(B, 2, 2)`` block of per-element bases (row ``m``
        the outcome-``m`` vector).  Element ``j`` draws outcome 0 iff
        ``u[j] < p0[j]``; ``force`` pins every element's outcome and raises
        :class:`ZeroProbabilityBranch` when any element's probability is
        below ``1e-12``.  Returns ``(outcomes, probabilities)`` as ``(B,)``
        arrays."""
        vecs = np.asarray(vecs, dtype=complex)
        if vecs.shape != (self._b, 2, 2):
            raise ValueError("vecs must have shape (batch_size, 2, 2)")
        if force is None and u is None:
            raise ValueError("measure needs u= or force=")
        probes = [grp._probe(slot, self._part(vecs, rows)) for rows, grp in self._groups]
        p0 = np.empty(self._b)
        for (rows, _), probe in zip(self._groups, probes):
            p0[rows] = probe[-1]
        if force is not None:
            outcomes = np.full(self._b, force, dtype=np.int8)
            probs = p0 if force == 0 else 1.0 - p0
            if np.any(probs < 1e-12):
                raise ZeroProbabilityBranch(
                    f"forced outcome {force} has probability ~0"
                )
        else:
            outcomes = (np.asarray(u) >= p0).astype(np.int8)
            probs = np.where(outcomes == 0, p0, 1.0 - p0)
        for (rows, grp), probe in zip(self._groups, probes):
            grp._collapse(slot, probe, self._part(outcomes, rows))
        return outcomes, probs
