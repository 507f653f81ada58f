"""Stores of a degree-two tour for the walk's crossing queries and four-cuts.

Both take the tour ``arcs`` and the graph's ``heads``; position p belongs to
vertex heads[arcs[p]], and each vertex must own exactly two positions.  An
occurrence carries a stable integer token, its position in the initial tour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multigraph import Tour
from .rng import SplitMix64


def _vertex_tokens(arcs, heads):
    """The arcs as ints, each position's owner, each vertex's two tokens and
    the sorted vertices; ValueError unless every vertex owns two positions."""
    arcs = [int(a) for a in arcs]
    if not arcs:
        raise ValueError("tour has no positions")
    owners = np.asarray(heads)[arcs].tolist()
    tokens: dict[int, list[int]] = {}
    for t, v in enumerate(owners):
        tokens.setdefault(v, []).append(t)
    for v, ts in tokens.items():
        if len(ts) != 2:
            raise ValueError(f"vertex {v} owns {len(ts)} positions, not 2")
    vert_tok = {v: (ts[0], ts[1]) for v, ts in tokens.items()}
    return arcs, owners, vert_tok, sorted(vert_tok)


def repair_index(w: int, u: float) -> int:
    """Map one uniform real to a repair index in 0..w (0 = self-loop).

    Every step implementation draws through this one rule, so paired walks
    on the same randomness pick the same vertex on every store."""
    return min(int(u * (w + 1)), w)


@dataclass
class FlatQueryResult:
    """The vertices whose chords cross a queried chord, ascending by id."""

    crossings: np.ndarray
    generation: int

    @property
    def w_total(self) -> int:
        return len(self.crossings)


class ChordStore:
    """The tour as flat arrays, scanned whole each step.

    ``tok`` holds the token at each position, ``pos`` the position of each
    token, ``occ_owner`` and ``occ_arc`` each token's owner vertex and arc.
    A crossing query and a four-cut are each O(M) numpy work with O(1)
    Python work, which beats ``ChunkedStore`` up to a measured crossover of
    a few million arcs (``sampler.FLAT_MAX_M``).  The crossings come out
    sorted by vertex id, so the repair draw picks the same vertex as
    ``walk.step_naive``.
    """

    kind = "flat"

    def __init__(self, arcs, heads) -> None:
        arcs, owners, self.vert_tok, self.vertices = _vertex_tokens(arcs, heads)
        self.m = len(arcs)
        self.occ_arc = np.array(arcs, dtype=np.intp)
        self.occ_owner = np.array(owners, dtype=np.intp)
        self.tok = np.arange(self.m, dtype=np.intp)
        self.pos = np.arange(self.m, dtype=np.intp)
        self.generation = 0

    def tour(self) -> Tour:
        return Tour.canonical(self.occ_arc[self.tok].tolist())

    def crossing_query(self, x: int) -> FlatQueryResult:
        """The owners seen once on the shorter side of x's chord: each has one
        endpoint on each side.  Counted by vertex, so ascending by id."""
        if x not in self.vert_tok:
            raise ValueError(f"vertex {x} not in the store")
        t1, t2 = self.vert_tok[x]
        p1, p2 = self.pos.item(t1), self.pos.item(t2)
        if p1 > p2:
            p1, p2 = p2, p1
        tok = self.tok
        if 2 * (p2 - p1) <= self.m:
            side = tok[p1 + 1 : p2]
        else:
            side = np.concatenate((tok[:p1], tok[p2 + 1 :]))
        crossings = np.flatnonzero(np.bincount(self.occ_owner[side]) == 1)
        return FlatQueryResult(crossings, self.generation)

    def crossing_vertices(self, res: FlatQueryResult) -> list[int]:
        if res.generation != self.generation:
            raise ValueError("stale crossing query result")
        return res.crossings.tolist()

    def sample_repair(self, x: int, res: FlatQueryResult, rng: SplitMix64) -> int:
        """x with probability 1/(W+1), else a uniform crossing vertex; one
        uniform real picks the index through ``repair_index``."""
        if res.generation != self.generation:
            raise ValueError("stale crossing query result")
        k = repair_index(len(res.crossings), rng.random())
        return x if k == 0 else int(res.crossings[k - 1])

    def apply_four_cut(self, x: int, y: int) -> None:
        """Rewrite the token array over (p1, p4] as ``ChunkedStore`` reorders
        its chunks, and re-index those positions."""
        if x == y:
            raise ValueError("four-cut needs two distinct crossing chords")
        pos, tok = self.pos, self.tok
        t1, t2 = self.vert_tok[x]
        a1, a2 = sorted((pos.item(t1), pos.item(t2)))
        t1, t2 = self.vert_tok[y]
        b1, b2 = pos.item(t1), pos.item(t2)
        if (a1 < b1 < a2) == (a1 < b2 < a2):
            raise ValueError(f"chords {x} and {y} do not cross in the current tour")
        p1, p2, p3, p4 = sorted((a1, a2, b1, b2))
        tok[p1 + 1 : p4 + 1] = np.concatenate(
            (tok[p3 + 1 : p4 + 1], tok[p2 + 1 : p3 + 1], tok[p1 + 1 : p2 + 1])
        )
        pos[tok[p1 + 1 : p4 + 1]] = np.arange(p1 + 1, p4 + 1)
        self.generation += 1

    def validate(self) -> tuple[bool, str]:
        """Check the arrays against each other and the vertex token pairs."""
        every = np.arange(self.m)
        if not np.array_equal(np.sort(self.tok), every):
            return False, "token array is not a permutation"
        if not np.array_equal(self.pos[self.tok], every):
            return False, "stale token position"
        pairs = np.array(list(self.vert_tok.values()), dtype=np.intp)
        if not np.array_equal(np.sort(pairs, axis=None), every):
            return False, "vertex token pairs do not partition the tokens"
        vs = np.array(list(self.vert_tok), dtype=np.intp)
        if not np.array_equal(self.occ_owner[pairs], np.stack((vs, vs), axis=1)):
            return False, "owner table disagrees with the vertex token pairs"
        return True, ""


@dataclass
class CrossingQueryResult:
    """Split crossing count for one chord: aggregate class plus explicit list."""

    w_a: int
    vf_masked: np.ndarray  # class-A counts per outside chunk id below id_limit
    f_chunk_ids: list[int]  # full inside chunks, in cyclic rank order
    class_b: list[int]
    generation: int

    @property
    def w_total(self) -> int:
        return self.w_a + len(self.class_b)


class ChunkedStore:
    """The tour in chunks of B/2 to 2B tokens (B near sqrt(M) by default),
    in a cyclic order held by a plain list of chunk identifiers.

    Pair lists keyed by unordered chunk pairs hold the chords; they are the
    record.  A count matrix over the chunk-identifier pool caches, at entry
    (C, D), the length of the pair list (C, D), counted twice on the
    diagonal; it is written back once per four-cut for the pairs whose lists
    changed.  A crossing query sums the matrix rows of the chunks strictly
    inside the queried chord, or subtracts the rows of the other chunks from
    the column totals when they are fewer, and scans the two boundary chunks
    explicitly.  A four-cut splits at most four chunks, splices the order
    list, rebuilds undersized neighbourhoods and moves the chords of every
    changed chunk to their new pair lists.  One walk step is O(sqrt(M))
    Python-level work plus one vectorized reduction over at most half of the
    chunk rows, reading only the columns of identifiers in use: O(M)
    elements in all.

    A token's (chunk id, offset) changes only when its chunk is split or
    rebuilt.  Identifiers come from a fixed pool of 4*ceil(M/B) + 8, so the
    count matrix never resizes; one is recycled only after all of its
    endpoint contributions have been deleted.
    """

    kind = "chunks"

    def __init__(self, arcs, heads, chunk_size: int | None = None) -> None:
        """``chunk_size`` overrides B = ceil(sqrt(M)); at M or more the tour is
        one chunk."""
        arcs, owners, self.vert_tok, self.vertices = _vertex_tokens(arcs, heads)
        self.m = m = len(arcs)
        self.b = int(chunk_size) if chunk_size else math.isqrt(m - 1) + 1
        if self.b < 1:
            raise ValueError("chunk size must be at least 1")
        self.generation = 0

        self.pool = 4 * ((m + self.b - 1) // self.b) + 8
        self.occ_arc = arcs
        self.occ_owner = owners
        self.partner = [0] * m  # the other token of the same vertex
        for t1, t2 in self.vert_tok.values():
            self.partner[t1] = t2
            self.partner[t2] = t1
        self.occ_chunk = [0] * m
        self.occ_off = [0] * m

        self.chunk_tokens: list[list[int] | None] = [None] * self.pool
        # No count exceeds the M/2 chords; int32 halves the bytes that the
        # class-A reduction of every crossing query reads.
        self.contrib = np.zeros((self.pool, self.pool), dtype=np.int32)
        self.coord_total = np.zeros(self.pool, dtype=np.int32)
        # The two arrays above cache the pair lists; _flush rewrites them from
        # the lists touched since the last flush (a deleted one as ()).
        self.ends = [0] * self.pool  # chord endpoints per identifier
        self._touched: dict[int, list[int] | tuple] = {}
        # emptied lists for reuse: at large M most lists hold one chord, and
        # a new list per re-key made the garbage collector run every few steps
        self._spare: list[list[int]] = []
        self.free_ids = list(range(self.pool - 1, -1, -1))
        # Identifiers are handed out lowest first and recycled last in,
        # first out, so those below this bound (about the chunk count) are
        # the only ones ever used: count-matrix rows are zero beyond it.
        self.id_limit = 0

        # pair lists keyed by c * pool + d for the chunk pair c <= d
        self.pairs: dict[int, list[int]] = {}
        # per vertex: the key of its pair list and its slot in that list
        self.vert_key = [-1] * (max(owners) + 1)
        self.vert_idx = [-1] * (max(owners) + 1)

        # the authoritative chunk order, and rank and start-position caches
        # that are valid between tour updates
        self.order: list[int] = []
        self.rank_of = [0] * self.pool
        self.pos_base = [0] * self.pool

        self._build_initial()

    # -- construction ---------------------------------------------------------

    def _alloc(self) -> int:
        if not self.free_ids:
            raise AssertionError("chunk identifier pool exhausted")
        cid = self.free_ids.pop()
        self.id_limit = max(self.id_limit, cid + 1)
        return cid

    def _retire(self, cid: int) -> None:
        if self.ends[cid] != 0:
            raise AssertionError(
                f"identifier {cid} retired with live endpoint contributions"
            )
        self.chunk_tokens[cid] = None
        self.free_ids.append(cid)

    def _partition(self, tokens: list[int]) -> list[list[int]]:
        """Cut size-B chunks left to right; merge a small remainder backward."""
        b = self.b
        out = [tokens[i : i + b] for i in range(0, len(tokens), b)]
        if len(out) >= 2 and 2 * len(out[-1]) < b:
            tail = out.pop()
            out[-1] = out[-1] + tail
        return out

    def _build_initial(self) -> None:
        groups = self._partition(list(range(self.m)))
        for grp in groups:
            cid = self._alloc()
            self.chunk_tokens[cid] = grp
            for off, t in enumerate(grp):
                self.occ_chunk[t] = cid
                self.occ_off[t] = off
            self.order.append(cid)
        self._chords_insert(self.vert_tok)
        self._flush()
        self._refresh_order()

    # -- pair lists and the count cache -------------------------------------------

    def _pairkey(self, c: int, d: int) -> int:
        return c * self.pool + d if c <= d else d * self.pool + c

    def _chords_remove(self, vertices) -> None:
        """Swap-remove chords from their pair lists; the counts wait for a flush."""
        pairs, vert_key, vert_idx = self.pairs, self.vert_key, self.vert_idx
        touched, ends, pool, spare = self._touched, self.ends, self.pool, self._spare
        for v in vertices:
            key = vert_key[v]
            idx = vert_idx[v]
            lst = pairs[key]
            last = lst.pop()
            if last != v:
                lst[idx] = last
                vert_idx[last] = idx
            if lst:
                touched[key] = lst
            else:
                del pairs[key]
                spare.append(lst)
                touched[key] = ()
            ends[key // pool] -= 1
            ends[key % pool] -= 1

    def _chords_insert(self, vertices) -> None:
        """Append chords to the pair lists of their current chunk pairs."""
        pairs, vert_key, vert_idx = self.pairs, self.vert_key, self.vert_idx
        touched, ends, pool, spare = self._touched, self.ends, self.pool, self._spare
        vert_tok, occ_chunk = self.vert_tok, self.occ_chunk
        for v in vertices:
            t1, t2 = vert_tok[v]
            c1, c2 = occ_chunk[t1], occ_chunk[t2]
            key = c1 * pool + c2 if c1 <= c2 else c2 * pool + c1
            lst = pairs.get(key)
            if lst is None:
                lst = pairs[key] = spare.pop() if spare else []
            vert_key[v] = key
            vert_idx[v] = len(lst)
            lst.append(v)
            touched[key] = lst
            ends[c1] += 1
            ends[c2] += 1

    def _flush(self) -> None:
        """Write the list length of every touched chunk pair into the counts."""
        touched = self._touched
        if not touched:
            return
        k = len(touched)
        keys = np.fromiter(touched, np.intp, k)
        n = np.fromiter(map(len, touched.values()), np.int32, k)
        a, b = np.divmod(keys, self.pool)
        n[a == b] *= 2  # once per endpoint, so column sums are the ends
        self.contrib[a, b] = n
        self.contrib[b, a] = n
        self.coord_total[: self.id_limit] = self.ends[: self.id_limit]
        touched.clear()

    # -- order ------------------------------------------------------------------------

    def _refresh_order(self) -> None:
        order = self.order
        rank_of, pos_base, toks = self.rank_of, self.pos_base, self.chunk_tokens
        run = 0
        for r, c in enumerate(order):
            rank_of[c] = r
            pos_base[c] = run
            run += len(toks[c])

    # -- positions -------------------------------------------------------------------

    def token_position(self, tok: int) -> int:
        return self.pos_base[self.occ_chunk[tok]] + self.occ_off[tok]

    def tour(self) -> Tour:
        seq = []
        for c in self.order:
            seq.extend(self.occ_arc[t] for t in self.chunk_tokens[c])
        return Tour.canonical(seq)

    # -- crossing query -----------------------------------------------------------------

    def crossing_query(self, x: int) -> CrossingQueryResult:
        if x not in self.vert_tok:
            raise ValueError(f"vertex {x} not in the store")
        t1, t2 = self.vert_tok[x]
        p1, p2 = self.token_position(t1), self.token_position(t2)
        if p1 > p2:
            p1, p2 = p2, p1
            t1, t2 = t2, t1
        ca, cb = self.occ_chunk[t1], self.occ_chunk[t2]
        ra, rb = self.rank_of[ca], self.rank_of[cb]
        boundary = (ca,) if ca == cb else (ca, cb)
        hi = self.id_limit
        if ca == cb or rb == ra + 1:
            f_ids: list[int] = []
            vf = np.zeros(hi, dtype=np.int32)
        else:
            order = self.order
            f_ids = order[ra + 1 : rb]
            if 2 * len(f_ids) <= len(order):
                vf = self.contrib[f_ids, :hi].sum(axis=0, dtype=np.int32)
            else:
                outside = order[: ra + 1] + order[rb:]
                vf = self.coord_total[:hi] - self.contrib[outside, :hi].sum(
                    axis=0, dtype=np.int32
                )
            vf[f_ids] = 0
        vf[list(boundary)] = 0
        w_a = int(vf.sum())

        # Boundary tokens are scanned in position order, and each crossing
        # chord is listed at its first endpoint: a partner in a boundary
        # chunk at a smaller position means the chord was seen already.
        class_b: list[int] = []
        occ_chunk, occ_off, pos_base = self.occ_chunk, self.occ_off, self.pos_base
        partner, occ_owner = self.partner, self.occ_owner
        for c in boundary:
            q = pos_base[c]
            for tok in self.chunk_tokens[c]:
                u = partner[tok]
                cu = occ_chunk[u]
                qu = pos_base[cu] + occ_off[u]
                if (p1 < q < p2) != (p1 < qu < p2) and not (qu < q and cu in boundary):
                    class_b.append(occ_owner[tok])
                q += 1
        return CrossingQueryResult(
            w_a=w_a,
            vf_masked=vf,
            f_chunk_ids=f_ids,
            class_b=class_b,
            generation=self.generation,
        )

    def crossing_vertices(self, res: CrossingQueryResult) -> list[int]:
        """Materialize the full crossing set (testing and mirrored selection)."""
        if res.generation != self.generation:
            raise ValueError("stale crossing query result")
        ids = list(res.class_b)
        for d in np.flatnonzero(res.vf_masked):
            d = int(d)
            for c in res.f_chunk_ids:
                lst = self.pairs.get(self._pairkey(c, d))
                if lst:
                    ids.extend(lst)
        ids.sort()
        return ids

    def sample_repair(
        self, x: int, res: CrossingQueryResult, rng: SplitMix64
    ) -> int:
        """x with probability 1/(W+1), else a uniform crossing vertex.

        Class A is drawn by outside-chunk, then inside-chunk, then list slot;
        class B directly from the explicit list.  A single uniform real drives
        the whole choice.
        """
        if res.generation != self.generation:
            raise ValueError("stale crossing query result")
        k = repair_index(res.w_total, rng.random())
        if k == 0:
            return x
        k -= 1
        if k < res.w_a:
            cum = np.cumsum(res.vf_masked)
            d = int(np.searchsorted(cum, k, side="right"))
            within = k - (int(cum[d - 1]) if d else 0)
            for c in res.f_chunk_ids:
                lst = self.pairs.get(self._pairkey(c, d))
                if not lst:
                    continue
                if within < len(lst):
                    return lst[within]
                within -= len(lst)
            raise AssertionError("class-A counts disagree with pair lists")
        return res.class_b[k - res.w_a]

    # -- four-cut update ------------------------------------------------------------------

    def apply_four_cut(self, x: int, y: int) -> None:
        """Reorder the tour for the accepted flip pair (x, y).

        With the four cut positions p1 < p2 < p3 < p4 in linear order, the
        segments (p1, p2], (p2, p3], (p3, p4] swap their order to third,
        second, first; contents are never reversed.
        """
        if x == y:
            raise ValueError("four-cut needs two distinct crossing chords")
        toks = list(self.vert_tok[x]) + list(self.vert_tok[y])
        pts = sorted((self.token_position(t), t) for t in toks)
        owners = [self.occ_owner[t] for _, t in pts]
        if owners[0] != owners[2] or owners[1] != owners[3] or owners[0] == owners[1]:
            raise ValueError(f"chords {x} and {y} do not cross in the current tour")

        candidates: list[int] = []
        for _, tok in pts:
            candidates.extend(self._ensure_boundary_after(tok))
        order = self.order
        r1, r2, r3, r4 = sorted(order.index(self.occ_chunk[tok]) for _, tok in pts)
        self.order = (
            order[: r1 + 1]
            + order[r3 + 1 : r4 + 1]
            + order[r2 + 1 : r3 + 1]
            + order[r1 + 1 : r2 + 1]
            + order[r4 + 1 :]
        )
        self._repair_sizes(candidates)
        self._refresh_order()
        self._flush()
        self.generation += 1

    def _ensure_boundary_after(self, tok: int) -> list[int]:
        """Split the token's chunk so a chunk boundary follows the token.

        The smaller piece moves to a fresh identifier; the larger keeps the
        old one so fewer chords change pair lists.  Returns the piece ids.
        """
        c = self.occ_chunk[tok]
        toks = self.chunk_tokens[c]
        cut = self.occ_off[tok] + 1
        if cut == len(toks):
            return []
        left_part, right_part = toks[:cut], toks[cut:]
        move_right = len(right_part) <= len(left_part)
        moved = right_part if move_right else left_part
        kept = left_part if move_right else right_part

        affected = {self.occ_owner[t] for t in moved}
        self._chords_remove(affected)

        c2 = self._alloc()
        self.chunk_tokens[c] = kept
        self.chunk_tokens[c2] = moved
        occ_chunk, occ_off = self.occ_chunk, self.occ_off
        if not move_right:
            # the kept right part stays in chunk c, shifted to offset 0
            for off, t in enumerate(kept):
                occ_off[t] = off
        for off, t in enumerate(moved):
            occ_chunk[t] = c2
            occ_off[t] = off
        self.order.insert(self.order.index(c) + move_right, c2)
        self._chords_insert(affected)
        return [c, c2]

    def _repair_sizes(self, candidates: list[int]) -> None:
        """Restore the chunk-size invariant around undersized pieces.

        Rebuild windows cover each maximal run of undersized chunks, widened
        by neighbor chunks only as far as needed to reach B/2 occurrences.
        Windows are rebuilt in descending rank order, so the ranks below
        each remaining window stay valid throughout; the caller refreshes the
        rank and position caches afterwards.
        """
        order = self.order
        q = len(order)
        if q <= 1:
            return  # degenerate single chunk
        bad = sorted(
            {
                order.index(c)
                for c in set(candidates)
                if self.chunk_tokens[c] is not None
                and 2 * len(self.chunk_tokens[c]) < self.b
            }
        )
        if not bad:
            return
        toks = self.chunk_tokens
        windows: list[list[int]] = []
        i = 0
        while i < len(bad):
            start = end = bad[i]
            i += 1
            while i < len(bad) and bad[i] == end + 1:
                end = bad[i]
                i += 1
            total = sum(len(toks[c]) for c in order[start : end + 1])
            lo, hi = start, end
            # widen with the smaller neighbor until the window is big enough
            while 2 * total < self.b and (lo > 0 or hi < q - 1):
                lsize = len(toks[order[lo - 1]]) if lo > 0 else None
                rsize = len(toks[order[hi + 1]]) if hi < q - 1 else None
                if rsize is None or (lsize is not None and lsize <= rsize):
                    lo -= 1
                    total += lsize
                else:
                    hi += 1
                    total += rsize
            if windows and lo <= windows[-1][1]:
                windows[-1][1] = max(windows[-1][1], hi)
            else:
                windows.append([lo, hi])
        for lo, hi in reversed(windows):
            self._rebuild_window(lo, hi)

    def _rebuild_window(self, rank_lo: int, rank_hi: int) -> None:
        old_ids = self.order[rank_lo : rank_hi + 1]
        tokens: list[int] = []
        for c in old_ids:
            tokens.extend(self.chunk_tokens[c])
        occ_chunk, occ_off = self.occ_chunk, self.occ_off

        # Each new chunk reuses the identifier of the old chunk contributing
        # most of its tokens (one reuse per old id); chords whose endpoint
        # chunks are unchanged then need no pair-list or aggregate updates.
        groups = self._partition(tokens)
        new_ids: list[int] = []
        reused: set[int] = set()
        for grp in groups:
            votes: dict[int, int] = {}
            for t in grp:
                c = occ_chunk[t]
                votes[c] = votes.get(c, 0) + 1
            best = max(votes, key=votes.get)
            if best not in reused:
                reused.add(best)
                new_ids.append(best)
            else:
                new_ids.append(self._alloc())
        affected = {
            self.occ_owner[t]
            for grp, cid in zip(groups, new_ids)
            for t in grp
            if occ_chunk[t] != cid
        }
        self._chords_remove(affected)

        for grp, cid in zip(groups, new_ids):
            self.chunk_tokens[cid] = grp
            for off, t in enumerate(grp):
                occ_chunk[t] = cid
                occ_off[t] = off
        self.order[rank_lo : rank_hi + 1] = new_ids
        self._chords_insert(affected)
        for c in old_ids:
            if c not in reused:
                self._retire(c)

    # -- validation -------------------------------------------------------------------------

    def validate(self) -> tuple[bool, str]:
        """Recompute everything from scratch; exact equality required."""
        seen_tokens = []
        for c in self.order:
            toks = self.chunk_tokens[c]
            if toks is None:
                return False, f"free chunk {c} appears in the order"
            if c >= self.id_limit:
                return False, f"chunk {c} lies beyond the identifier limit"
            if len(self.order) > 1 and not (
                self.b <= 2 * len(toks) and len(toks) <= 2 * self.b
            ):
                return False, f"chunk {c} has size {len(toks)} outside [B/2, 2B]"
            for off, t in enumerate(toks):
                if self.occ_chunk[t] != c or self.occ_off[t] != off:
                    return False, f"token {t} has stale chunk/offset"
            seen_tokens.extend(toks)
        if sorted(seen_tokens) != list(range(self.m)):
            return False, "chunks do not partition the tokens"

        if self._touched:
            return False, f"{len(self._touched)} touched keys not flushed"
        contrib = np.zeros_like(self.contrib)
        for v, (t1, t2) in self.vert_tok.items():
            c1, c2 = self.occ_chunk[t1], self.occ_chunk[t2]
            key = self._pairkey(c1, c2)
            if self.vert_key[v] != key:
                return False, f"vertex {v} pair key mismatch"
            lst = self.pairs.get(key, [])
            idx = self.vert_idx[v]
            if idx < 0 or idx >= len(lst) or lst[idx] != v:
                return False, f"vertex {v} back-index mismatch"
            contrib[c1, c2] += 1
            contrib[c2, c1] += 1
        if not np.array_equal(contrib, self.contrib):
            c1, c2 = map(int, np.argwhere(contrib != self.contrib)[0])
            return False, f"contribution mismatch at chunks ({c1}, {c2})"
        ends = contrib.sum(axis=0)
        if ends.tolist() != self.ends:
            return False, "endpoint counts mismatch"
        if not np.array_equal(ends, self.coord_total):
            return False, "coordinate totals mismatch"
        for key, lst in self.pairs.items():
            if not lst:
                return False, f"empty pair list kept for {key}"
        total = sum(len(lst) for lst in self.pairs.values())
        if total != len(self.vert_tok):
            return False, f"pair lists hold {total} entries for {len(self.vert_tok)} chords"

        run = 0
        for r, c in enumerate(self.order):
            if self.rank_of[c] != r or self.pos_base[c] != run:
                return False, f"order cache stale at chunk {c}"
            run += len(self.chunk_tokens[c])
        return True, ""
