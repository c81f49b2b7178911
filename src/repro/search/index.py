"""Sharded spatial candidate index over a mutable trajectory database.

:class:`TrajectoryIndex` is the database half of the search subsystem: it holds
the point arrays, one :class:`~repro.search.bounds.TrajectorySummary` per
trajectory (MBR, endpoints, length, coordinate sums — everything the lower
bounds consume), and an inverted cell index built on the existing spatial
structures in ``repro.data`` (a regular :class:`~repro.data.Grid` by default,
or a :class:`~repro.data.QuadTree` whose leaves adapt to the point density).

The index is **sharded**: trajectories are assigned to shards by the coarse
grid cell of their MBR centroid (over the initial bounding box, which is
frozen so shard keys stay stable — ``Grid.cell_of`` clamps outsiders to edge
cells).  Each shard lazily owns its slice of the derived structures — stacked
summary envelopes, inverted cells, per-member MBR arrays, a content
fingerprint — and the query methods (:meth:`lower_bounds`,
:meth:`cell_candidates`, :meth:`range_query`) fan out across shards and merge,
producing exactly the values the previous monolithic index produced.

Sharding is what makes the index **mutable**: :meth:`insert` and :meth:`evict`
touch only the affected shards' lazy structures instead of rebuilding the
world, and bump a :attr:`generation` counter that downstream caches (the
service result cache, the shared-memory arena cache) key on.  The content
:attr:`fingerprint` is assembled from memoized *per-trajectory* digests, so a
mutation re-hashes only the delta and the fingerprint is identical however the
same content was reached (build fresh, or build + insert/evict).

The inverted index answers *which trajectories touch the same cells as this
query* — a cheap spatial-overlap signal used to rank candidates and to answer
region queries.  It is deliberately **not** part of the exact-search pruning
chain: cell overlap can miss true neighbours, so :func:`repro.search.knn_search`
keeps every trajectory as a candidate and relies on the sound lower bounds
instead.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from ..data.grid import Grid
from ..data.quadtree import QuadTree
from ..data.trajectory import BoundingBox
from ..distances.base import checked_points
from ..engine.executor import CanonicalArrays
from ..obs import counter
from ..obs.spans import span
from .bounds import StackedSummaries, TrajectorySummary, get_batch_lower_bound

__all__ = ["TrajectoryIndex"]


class _Shard:
    """One spatial shard: member ids plus lazily built per-shard structures.

    ``members`` holds *global* dense trajectory ids in insertion order; every
    lazy structure below is keyed by the member's local position, so an
    eviction elsewhere in the index only relabels ``members`` and the lazies
    stay valid.  ``None`` marks "not built yet".  ``_stacked`` holds the
    members' :class:`~repro.search.bounds.StackedSummaries` (a shard mixing
    2-D and 3-D members stacks at their common width).
    """

    __slots__ = ("members", "_stacked", "_cells", "_fingerprint",
                 "_mins", "_maxs", "_agg_mins", "_agg_maxs")

    def __init__(self, members: np.ndarray):
        self.members = members
        self.invalidate()

    def invalidate(self) -> None:
        self._stacked: StackedSummaries | None = None
        self._cells: dict[int, np.ndarray] | None = None
        self._fingerprint: str | None = None
        self._mins: np.ndarray | None = None
        self._maxs: np.ndarray | None = None
        self._agg_mins: np.ndarray | None = None
        self._agg_maxs: np.ndarray | None = None


def _checked_arrays(trajectories, where: str) -> list[np.ndarray]:
    """Every trajectory as a C-contiguous, non-empty ``(n, d>=2)`` float64
    array of finite coordinates, checked before the caller mutates anything;
    a ``ValueError`` names the offending position."""
    arrays = []
    for position, trajectory in enumerate(trajectories):
        what = f"points of trajectory {position} {where}"
        points = checked_points(trajectory, what)
        if points.shape[0] == 0:
            raise ValueError(f"{what} must hold at least one point")
        arrays.append(np.ascontiguousarray(points))
    return arrays


class TrajectoryIndex:
    """Sharded inverted cell index plus per-trajectory summaries, mutable in place."""

    def __init__(self, trajectories: Sequence, spatial_index: str = "grid",
                 num_columns: int = 16, num_rows: int = 16,
                 max_points: int = 32, max_depth: int = 6, margin: float = 1e-6,
                 shard_columns: int = 2, shard_rows: int = 2):
        arrays = _checked_arrays(trajectories, "to index")
        if not arrays:
            raise ValueError("an index needs at least one trajectory")
        # Tagged as already-canonical so every ``engine.pairs`` refinement
        # batch over this database skips re-converting the same trajectories —
        # and so the arena cache can join arrays to arena slots by identity.
        self.arrays = CanonicalArrays(arrays)
        self.summaries = [TrajectorySummary.of(points) for points in arrays]
        self.bounding_box = self._global_box(margin)

        if spatial_index not in ("grid", "quadtree"):
            raise ValueError(f"unknown spatial index '{spatial_index}'; "
                             f"options: ('grid', 'quadtree')")
        self._spatial_index = spatial_index
        self._grid_shape = (num_columns, num_rows)
        self._quadtree_shape = (max_points, max_depth)
        # The cell structures are built lazily on first cell_candidates() call:
        # the exact-search path never consumes them, so indexes constructed just
        # for knn_search/SearchService skip the O(total points) tokenisation.
        self._grid: Grid | None = None
        self._quadtree: QuadTree | None = None

        #: Bumped by every insert()/evict(); result caches and the arena cache
        #: key their invalidation on it.
        self.generation = 0
        # Per-trajectory content digests, memoized so a mutation only hashes
        # the delta; the global/per-shard fingerprints fold these 32-byte
        # digests, which makes them construction-path independent.
        self._digests: list[bytes | None] = [None] * len(arrays)
        self._fingerprint: str | None = None
        self._fingerprint_generation = -1

        if shard_columns <= 0 or shard_rows <= 0:
            raise ValueError("shard_columns and shard_rows must be positive")
        # Frozen coarse grid over the *initial* bounding box: shard keys must
        # stay stable under mutation, and cell_of clamps out-of-box centroids
        # to edge cells, so later inserts always land somewhere.
        self._shard_grid = Grid(self.bounding_box, shard_columns, shard_rows)
        buckets: dict[int, list[int]] = {}
        for trajectory_id, summary in enumerate(self.summaries):
            buckets.setdefault(self._shard_key(summary), []).append(trajectory_id)
        self._shards: dict[int, _Shard] = {
            key: _Shard(np.asarray(ids, dtype=np.int64))
            for key, ids in buckets.items()}

    # -------------------------------------------------------------- introspection
    def __len__(self) -> int:
        return len(self.arrays)

    def __repr__(self) -> str:
        return (f"TrajectoryIndex(size={len(self)}, "
                f"spatial_index={self._spatial_index!r}, "
                f"shards={len(self._shards)}, generation={self.generation})")

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def grid(self) -> Grid | None:
        """The cell grid (built on demand; None under the quadtree backend)."""
        if self._spatial_index == "grid" and self._grid is None:
            self._grid = Grid(self.bounding_box, *self._grid_shape)
        return self._grid

    @property
    def quadtree(self) -> QuadTree | None:
        """The quadtree (built on demand; None under the grid backend)."""
        if self._spatial_index == "quadtree" and self._quadtree is None:
            max_points, max_depth = self._quadtree_shape
            tree = QuadTree(self.bounding_box, max_points=max_points,
                            max_depth=max_depth)
            for points in self.arrays:
                for lon, lat in points[:, :2]:
                    tree.insert(lon, lat)
            self._quadtree = tree
        return self._quadtree

    @property
    def fingerprint(self) -> str:
        """Content hash of the indexed trajectories, memoized per generation.

        Folded from the per-trajectory digests, so it is identical for the
        same content whether that content was indexed fresh or reached through
        ``insert``/``evict`` — and a post-mutation index can never be mistaken
        for its pre-mutation self by any fingerprint-keyed cache.
        """
        if self._fingerprint is None or self._fingerprint_generation != self.generation:
            digest = hashlib.sha256(b"trajectory-index:")
            digest.update(str(len(self.arrays)).encode())
            for item in self._trajectory_digests():
                digest.update(item)
            self._fingerprint = digest.hexdigest()
            self._fingerprint_generation = self.generation
        return self._fingerprint

    def summary(self, trajectory_id: int) -> TrajectorySummary:
        return self.summaries[trajectory_id]

    def shard_stats(self) -> list[dict]:
        """Per-shard introspection: shard cell key, size and content fingerprint."""
        return [{"key": key, "size": int(len(shard.members)),
                 "fingerprint": self._shard_fingerprint(shard)}
                for key, shard in self._shards.items()]

    # ------------------------------------------------------------------ internals
    def _global_box(self, margin: float) -> BoundingBox:
        mins = np.min([s.mins[:2] for s in self.summaries], axis=0)
        maxs = np.max([s.maxs[:2] for s in self.summaries], axis=0)
        return BoundingBox(float(mins[0]), float(mins[1]),
                           float(maxs[0]), float(maxs[1])).expanded(margin)

    def _shard_key(self, summary: TrajectorySummary) -> int:
        lon = (float(summary.mins[0]) + float(summary.maxs[0])) / 2.0
        lat = (float(summary.mins[1]) + float(summary.maxs[1])) / 2.0
        return self._shard_grid.token_of(lon, lat)

    def _trajectory_digests(self) -> list[bytes]:
        for trajectory_id, cached in enumerate(self._digests):
            if cached is None:
                points = self.arrays[trajectory_id]
                item = hashlib.sha256(str(points.shape).encode())
                item.update(points.tobytes())
                self._digests[trajectory_id] = item.digest()
        return self._digests  # type: ignore[return-value]

    def _shard_fingerprint(self, shard: _Shard) -> str:
        if shard._fingerprint is None:
            digests = self._trajectory_digests()
            item = hashlib.sha256(b"shard:")
            for member in shard.members:
                item.update(digests[member])
            shard._fingerprint = item.hexdigest()
        return shard._fingerprint

    def _tokens(self, points: np.ndarray) -> list[int]:
        if self._spatial_index == "grid":
            return [self.grid.token_of(lon, lat) for lon, lat in points[:, :2]]
        return [self.quadtree.leaf_for(lon, lat).node_id for lon, lat in points[:, :2]]

    def _shard_cells(self, shard: _Shard) -> dict[int, np.ndarray]:
        """The shard's inverted cell index: cell token → local member positions."""
        if shard._cells is None:
            cells: dict[int, list[int]] = {}
            for local, member in enumerate(shard.members):
                for cell in set(self._tokens(self.arrays[member])):
                    cells.setdefault(cell, []).append(local)
            shard._cells = {cell: np.asarray(locals_, dtype=np.int64)
                            for cell, locals_ in cells.items()}
        return shard._cells

    def _shard_boxes(self, shard: _Shard) -> tuple[np.ndarray, np.ndarray]:
        """Stacked per-member 2-D MBRs (and the shard's aggregate box)."""
        if shard._mins is None:
            shard._mins = np.stack([self.summaries[m].mins[:2]
                                    for m in shard.members])
            shard._maxs = np.stack([self.summaries[m].maxs[:2]
                                    for m in shard.members])
            shard._agg_mins = shard._mins.min(axis=0)
            shard._agg_maxs = shard._maxs.max(axis=0)
        return shard._mins, shard._maxs

    def _shard_stacked(self, shard: _Shard) -> StackedSummaries:
        if shard._stacked is None:
            shard._stacked = StackedSummaries.of(
                [self.arrays[m] for m in shard.members],
                [self.summaries[m] for m in shard.members])
        return shard._stacked

    def _touch(self) -> None:
        """Record a mutation: bump the generation, drop structure-global lazies."""
        self.generation += 1
        self._fingerprint = None
        counter("index.mutations").add(1)
        if self._spatial_index == "quadtree":
            # Quadtree leaf ids depend on the whole point distribution, so a
            # mutation invalidates the tokeniser — and with it every shard's
            # inverted cells, not just the affected shards'.
            self._quadtree = None
            for shard in self._shards.values():
                shard._cells = None

    # ------------------------------------------------------------------ mutation
    def insert(self, trajectories: Sequence) -> np.ndarray:
        """Append ``trajectories``; returns their new ids (dense, contiguous).

        Only the shards the new trajectories land in have their lazy
        structures invalidated; every other shard's stacked summaries,
        inverted cells and fingerprint survive untouched.  The shard grid is
        frozen at construction, so ids, the bounding box and the spatial
        tokenisers of *existing* members never change (out-of-box inserts
        clamp to edge shards/cells).
        """
        new_arrays = _checked_arrays(trajectories, "passed to insert")
        if not new_arrays:
            return np.zeros(0, dtype=np.int64)
        with span("index.insert", count=str(len(new_arrays))):
            # Every fallible step runs before the first mutation.
            summaries = [TrajectorySummary.of(points) for points in new_arrays]
            keys = [self._shard_key(summary) for summary in summaries]
            start = len(self.arrays)
            touched: dict[int, list[int]] = {}
            for offset, (points, summary, key) in enumerate(
                    zip(new_arrays, summaries, keys)):
                self.arrays.append(points)
                self.summaries.append(summary)
                self._digests.append(None)
                touched.setdefault(key, []).append(start + offset)
            for key, ids in touched.items():
                shard = self._shards.get(key)
                if shard is None:
                    self._shards[key] = _Shard(np.asarray(ids, dtype=np.int64))
                else:
                    shard.members = np.concatenate(
                        [shard.members, np.asarray(ids, dtype=np.int64)])
                    shard.invalidate()
            self._touch()
            counter("index.inserted").add(len(new_arrays))
        return np.arange(start, len(self.arrays), dtype=np.int64)

    def update(self, ids, trajectories) -> None:
        """Replace the contents of existing trajectories in place.

        Semantically an evict+insert — summaries, digests and the affected
        shards' lazy structures are rebuilt from the new points — but ids stay
        stable (no dense renumbering) and the whole batch costs **one**
        generation bump, so downstream caches invalidate once per maintenance
        tick instead of twice per trajectory.  This is the per-append
        maintenance path live streams use (:class:`repro.search.monitor.
        StreamMonitor` calls it with every tick's changed windows).  A
        trajectory whose new MBR centroid lands in a different shard migrates
        (appended to the destination's member table), exactly where a fresh
        build of the same content would place it.
        """
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        new_arrays = _checked_arrays(trajectories, "passed to update")
        if len(ids) != len(new_arrays):
            raise ValueError(f"update got {len(ids)} ids for "
                             f"{len(new_arrays)} trajectories")
        if len(ids) == 0:
            return
        if len(np.unique(ids)) != len(ids):
            raise ValueError("update ids must be unique")
        if ids.min() < 0 or ids.max() >= len(self.arrays):
            raise IndexError(f"update ids out of range for index of size {len(self)}")
        with span("index.update", count=str(len(ids))):
            # Every fallible step runs before the first mutation.
            summaries = [TrajectorySummary.of(points) for points in new_arrays]
            new_keys = [self._shard_key(summary) for summary in summaries]
            moves: list[tuple[int, int, int]] = []  # (id, old shard, new shard)
            touched: set[int] = set()
            for trajectory_id, points, summary, new_key in zip(
                    ids, new_arrays, summaries, new_keys):
                trajectory_id = int(trajectory_id)
                old_key = self._shard_key(self.summaries[trajectory_id])
                self.arrays[trajectory_id] = points
                self.summaries[trajectory_id] = summary
                self._digests[trajectory_id] = None
                touched.add(old_key)
                if new_key != old_key:
                    moves.append((trajectory_id, old_key, new_key))
                    touched.add(new_key)
            for trajectory_id, old_key, new_key in moves:
                source = self._shards[old_key]
                source.members = source.members[source.members != trajectory_id]
                if source.members.size == 0:
                    del self._shards[old_key]
                    touched.discard(old_key)
                destination = self._shards.get(new_key)
                if destination is None:
                    self._shards[new_key] = _Shard(
                        np.asarray([trajectory_id], dtype=np.int64))
                else:
                    destination.members = np.concatenate(
                        [destination.members,
                         np.asarray([trajectory_id], dtype=np.int64)])
            for key in touched:
                self._shards[key].invalidate()
            self._touch()
            counter("index.updated").add(len(ids))

    def evict(self, ids) -> int:
        """Remove trajectories by id; survivors are renumbered densely.

        Ids above an evicted one shift down (dense renumbering keeps every
        query path allocation-free), but *within* every untouched shard the
        member order — and therefore every local-position-keyed lazy
        structure — is unchanged: unaffected shards only relabel their member
        ids.  Returns the number of trajectories removed.
        """
        ids = np.unique(np.atleast_1d(np.asarray(ids, dtype=np.int64)))
        if ids.size == 0:
            return 0
        if ids.size and (ids[0] < 0 or ids[-1] >= len(self.arrays)):
            raise IndexError(f"evict ids out of range for index of size {len(self)}")
        if ids.size >= len(self.arrays):
            raise ValueError("an index needs at least one trajectory; "
                             "cannot evict every member")
        with span("index.evict", count=str(int(ids.size))):
            keep = np.ones(len(self.arrays), dtype=bool)
            keep[ids] = False
            remap = np.cumsum(keep) - 1  # old id -> new id (valid where keep)
            self.arrays = CanonicalArrays(
                array for array, kept in zip(self.arrays, keep) if kept)
            self.summaries = [s for s, kept in zip(self.summaries, keep) if kept]
            self._digests = [d for d, kept in zip(self._digests, keep) if kept]
            for key, shard in list(self._shards.items()):
                kept_mask = keep[shard.members]
                if kept_mask.all():
                    shard.members = remap[shard.members]
                    continue
                survivors = shard.members[kept_mask]
                if survivors.size == 0:
                    del self._shards[key]
                    continue
                shard.members = remap[survivors]
                shard.invalidate()
            self._touch()
            counter("index.evicted").add(int(ids.size))
        return int(ids.size)

    # ---------------------------------------------------------------- candidates
    def cell_candidates(self, query, include_all: bool = False) -> np.ndarray:
        """Trajectory ids ranked by how many cells they share with ``query``.

        Ids sharing more cells come first (ties broken by ascending id).  With
        ``include_all`` the non-overlapping remainder is appended in id order, so
        the result is a full refinement order rather than a spatial filter.

        Every shard contributes the posting lists of the query's cells (global
        ids via its member table); one ``np.bincount`` over the concatenation
        replaces the per-cell Python accumulation of the monolithic index and
        produces the same overlap counts.
        """
        points = np.asarray(getattr(query, "points", query), dtype=np.float64)
        query_cells = set(self._tokens(points))
        postings = []
        for shard in self._shards.values():
            cells = self._shard_cells(shard)
            for cell in query_cells:
                local = cells.get(cell)
                if local is not None:
                    postings.append(shard.members[local])
        counter("index.cell_postings").add(len(postings))
        if postings:
            overlap = np.bincount(np.concatenate(postings), minlength=len(self))
        else:
            overlap = np.zeros(len(self), dtype=np.int64)
        order = np.argsort(-overlap, kind="stable")
        if include_all:
            return order
        return order[overlap[order] > 0]

    def range_query(self, box: BoundingBox) -> np.ndarray:
        """Ids of trajectories whose MBR intersects ``box`` (ascending order).

        Fans out across shards — a shard whose aggregate box misses ``box`` is
        skipped without touching its members — and tests each probed shard's
        stacked min/max arrays in one vectorised pass.
        """
        hits = []
        probed = skipped = 0
        for shard in self._shards.values():
            mins, maxs = self._shard_boxes(shard)
            if (shard._agg_mins[0] > box.max_lon or shard._agg_maxs[0] < box.min_lon
                    or shard._agg_mins[1] > box.max_lat
                    or shard._agg_maxs[1] < box.min_lat):
                skipped += 1
                continue
            probed += 1
            mask = ((mins[:, 0] <= box.max_lon) & (maxs[:, 0] >= box.min_lon)
                    & (mins[:, 1] <= box.max_lat) & (maxs[:, 1] >= box.min_lat))
            if mask.any():
                hits.append(shard.members[mask])
        counter("index.range_shards_probed").add(probed)
        counter("index.range_shards_skipped").add(skipped)
        if not hits:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.concatenate(hits))

    def lower_bounds(self, query, measure: str, ids=None, stage: str | None = None,
                     query_summary: TrajectorySummary | None = None,
                     **measure_kwargs) -> np.ndarray:
        """Registered lower bound of ``measure`` from ``query`` to trajectories.

        Returns one value per trajectory id, or per entry of ``ids`` (in that
        order) when a subset is given.  ``stage`` names one of the measure's
        cheaper filter stages (:func:`~repro.search.bounds.filter_stages`);
        None is the full bound.  ``query_summary`` lets a caller that scores
        several stages summarise the query once.

        Fans out across shards: the bound scores each shard's candidates in one
        vectorised pass over that shard's stacked piecewise boxes (a sub-stack
        for a subset), scattered back through the member table.  Stacking pads
        with duplicated final boxes, which never change a min-over-pieces, so
        per-shard stacking gives the values one stack over the whole index
        gives.  Measures without a registered bound yield all-zero bounds,
        which keeps filter-and-refine exact (it simply refines everything).
        """
        ids = np.arange(len(self)) if ids is None else np.asarray(ids, dtype=np.int64)
        bound = get_batch_lower_bound(measure, stage)
        if bound is None:
            if stage is not None:
                raise KeyError(f"measure '{measure}' has no filter stage '{stage}'")
            return np.zeros(len(ids))
        points = np.asarray(getattr(query, "points", query), dtype=np.float64)
        if query_summary is None:
            query_summary = TrajectorySummary.of(points)
        values = np.empty(len(self))
        wanted = np.zeros(len(self), dtype=bool)
        wanted[ids] = True
        for shard in self._shards.values():
            local = np.flatnonzero(wanted[shard.members])
            if local.size:
                stacked = self._shard_stacked(shard)
                if local.size < len(shard.members):
                    stacked = stacked.take(local)
                values[shard.members[local]] = bound(points, stacked, query_summary,
                                                     **measure_kwargs)
        return values[ids]
