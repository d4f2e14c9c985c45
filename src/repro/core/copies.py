"""Copy lifecycle for the switching protocols: allocate, burn, restart.

Every switching construction pays its robustness budget in *copies* —
independent instances of a static sketch, one active at a time.  The
:class:`CopyManager` owns that lifecycle and nothing else:

* **allocation** — ``copies`` instances from a factory, seeded through
  one ``SeedSequence.spawn`` pass so the independence assumption of
  Lemma 3.6 holds uniformly (plus one extra child generator kept as the
  fresh-randomness pool for replacements).  :meth:`CopyManager.grouped`
  allocates *heterogeneous copy groups* instead — contiguous index
  ranges each built by its own factory, one seeding pass across all of
  them — which is what the difference-estimator ladder
  (:mod:`repro.core.ladder`) uses: cheap difference-estimator tiers in
  the low groups, the strong checkpoint sketches in the last.  Grouped
  sets have no burn order (``advance`` raises); their lifecycle is
  per-group :meth:`refresh`, driven by a group-aware discipline;
* **burn-and-advance** — plain Algorithm 1 mode walks forward through
  the copy list and raises :class:`SketchExhaustedError` (or clamps)
  when the flip budget runs out; restart mode (Theorem 4.1) treats the
  list as a ring, replacing each burned slot with a freshly seeded
  instance;
* **replacement seeding** — :meth:`replacement_rng` derives each
  restarted copy's generator from the fresh pool with the same
  ``spawn_rngs`` derivation that seeded the initial copies.  Both the
  serial estimator and the engine's sharded drivers draw replacements
  from here *on the coordinator*, which is what makes restarted copies —
  and therefore published outputs — bit-for-bit identical across
  execution modes;
* **stacked copy groups** — homogeneous groups of a stackable sketch
  (CountMin, CountSketch, AMS, KMV) fuse their array state into one
  :class:`~repro.sketches.stacking.SketchStack` per group: one stacked
  array for all k copies, one shared per-chunk hash pass, one
  vectorized ``query_all``.  The original sketch objects stay installed
  in :attr:`CopyManager.sketches` as *templates* whose array attributes
  are views into the stack, so per-item updates and individual queries
  keep working unchanged, and every result is bit-for-bit identical to
  the per-object path.  Any code that swaps a copy object while stacks
  are live must go through :meth:`CopyManager.install`.

The band decision itself lives in :mod:`repro.core.bands`; the drive
loop in :mod:`repro.core.sketch_switching`.  :class:`LocalCopyBackend`
is the copy-backend interface the drive loop talks to (the process
engine's heavy-hitters ring backend implements its uniform-feed part
across forked workers).
"""

from __future__ import annotations

import numpy as np

from repro.core.ladder import require_count
from repro.obs import (
    NULL_TELEMETRY,
    CopyBurnEvent,
    CopyRetireEvent,
    RingAdvanceEvent,
)
from repro.sketches.base import Sketch, SketchFactory, spawn_rngs


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


class SketchExhaustedError(RuntimeError):
    """All sketch copies were burned: the flip-number budget was exceeded.

    Under the theorems' preconditions this happens only with probability
    delta; in experiments it signals an undersized ``copies`` parameter.
    """


class CopyManager:
    """Owns the copies of one switching estimator and their lifecycle.

    Parameters
    ----------
    factory:
        Builds one independent static tracker per call.
    copies:
        Instance count: the flip-number bound in plain mode, or the
        Theorem 4.1 ring size in restart mode.
    rng:
        Seeds the copies (and the fresh-randomness replacement pool).
    restart:
        Ring mode: burned slots are replaced instead of abandoned.
    on_exhausted:
        Plain-mode behaviour when every copy is burned: ``"raise"``
        (default) or ``"clamp"`` (keep the last copy active).
    stacked:
        Whether eligible homogeneous groups fuse their array state into
        stacked copy groups (the default).  ``False`` forces the
        per-object path — the bit-for-bit twin the equivalence suite and
        the bench gates compare against.
    """

    def __init__(
        self,
        factory: SketchFactory,
        copies: int,
        rng: np.random.Generator,
        restart: bool = False,
        on_exhausted: str = "raise",
        stacked: bool = True,
    ):
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        if on_exhausted not in ("raise", "clamp"):
            raise ValueError(f"unknown on_exhausted mode {on_exhausted!r}")
        self.factory = factory
        self.restart = restart
        self.on_exhausted = on_exhausted
        #: Telemetry hub for the whole switching stack: the estimator,
        #: the disciplines, and the ladder all bind to this manager, so
        #: installing an enabled bundle here makes every protocol seam
        #: observable.  Defaults to the no-op singleton.
        self.telemetry = NULL_TELEMETRY
        rngs = spawn_rngs(rng, copies + 1)
        self._fresh_rng = rngs[copies]
        self.sketches: list[Sketch] = [factory(r) for r in rngs[:copies]]
        #: Contiguous (lo, hi) index range per copy group; one group for
        #: the homogeneous manager, tiers-then-strong for grouped sets.
        self.group_slices: tuple[tuple[int, int], ...] = ((0, copies),)
        self._group_factories: tuple[SketchFactory, ...] = (factory,)
        #: Monotone activation counter; the active slot is ``rho % count``.
        self.rho = 0
        self._stack_enabled = stacked
        self._build_stacks()

    @classmethod
    def grouped(
        cls,
        groups,
        rng: np.random.Generator,
        on_exhausted: str = "raise",
        stacked: bool = True,
    ) -> "CopyManager":
        """Allocate heterogeneous copy groups: ``[(factory, count), ...]``.

        All copies across all groups are seeded through **one**
        ``spawn_rngs`` pass (plus the shared fresh pool), so the
        Lemma 3.6 independence argument is uniform across groups exactly
        as it is across a homogeneous set.  Groups occupy contiguous
        index ranges in declaration order; the convention of the
        difference ladder is cheap tiers first, strong group last.
        Grouped sets have no burn order — :meth:`advance` raises — and
        no restart ring; their lifecycle is per-group :meth:`refresh`.
        """
        specs = list(groups)
        if not specs:
            raise ValueError("need at least one copy group")
        for g, (_, count) in enumerate(specs):
            require_count(f"group {g} copy count", count)
        specs = [(factory, int(count)) for factory, count in specs]
        total = sum(count for _, count in specs)
        self = cls.__new__(cls)
        self.restart = False
        if on_exhausted not in ("raise", "clamp"):
            raise ValueError(f"unknown on_exhausted mode {on_exhausted!r}")
        self.on_exhausted = on_exhausted
        self.telemetry = NULL_TELEMETRY
        rngs = spawn_rngs(rng, total + 1)
        self._fresh_rng = rngs[total]
        self.sketches = []
        slices = []
        start = 0
        for factory, count in specs:
            self.sketches.extend(
                factory(r) for r in rngs[start:start + count]
            )
            slices.append((start, start + count))
            start += count
        self.group_slices = tuple(slices)
        self._group_factories = tuple(factory for factory, _ in specs)
        #: The strong (last) group's factory; ungrouped surfaces that
        #: build whole-set replacements must go through `factory_for`.
        self.factory = self._group_factories[-1]
        self.rho = 0
        self._stack_enabled = stacked
        self._build_stacks()
        return self

    # -- stacked copy groups --------------------------------------------

    def _build_stacks(self) -> None:
        """Fuse each eligible homogeneous group into a sketch stack.

        A group qualifies when it has at least two copies of one
        stackable sketch class; ``make_stack`` adopts the copies' arrays
        into one stacked block and rebinds them as plane views.  The
        copies stay in :attr:`sketches` as templates.
        """
        self.stacks: dict[int, "SketchStack"] = {}
        self._plane_of: dict[int, tuple[int, int]] = {}
        self._plans: dict[tuple, tuple] = {}
        if not self._stack_enabled:
            return
        for g, (lo, hi) in enumerate(self.group_slices):
            if hi - lo < 2:
                continue
            group = self.sketches[lo:hi]
            cls = type(group[0])
            if not getattr(cls, "stackable", False):
                continue
            if any(type(s) is not cls for s in group):
                continue
            stack = cls.make_stack(group)
            if stack is None:
                continue
            self.stacks[g] = stack
            for plane, idx in enumerate(range(lo, hi)):
                self._plane_of[idx] = (g, plane)

    def stack_plan(self, indices):
        """Split copy indices into per-stack plane runs plus leftovers.

        Returns ``(parts, rest)``: ``parts`` is a list of
        ``(stack, planes, positions)`` triples — ``planes`` and
        ``positions`` (the offsets of those copies inside ``indices``, so
        callers can reassemble per-copy results in request order) as
        read-only intp arrays — and ``rest`` the ``(position, index)``
        pairs served by the object path.  Plans are memoized per index
        tuple until the stacks are rebuilt or detached; callers must not
        mutate them.
        """
        key = tuple(indices)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        grouped: dict[int, tuple] = {}
        rest: list[tuple[int, int]] = []
        for pos, idx in enumerate(key):
            hit = self._plane_of.get(idx)
            if hit is None:
                rest.append((pos, idx))
                continue
            g, plane = hit
            entry = grouped.get(g)
            if entry is None:
                entry = grouped[g] = (self.stacks[g], [], [])
            entry[1].append(plane)
            entry[2].append(pos)
        parts = [
            (stack, _frozen(planes), _frozen(positions))
            for stack, planes, positions in grouped.values()
        ]
        plan = self._plans[key] = (parts, rest)
        return plan

    def install(self, idx: int, sketch: Sketch) -> None:
        """Install ``sketch`` as the copy at ``idx``, stack-aware.

        The single sanctioned swap point while stacks are live: the
        incoming sketch's array state is copied into its plane and its
        array attribute rebound to the plane view, keeping template and
        stack coherent.  Falls back to a plain list assignment for
        unstacked copies.
        """
        hit = self._plane_of.get(idx)
        if hit is not None:
            g, plane = hit
            self.stacks[g].install(plane, sketch)
        self.sketches[idx] = sketch

    def unstack(self) -> None:
        """Detach every stack, returning all copies to owned arrays.

        The process engine calls this before forking so each worker
        inherits plain per-object copies of its shard; :meth:`restack`
        rebuilds the stacks after the workers' results are collected.
        """
        for stack in self.stacks.values():
            stack.detach()
        self.stacks = {}
        self._plane_of = {}
        self._plans = {}

    def restack(self) -> None:
        """Rebuild stacks over the current copies (no-op if already live)."""
        if not self.stacks:
            self._build_stacks()

    @property
    def count(self) -> int:
        return len(self.sketches)

    @property
    def group_count(self) -> int:
        return len(self.group_slices)

    def group_indices(self, group: int) -> tuple[int, ...]:
        """The contiguous copy indices of one group."""
        lo, hi = self.group_slices[group]
        return tuple(range(lo, hi))

    def factory_for(self, idx: int) -> SketchFactory:
        """The factory that builds (and rebuilds) the copy at ``idx``."""
        if not 0 <= idx < len(self.sketches):
            raise IndexError(f"copy index {idx} out of range")
        for (lo, hi), factory in zip(self.group_slices,
                                     self._group_factories):
            if lo <= idx < hi:
                return factory
        return self.factory  # pragma: no cover - slices always cover

    @property
    def active_index(self) -> int:
        return self.rho % len(self.sketches)

    @property
    def active(self) -> Sketch:
        return self.sketches[self.active_index]

    def replacement_rng(self) -> np.random.Generator:
        """Derive the next restarted copy's RNG from the fresh pool.

        Uses the same ``spawn_rngs`` derivation that seeded the initial
        copies, keeping the independence argument (Lemma 3.6) uniform
        across original and restarted instances.  The engine's parallel
        driver calls this on the coordinator so the RNG sequence — and
        therefore every restarted copy — is bit-for-bit the serial one.
        """
        return spawn_rngs(self._fresh_rng, 1)[0]

    def estimate_all(self, indices=None) -> np.ndarray:
        """Query a set of copies (default: all), in index order.

        The probe surface of the aggregate disciplines: the DP framework
        reads every copy's estimate per decision instead of the active
        one's.  Returns a float64 array; stacked groups answer with one
        vectorized ``query_all`` reduction instead of k Python calls
        (bit-for-bit the same values).  In-process only; the engines
        read sharded copies through their backend's probe ops.
        """
        if indices is None:
            indices = range(len(self.sketches))
        idxs = list(indices)
        if not self.stacks:
            return np.array(
                [self.sketches[i].query() for i in idxs], dtype=np.float64
            )
        out = np.empty(len(idxs), dtype=np.float64)
        parts, rest = self.stack_plan(idxs)
        for stack, planes, positions in parts:
            if len(planes) > 1:
                out[positions] = stack.query_all()[planes]
            else:
                out[positions[0]] = stack.sketches[planes[0]].query()
        for pos, idx in rest:
            out[pos] = self.sketches[idx].query()
        return out

    def retire(self, idx: int, replace=None) -> None:
        """Retire one copy: replace it with a freshly seeded instance.

        The DP disciplines' lifecycle primitive — unlike
        :meth:`advance`, retirement does not move the active cursor or
        consume the plain-mode flip budget; the slot is simply reborn.
        ``replace(index, rng)`` installs the rebuilt copy wherever it
        lives (the engines pass their backend's replace); the RNG is
        always derived here, on the coordinator.
        """
        rng = self.replacement_rng()
        if replace is None:
            self.install(idx, self.factory_for(idx)(rng))
        else:
            replace(idx, rng)
        tele = self.telemetry
        if tele.enabled:
            tele.emit(CopyRetireEvent(index=idx))
            tele.metrics.counter(
                "copies_retired_total", "copies reborn via retire/refresh"
            ).inc()

    def refresh(self, indices=None, replace=None) -> None:
        """Retire a set of copies (default: all), in index order.

        Used by :class:`~repro.core.disciplines.PrivateAggregateDiscipline`
        when the sparse-vector budget is exhausted: the whole copy set is
        reborn and the guarantee window restarts.  Deterministic across
        execution modes because each retirement draws its RNG through
        :meth:`replacement_rng` in index order.
        """
        if indices is None:
            indices = range(len(self.sketches))
        for idx in indices:
            self.retire(idx, replace=replace)

    def advance(self, switches: int, replace=None) -> None:
        """Burn the active copy and activate the next.

        ``replace(index, rng)`` builds and installs the restarted copy;
        the default builds it locally via the factory.  The engine passes
        its backend's replace so the instance is constructed wherever the
        burned copy lives (possibly a worker process) from a
        coordinator-derived RNG.  ``switches`` only feeds the exhaustion
        message.
        """
        if len(self.group_slices) > 1:
            raise RuntimeError(
                "grouped copy sets have no burn order; drive them with a "
                "group-aware discipline (difference ladder / private "
                "aggregate), not active-copy switching"
            )
        tele = self.telemetry
        if self.restart:
            burned = self.rho % len(self.sketches)
            rng = self.replacement_rng()
            if replace is None:
                self.install(burned, self.factory(rng))
            else:
                replace(burned, rng)
            self.rho += 1
            if tele.enabled:
                tele.emit(RingAdvanceEvent(slot=burned, rho=self.rho))
                tele.metrics.counter(
                    "copies_burned_total", "copies burned by switches"
                ).inc()
            return
        if self.rho + 1 >= len(self.sketches):
            if self.on_exhausted == "raise":
                raise SketchExhaustedError(
                    f"all {len(self.sketches)} copies burned after "
                    f"{switches} switches; flip-number budget exceeded"
                )
            return  # clamp: keep using the last copy
        if tele.enabled:
            tele.emit(CopyBurnEvent(index=self.rho % len(self.sketches)))
            tele.metrics.counter(
                "copies_burned_total", "copies burned by switches"
            ).inc()
        self.rho += 1


class LocalCopyBackend:
    """In-process copy backend: feeds and snapshots act on the manager.

    The copy-backend interface the switching protocol drives (the
    process engine's ring backend in :mod:`repro.engine.executor`
    implements its uniform-feed ops, ``feed_all_raw``/``feed_all_sub``,
    across forked workers).  Methods come in two groups: *probed-copy
    probe/search* ops, which snapshot/feed/step the copies the
    estimator's probe discipline reads (the active copy alone under
    :class:`~repro.core.disciplines.ActiveCopyDiscipline`, every copy
    under the private-aggregate discipline) — ``probes`` is always a
    tuple of copy indices — and *fan-out* feeds of named copies:
    ``feed_range(lo, hi, indices)`` feeds raw updates ``[lo, hi)``
    (a clean chunk's others, or a crossing chunk's lagging copies from
    their offset), ``feed_sub(indices)`` the boundary probe's
    pre-processed chunk.

    When the manager carries stacked copy groups, the bulk feeds route
    through the stacks: a staged chunk is aggregated and hashed **once**
    per stack (``prepare``) and the resulting columns are reused across
    the probe feed and the fan-out — the shared hash pass that makes k
    copies cost one kernel invocation instead of k call chains.  Only
    whole-chunk preps are cached.  A whole raw chunk first needed by a
    crossing search is prepared lazily (``SketchStack.prepare_lazy``:
    KMV hashes only the planes fed from it), and its bisection halves,
    lagging-copy feeds and leaf feeds are taken out of it on demand
    (``SketchStack.subrange``) and dropped, so a crossing holds one prep
    per stack however deep it bisects.

    A stack whose whole-chunk prep is the chunk's *columns*
    (``supports_universe``: CountSketch) resolves a crossing over the
    chunk's own distinct items, the way the universe path resolves it
    over ``[0, universe)``: subranges are positional counts over those
    columns, a first-item step is one scatter-add across the probed
    planes (``step_item``) and a bisection leaf one vectorized prefix
    pass (``prefix_estimates``), both addressing updates by column
    (:meth:`_columns`).  On an aggregate-once chunk the boundary probe's
    prep already holds the chunk's distinct items and sums, so it
    doubles as the raw chunk's prep and a crossing hashes nothing more.
    Stacks that track candidates keep ``subset`` and per-item steps.
    Results are bit-for-bit those of the per-object path.
    """

    def __init__(self, copies: CopyManager, unique_hint: bool = False):
        self._copies = copies
        self._unique_hint = unique_hint
        self._items: np.ndarray | None = None
        self._deltas: np.ndarray | None = None
        self._sub: tuple[np.ndarray, np.ndarray | None] | None = None
        self._sub_unique = False
        #: Stack of per-probe snapshot records:
        #: {"stacks": [(stack, saved)], "objects": [(idx, snapshot)]}
        self._snap_stack: list[dict] = []
        #: Whole-chunk prep cache, keyed ("raw" | "sub", id(stack)): one
        #: aggregation + stacked hash pass per staged array per stack,
        #: reused across probe/feed ops until the next stage.
        self._prep: dict[tuple, object] = {}
        #: id(stack) -> whether its crossings step and scan by column.
        self._fast: dict[int, bool] = {}

    @property
    def capacity(self) -> int:
        return 1 << 62  # no buffer to overflow

    def stage(self, items: np.ndarray, deltas: np.ndarray) -> None:
        self._items, self._deltas = items, deltas
        self._prep.clear()

    def stage_sub(self, items, deltas, assume_unique: bool) -> None:
        """Stage a pre-processed (deduped/aggregated) feed without probing.

        Used by uniform fan-outs that have no copy to probe (the
        heavy-hitters ring): ``feed_all_sub()`` then feeds every copy the
        staged arrays.
        """
        self._sub = (items, deltas)
        self._sub_unique = assume_unique
        self._prep.clear()

    def _feed_one(self, sketch: Sketch, items, deltas, assume_unique) -> None:
        if assume_unique and self._unique_hint:
            sketch.update_batch(items, deltas, assume_unique=True)
        else:
            sketch.update_batch(items, deltas)

    def _prepared(self, key: tuple, stack, items, deltas, lazy=False):
        if key in self._prep:
            return self._prep[key]
        prep = (stack.prepare_lazy if lazy else stack.prepare)(items, deltas)
        self._prep[key] = prep
        return prep

    def _sub_prepared(self, stack):
        """The staged pre-processed feed's prep for ``stack``, built once;
        a deduped feed passes its hint to stacks of sketches that take
        one (``unique_hint``)."""
        key = ("sub", id(stack))
        if key not in self._prep:
            items, deltas = self._sub
            if self._sub_unique and self._unique_hint:
                prep = stack.prepare(items, deltas, assume_unique=True)
            else:
                prep = stack.prepare(items, deltas)
            self._prep[key] = prep
        return self._prep[key]

    def _whole_raw(self, stack, lazy: bool = True):
        """The whole staged chunk's prep for ``stack``, built once.

        A boundary probe builds it eagerly (every plane is fed on a
        clean chunk); one first built by a crossing search is lazy
        (:meth:`SketchStack.prepare_lazy`), so only the planes the
        search and the deferred fan-out feed from it are hashed.  For a
        stack whose preps are chunk columns, the prep of the staged
        chunk's aggregate *is* the raw chunk's (same distinct items,
        same sums), so a crossing after an aggregate-once probe reuses
        it instead of hashing the chunk again.
        """
        key = ("raw", id(stack))
        sub = self._prep.get(("sub", id(stack)))
        # A cached pre-processed prep is of the current stage, and one
        # fed with deltas is the chunk's aggregate (a seen filter's fresh
        # items come without).
        if (key not in self._prep and sub is not None
                and self._sub[1] is not None and stack.supports_universe):
            self._prep[key] = sub
        return self._prepared(key, stack, self._items, self._deltas,
                              lazy=lazy)

    def _raw_prepared(self, stack, lo: int, hi: int):
        """Prepared chunk for ``raw[lo:hi]``, hashing each chunk once.

        A subrange (bisection half, lagging copy's feed, leaf feed) is
        taken out of the whole-chunk prep (:meth:`SketchStack.subrange`;
        positional for KMV) for the one feed that asks and not kept, so
        a crossing holds one prep per stack.
        """
        whole = self._whole_raw(stack)
        if lo == 0 and hi == len(self._items):
            return whole
        return stack.subrange(whole, self._items, self._deltas, lo, hi)

    def _step_fast(self, stack) -> bool:
        """Whether ``stack``'s crossings step and scan by column: it
        supports columns and tracks no candidates (heuristic state the
        column ops do not mirror)."""
        flag = self._fast.get(id(stack))
        if flag is None:
            flag = stack.supports_universe and all(
                getattr(s, "_track_candidates", 1) == 0
                for s in stack.sketches
            )
            self._fast[id(stack)] = flag
        return flag

    def _columns(self, stack, lo: int, hi: int):
        """``(columns, column indices of updates [lo, hi))`` for the
        column-wise step and prefix pass, or ``None`` where ``stack``
        steps per item.  Here the columns are the whole staged chunk's
        prep, and the indices its inverse index."""
        if not self._step_fast(stack):
            return None
        whole = self._whole_raw(stack)
        return whole, stack.columns_at(whole, self._items, lo, hi)

    def _snapshot_probes(self, probes: tuple[int, ...]) -> dict:
        """Composite snapshot: stacked planes as one array copy each."""
        parts, rest = self._copies.stack_plan(probes)
        return {
            "stacks": [(stack, stack.save(planes)) for stack, planes, _ in parts],
            "objects": [
                (idx, self._copies.sketches[idx].snapshot()) for _, idx in rest
            ],
        }

    # -- probed-copy probe/search ops -----------------------------------

    def probe_sub(
        self, items, deltas, assume_unique: bool, probes: tuple[int, ...]
    ) -> np.ndarray:
        self._sub = (items, deltas)
        self._sub_unique = assume_unique
        self._prep.clear()
        copies = self._copies
        ys = np.empty(len(probes), dtype=np.float64)
        if not copies.stacks:
            snaps = []
            for pos, idx in enumerate(probes):
                sk = copies.sketches[idx]
                snaps.append((idx, sk.snapshot()))
                self._feed_one(sk, items, deltas, assume_unique)
                ys[pos] = sk.query()
            self._snap_stack.append({"stacks": [], "objects": snaps})
            return ys
        parts, rest = copies.stack_plan(probes)
        record = {"stacks": [], "objects": []}
        for stack, planes, positions in parts:
            record["stacks"].append((stack, stack.save(planes)))
            stack.feed(self._sub_prepared(stack), planes)
            if len(planes) > 1:
                ys[positions] = stack.query_all()[planes]
            else:
                ys[positions[0]] = stack.sketches[planes[0]].query()
        for pos, idx in rest:
            sk = copies.sketches[idx]
            record["objects"].append((idx, sk.snapshot()))
            self._feed_one(sk, items, deltas, assume_unique)
            ys[pos] = sk.query()
        self._snap_stack.append(record)
        return ys

    def probe_raw(self, probes: tuple[int, ...]) -> np.ndarray:
        self._sub = None
        copies = self._copies
        items, deltas = self._items, self._deltas
        ys = np.empty(len(probes), dtype=np.float64)
        if not copies.stacks:
            snaps = []
            for pos, idx in enumerate(probes):
                sk = copies.sketches[idx]
                snaps.append((idx, sk.snapshot()))
                sk.update_batch(items, deltas)
                ys[pos] = sk.query()
            self._snap_stack.append({"stacks": [], "objects": snaps})
            return ys
        parts, rest = copies.stack_plan(probes)
        record = {"stacks": [], "objects": []}
        for stack, planes, positions in parts:
            record["stacks"].append((stack, stack.save(planes)))
            prep = self._whole_raw(stack, lazy=False)
            stack.feed(prep, planes)
            if len(planes) > 1:
                ys[positions] = stack.query_all()[planes]
            else:
                ys[positions[0]] = stack.sketches[planes[0]].query()
        for pos, idx in rest:
            sk = copies.sketches[idx]
            record["objects"].append((idx, sk.snapshot()))
            sk.update_batch(items, deltas)
            ys[pos] = sk.query()
        self._snap_stack.append(record)
        return ys

    def keep_probed(self, probes: tuple[int, ...]) -> None:
        for stack, saved in self._snap_stack.pop()["stacks"]:
            stack.release(saved)

    def roll_probed(self, probes: tuple[int, ...]) -> None:
        record = self._snap_stack.pop()
        for stack, saved in record["stacks"]:
            stack.restore(saved)
            stack.release(saved)
        for idx, snap in record["objects"]:
            self._copies.install(idx, snap)

    def snap_probed(self, probes: tuple[int, ...]) -> None:
        self._snap_stack.append(self._snapshot_probes(probes))

    def feed_probed(
        self, lo: int, hi: int, probes: tuple[int, ...]
    ) -> np.ndarray:
        items, deltas = self._items[lo:hi], self._deltas[lo:hi]
        copies = self._copies
        ys = np.empty(len(probes), dtype=np.float64)
        if not copies.stacks:
            for pos, idx in enumerate(probes):
                sk = copies.sketches[idx]
                sk.update_batch(items, deltas)
                ys[pos] = sk.query()
            return ys
        parts, rest = copies.stack_plan(probes)
        for stack, planes, positions in parts:
            prep = self._raw_prepared(stack, lo, hi)
            stack.feed(prep, planes)
            if len(planes) > 1:
                ys[positions] = stack.query_all()[planes]
            else:
                ys[positions[0]] = stack.sketches[planes[0]].query()
        for pos, idx in rest:
            sk = copies.sketches[idx]
            sk.update_batch(items, deltas)
            ys[pos] = sk.query()
        return ys

    def step_probed(self, pos: int, probes: tuple[int, ...]) -> np.ndarray:
        item, delta = int(self._items[pos]), int(self._deltas[pos])
        copies = self._copies
        ys = np.empty(len(probes), dtype=np.float64)
        if not copies.stacks:
            for i, idx in enumerate(probes):
                sk = copies.sketches[idx]
                sk.update(item, delta)
                ys[i] = sk.query()
            return ys
        # A column-wise stack takes the update as one scatter-add across
        # the probed planes; others step the templates (in-place writes
        # flow through the plane views).  The per-copy query reductions
        # collapse into one stacked pass per group.
        parts, rest = copies.stack_plan(probes)
        for stack, planes, positions in parts:
            cols = self._columns(stack, pos, pos + 1)
            if cols is not None:
                stack.step_item(cols[0], int(cols[1][0]), delta, planes)
            else:
                for p in planes:
                    stack.sketches[p].update(item, delta)
            if len(planes) > 1:
                ys[positions] = stack.query_all()[planes]
            else:
                ys[positions[0]] = stack.sketches[planes[0]].query()
        for i, idx in rest:
            sk = copies.sketches[idx]
            sk.update(item, delta)
            ys[i] = sk.query()
        return ys

    def prefix_probed(
        self, lo: int, hi: int, probes: tuple[int, ...]
    ) -> np.ndarray | None:
        """Probe estimates after every prefix of [lo, hi), computed
        without feeding — ``(hi - lo, len(probes))`` — from one
        ``prefix_estimates`` pass per stack, or ``None`` (the caller then
        steps per item) unless every probe lives in a column-wise stack
        and every pass stays exact."""
        parts, rest = self._copies.stack_plan(probes)
        if rest:
            return None
        out = np.empty((hi - lo, len(probes)), dtype=np.float64)
        deltas = self._deltas[lo:hi]
        for stack, planes, positions in parts:
            cols = self._columns(stack, lo, hi)
            if cols is None:
                return None
            est = stack.prefix_estimates(cols[0], cols[1], deltas, planes)
            if est is None:
                return None
            out[:, positions] = est
        return out

    def scan_probed(
        self, lo: int, hi: int, probe: int, published: float, band
    ) -> tuple[int, float] | None:
        """Per-item scan for the first band crossing in [lo, hi).

        Single-probe fast path (identity-decide disciplines only): one
        loop over the leaf's Python ints feeds the copy and applies the
        band predicate inline, without the per-item probe array, stack
        plan and discipline ``decide`` call that :meth:`step_probed`
        pays.  Aggregating disciplines scan through :meth:`step_probed`
        with the decision made by the protocol.
        """
        sk = self._copies.sketches[probe]
        items = self._items[lo:hi].tolist()
        deltas = self._deltas[lo:hi].tolist()
        for off, (item, delta) in enumerate(zip(items, deltas)):
            sk.update(item, delta)
            y = sk.query()
            if band.crossed(published, y):
                return lo + off, y
        return None

    # -- fan-out feeds --------------------------------------------------

    def feed_sub(self, indices: tuple[int, ...]) -> None:
        """Feed the staged pre-processed chunk (``probe_sub`` or
        ``stage_sub``) to the given copies."""
        items, deltas = self._sub
        copies = self._copies
        if not copies.stacks:
            for idx in indices:
                self._feed_one(copies.sketches[idx], items, deltas,
                               self._sub_unique)
            return
        parts, rest = copies.stack_plan(indices)
        for stack, planes, _ in parts:
            stack.feed(self._sub_prepared(stack), planes)
        for _, idx in rest:
            self._feed_one(copies.sketches[idx], items, deltas, self._sub_unique)

    def feed_range(self, lo: int, hi: int, indices: tuple[int, ...]) -> None:
        """Feed the staged raw updates ``[lo, hi)`` to the given copies."""
        items, deltas = self._items[lo:hi], self._deltas[lo:hi]
        copies = self._copies
        if not copies.stacks:
            for idx in indices:
                copies.sketches[idx].update_batch(items, deltas)
            return
        parts, rest = copies.stack_plan(indices)
        for stack, planes, _ in parts:
            stack.feed(self._raw_prepared(stack, lo, hi), planes)
        for _, idx in rest:
            copies.sketches[idx].update_batch(items, deltas)

    def feed_all_sub(self) -> None:
        """Uniform fan-out of the staged pre-processed chunk (the
        heavy-hitters ring, which has no copy to probe)."""
        self.feed_sub(tuple(range(self._copies.count)))

    def feed_all_raw(self) -> None:
        """Uniform fan-out of the whole staged raw chunk."""
        self.feed_range(0, len(self._items), tuple(range(self._copies.count)))

    def replace(self, idx: int, rng: np.random.Generator) -> None:
        copies = self._copies
        copies.install(idx, copies.factory_for(idx)(rng))
        hit = copies._plane_of.get(idx)
        if hit is not None:
            self._refresh_plane(copies.stacks[hit[0]], hit[1])

    def _refresh_plane(self, stack, plane: int) -> None:
        """The copy installed at ``plane`` hashes differently: recompute
        its columns (one single-copy hash pass) once in every distinct
        whole-chunk prep cached for ``stack`` (the raw and the
        pre-processed key may share one); subranges taken later inherit
        them."""
        preps = {
            id(prep): prep for (_, key), prep in self._prep.items()
            if key == id(stack) and prep is not None
        }
        for prep in preps.values():
            stack.refresh(prep, plane)

    def fetch(self, idx: int) -> Sketch:
        """The copy at ``idx`` (epoch wrappers snapshot it for publishing)."""
        return self._copies.sketches[idx]

    def collect_into(self, copies: CopyManager) -> None:
        pass  # copies never left the manager

    def close(self) -> None:
        self._snap_stack.clear()
        self._prep.clear()
        self._fast.clear()
        self._items = self._deltas = self._sub = None


#: Cap on resident universe-column elements (planes * rows * universe)
#: per stack before the counts-based fast path declines to engage; at 16
#: bytes per element (24 once a dense feed has made its work buffer)
#: the default is ~64 MB (~96 MB).
UNIVERSE_PREP_CAP = 4_000_000


def universe_licensed(
    copies: CopyManager,
    universe: int | None,
    unit_deltas: bool,
    cap: int = UNIVERSE_PREP_CAP,
) -> bool:
    """Whether the counts-based serial fast path applies to this copy set.

    Requires a known item universe, unit insertions (so a chunk's
    ``bincount`` support *is* its sorted distinct-item set — cancelling
    deltas would drop zero-sum items the aggregation path keeps), at
    least one stacked copy group whose stack supports universe columns,
    and a universe small enough that the resident columns stay under
    ``cap`` elements.
    """
    if universe is None or universe < 1 or not unit_deltas:
        return False
    if not copies.stacks:
        return False
    return any(
        getattr(stack, "supports_universe", False)
        and stack.planes * getattr(stack, "rows", 1) * universe <= cap
        for stack in copies.stacks.values()
    )


class UniverseLocalBackend(LocalCopyBackend):
    """Serial copy backend specialised for a known item universe.

    When a :class:`~repro.streams.sources.ChunkSource` promises every
    item lies in ``[0, universe)`` with unit deltas, the per-chunk
    aggregation pipeline collapses: the stacked hash columns for the
    *whole universe* are evaluated once per session
    (``SketchStack.prepare_universe``), and every prepared chunk —
    boundary probe, fan-out, bisection half, lagging-copy feed —
    becomes an ``np.bincount`` over the staged slice wrapped as a
    counts-only prep that feeds through those live columns
    (``prepare_counts``).  That eliminates both the per-chunk
    ``np.unique`` sort and the per-chunk stacked hash pass of the
    bytes-shipped path while feeding bit-for-bit identical tables: the
    sorted nonzero support of an insertion-only count vector equals
    ``np.unique`` of the slice, and the counts at the support equal the
    aggregated deltas.  Only the whole chunk's prep is kept until the
    next stage; subrange preps are built for one feed and dropped.

    Only where the columns and column indices come from differs from
    the bytes path: the universe columns, addressed by the items
    themselves, so the inherited column-wise leaf pass and first-item
    step (:meth:`LocalCopyBackend._columns`) run unchanged.  Stacks that
    do not support universe columns — and any overweight universe —
    fall back per-stack to the inherited prepare path, so mixing stacked
    and unstacked groups stays correct.
    """

    def __init__(
        self, copies: CopyManager, universe: int, unique_hint: bool = False
    ):
        super().__init__(copies, unique_hint=unique_hint)
        if universe < 1:
            raise ValueError(f"universe must be >= 1, got {universe}")
        self.universe = int(universe)
        #: id(stack) -> universe columns (None = stack unsupported).
        self._ucols: dict[int, object] = {}

    def _universe_cols(self, stack):
        cols = self._ucols.get(id(stack))
        if cols is None and id(stack) not in self._ucols:
            eligible = (
                getattr(stack, "supports_universe", False)
                and stack.planes * getattr(stack, "rows", 1) * self.universe
                <= UNIVERSE_PREP_CAP
            )
            cols = stack.prepare_universe(self.universe) if eligible else None
            self._ucols[id(stack)] = cols
        return cols

    def _range_counts(self, lo: int, hi: int) -> np.ndarray:
        counts = np.bincount(self._items[lo:hi], minlength=self.universe)
        if len(counts) > self.universe:
            raise ValueError(
                f"staged chunk contains items >= universe {self.universe}; "
                "the chunk source's universe promise is violated"
            )
        return counts

    def _whole_raw(self, stack, lazy: bool = True):
        cols = self._universe_cols(stack)
        if cols is None:
            return super()._whole_raw(stack, lazy)
        key = ("raw", id(stack))
        if key not in self._prep:
            self._prep[key] = stack.prepare_counts(
                cols, self._range_counts(0, len(self._items))
            )
        return self._prep[key]

    def _raw_prepared(self, stack, lo: int, hi: int):
        cols = self._universe_cols(stack)
        if cols is None or (lo == 0 and hi == len(self._items)):
            return super()._raw_prepared(stack, lo, hi)
        return stack.prepare_counts(cols, self._range_counts(lo, hi))

    def _columns(self, stack, lo: int, hi: int):
        if not self._step_fast(stack):
            return None
        cols = self._universe_cols(stack)
        if cols is None:
            return super()._columns(stack, lo, hi)
        return cols, self._items[lo:hi]

    def _refresh_plane(self, stack, plane: int) -> None:
        super()._refresh_plane(stack, plane)
        cols = self._ucols.get(id(stack))
        if cols is not None:
            stack.refresh(cols, plane)

    def close(self) -> None:
        super().close()
        self._ucols.clear()
