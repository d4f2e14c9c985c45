"""Stacked array state for homogeneous groups of sketch copies.

The robustness constructions of Section 3 pay for adversarial robustness
in *copies*: a switching estimator keeps k independent instances of the
same static sketch and feeds every stream chunk to most of them.  With
the per-object representation that is k Python call chains per chunk —
k aggregations, k hash passes, k scatter-adds — even though the copies
differ only in their hash coefficients.

A :class:`SketchStack` stores the array state of one homogeneous copy
group as a single stacked NumPy array (one plane per copy) and turns the
per-copy loops into single kernels:

* ``prepare`` aggregates a chunk once and evaluates the hash columns for
  **all** planes in one stacked Horner sweep
  (:func:`repro.hashing.field.poly_eval_stacked`);
* ``feed`` scatter-adds a prepared chunk into any subset of planes;
* ``query_all`` reduces the whole stack to per-copy estimates in one
  vectorized pass.

The original sketch objects stay alive as *templates*: each template's
mutable array attribute is rebound to a view of its plane, so per-item
updates, point queries, snapshots, and scalar bookkeeping keep working
unchanged — in-place NumPy writes flow through the view into the stack.
Everything a stack computes is bit-for-bit identical to running the same
operations through the per-object path; the equivalence suite in
``tests/test_stacked_groups.py`` enforces this.

A sketch opts in by setting :attr:`repro.sketches.base.Sketch.stackable`
and implementing ``make_stack``.  Qualifying requires:

* array-valued mutable state of fixed shape (a counter table or
  accumulator vector) that all bulk updates mutate *in place*;
* hash families of equal degree across copies, so the stacked Horner
  sweep is well-formed;
* aggregation-invariant batch semantics, so one shared per-chunk
  aggregation feeds every plane.

KMV qualifies by keeping its bottom-k set as a sentinel-padded sorted
array of fixed length k.  Map-shaped state (MisraGries' counter map)
does not stack; such sketches keep the object path.

Installing a copy into a live stack changes that plane's hash
functions, so callers that cache prepared chunks across an install
must :meth:`SketchStack.refresh` the plane in each of them.
"""

from __future__ import annotations

import abc

import numpy as np


class SketchStack(abc.ABC):
    """Stacked state for a contiguous homogeneous group of sketch copies.

    Subclasses adopt the templates' arrays into one ``(planes, ...)``
    stack at construction (KMV defers this to its first bulk operation)
    and rebind each template's array attribute to its plane view.  All
    mutation of stacked state must go through the stack
    (``feed``/``install``/``restore``) or through in-place NumPy writes
    on a template's view; rebinding a template's array attribute
    outside :meth:`install` silently detaches it from the stack.
    """

    #: Whether :meth:`prepare_universe` / :meth:`prepare_counts` are
    #: implemented (the counts-based serial fast path checks this) — and
    #: with them column addressing: a whole-chunk :meth:`prepare` is
    #: then the chunk's own columns, :meth:`subrange` answers with counts
    #: over them, ``columns_at`` gives an update range's column indices,
    #: and ``step_item`` / ``prefix_estimates`` take columns plus column
    #: indices, so the bytes path resolves a crossing over the chunk's
    #: distinct items as the universe path does over ``[0, universe)``.
    #: The prep of a chunk's aggregate then also serves as the prep of
    #: the raw chunk (same distinct items, same sums).
    supports_universe = False

    def __init__(self, sketches):
        self.sketches = list(sketches)
        if not self.sketches:
            raise ValueError("a sketch stack needs at least one copy")
        self._adopt()

    @property
    def planes(self) -> int:
        return len(self.sketches)

    @abc.abstractmethod
    def _adopt(self) -> None:
        """Stack the templates' arrays and rebind them as plane views."""

    @abc.abstractmethod
    def prepare(self, items, deltas):
        """Aggregate a chunk and hash it once for all planes.

        Returns an opaque prepared-chunk object that :meth:`feed` can
        scatter into any subset of planes; the whole point is that one
        ``prepare`` of a staged chunk is reused by its probe and
        feed-others passes, and that subranges of it (:meth:`subrange`)
        need no hash pass of their own.  Must perform the same input
        validation, in the same order, as the sketch's ``update_batch``;
        a stack of sketches whose ``update_batch`` takes
        ``assume_unique`` takes it here too (the caller guarantees
        sorted distinct items, so the stack may skip its dedupe).
        """

    def prepare_universe(self, universe: int):
        """Hash columns for *every* item of ``[0, universe)``, or ``None``.

        A stack that supports counts-based preparation returns an opaque
        columns object covering the whole item universe — one hash pass
        per session instead of one per chunk.  :meth:`prepare_counts`
        then builds prepared chunks from a dense count vector without
        sorting or re-hashing anything.  The base implementation returns
        ``None`` (unsupported), which keeps the per-chunk prepare path.
        Stacks that return columns also implement ``step_item`` (one
        update across planes) and ``prefix_estimates`` (every prefix's
        estimates of a run of updates, without feeding it), both over
        columns and column indices — here the items themselves.
        """
        return None

    def prepare_counts(self, ucols, counts):
        """Prepared chunk from columns plus a dense count vector.

        ``counts[i]`` is the summed delta of column ``i`` over the chunk
        (``np.bincount`` of the chunk's items); ``ucols`` comes from
        :meth:`prepare_universe` (or is a chunk's own columns).  Feeding
        the result is bit-for-bit feeding the :meth:`prepare` of the same
        chunk: the nonzero support of an insertion-only count vector *is*
        the sorted distinct-item set, and the universe columns hold the
        same hash evaluations.  The result may read ``ucols`` when fed
        rather than copy from it, so it stays valid while ``ucols`` is
        refreshed.
        Only stacks whose :meth:`prepare_universe` returns non-``None``
        implement this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support counts-based prepare"
        )

    def subset(self, prepared, items, deltas):
        """Prepared chunk for a *subrange* of an already-prepared chunk,
        aggregated on its own.

        ``prepared`` must be the result of :meth:`prepare` over a chunk
        of which ``items``/``deltas`` is a contiguous slice.  Subclasses
        whose prepare does per-plane hashing override this to dedupe the
        slice and gather its hash columns out of the full-chunk pass
        instead of re-hashing (every distinct item of the slice already
        has its columns in ``prepared``).  The default just re-prepares;
        results are bit-for-bit identical either way.
        :meth:`subrange` is the positional entry point the backends call.
        """
        return self.prepare(items, deltas)

    def prepare_lazy(self, items, deltas):
        """:meth:`prepare` for a chunk only a few planes will be fed.

        A crossing chunk's search feeds its whole-chunk prep to the
        probed, newly active and reborn planes alone; a stack whose
        prepare hashes per plane may defer each plane's columns until a
        feed first selects it.  The default prepares eagerly; feeds are
        bit-for-bit identical either way.
        """
        return self.prepare(items, deltas)

    def subrange(self, prepared, items, deltas, lo: int, hi: int):
        """Prepared chunk for ``items[lo:hi]``, where ``prepared`` came
        from :meth:`prepare` or :meth:`prepare_lazy` over the whole
        ``items``/``deltas`` (or, for a ``supports_universe`` stack,
        over their aggregate).

        The crossing search asks for many nested subranges of one staged
        chunk (bisection halves, lagging-copy feeds, leaf feeds).  A
        stack may answer positionally from one inverse index per staged
        chunk, without deduplicating the slice: KMV gathers the slice's
        columns (its merge drops repeats), CountSketch sums the slice's
        deltas per column with one ``bincount``.  The default is
        :meth:`subset` of the slice.
        """
        return self.subset(prepared, items[lo:hi], deltas[lo:hi])

    @abc.abstractmethod
    def refresh(self, prepared, plane: int) -> None:
        """Recompute ``plane``'s hash columns in a prepared chunk, in place.

        A copy installed into a live stack (restart-ring advance, DP
        retirement, ladder refresh) brings new hash functions, so every
        prepared chunk or universe-columns object cached across the
        install must be refreshed before it feeds that plane again.
        Columns of the other planes are untouched.  A stack may defer
        the recomputation to the next feed that selects the plane.
        """

    @abc.abstractmethod
    def feed(self, prepared, planes) -> None:
        """Scatter a prepared chunk into the given plane indices.

        Bit-for-bit identical to calling ``update_batch`` on each of the
        selected templates with the chunk the prepared object was built
        from.
        """

    @abc.abstractmethod
    def query_all(self) -> np.ndarray:
        """Per-plane estimates as one float64 array.

        ``query_all()[p]`` equals ``self.sketches[p].query()``
        bit-for-bit — same reduction ops applied per plane.
        """

    @abc.abstractmethod
    def install(self, plane: int, sketch) -> None:
        """Make ``sketch`` the template for ``plane``.

        Copies the incoming sketch's array state into the plane and
        rebinds its array attribute to the plane view.  This is the only
        sanctioned way to swap a copy (retire, restart-ring advance,
        rollback replacement, worker collect) while a stack is live.
        """

    @abc.abstractmethod
    def save(self, planes):
        """Snapshot the given planes (stacked array copy + scalar state)."""

    def release(self, saved) -> None:
        """Hand a :meth:`save` snapshot back once it is restored or
        discarded; the caller must not use it again.  A stack may recycle
        its arrays for the next ``save`` (the base keeps nothing)."""

    @abc.abstractmethod
    def restore(self, saved) -> None:
        """Undo the planes covered by a :meth:`save` snapshot in place.

        Restores array *and* scalar/auxiliary state onto the existing
        templates; template object identity is preserved, which no
        caller observes (the object path swaps in snapshot clones that
        share hashes with the originals).
        """

    @abc.abstractmethod
    def detach(self) -> None:
        """Give every template ownership of its state; kill the stack.

        After ``detach`` each template holds a private copy of its plane
        and the stack must not be used again.  The process engine calls
        this before forking so workers inherit plain per-object copies.
        """


def stack_rows(arrays) -> np.ndarray:
    """Stack equal-shape arrays into one owned ``(planes, ...)`` block."""
    return np.stack([np.asarray(a) for a in arrays], axis=0)
