"""The counting kernel: ``c_D(p)``, batched counting, joint count tables.

:class:`PatternCounter` wraps a :class:`~repro.dataset.table.Dataset` and
answers the count queries the labeling machinery needs:

* :meth:`PatternCounter.count` — the exact count ``c_D(p)`` of one pattern
  (Definition 2.3), by vectorized mask intersection — the *scalar
  reference path*, kept for parity testing of the batch kernel;
* :meth:`PatternCounter.count_many` / :meth:`PatternCounter.counts_for_codes`
  — exact counts for a whole batch of patterns in one pass: patterns are
  grouped by attribute tuple and each group is radix-encoded into one
  ``int64`` key per pattern.  A first batch over a set gathers the keys
  from one dense ``bincount`` of the (uncached) data keys; a repeat batch
  resolves them against the cached sorted key table of the set's joint
  counts (one ``searchsorted`` instead of one boolean-mask intersection
  per pattern);
* :meth:`PatternCounter.joint_table` / :meth:`PatternCounter.joint_tables`
  — the joint count table over attribute set(s) ``S`` (exactly the ``PC``
  content of ``L_S(D)``), cached per attribute set;
* :meth:`PatternCounter.label_size` — ``|P_S|``, the number of distinct
  combinations over ``S`` with positive count, i.e. the size charged
  against the label budget ``Bs``;
* :meth:`PatternCounter.label_size_many` — ``|P_S|`` for a whole batch of
  attribute sets in one call: every set reuses cached ``int64`` columns
  (each attribute's column is materialized once per counter, not once
  per subset containing it; those of the distinct full rows once
  ``P_A`` is cached), lattice siblings reuse
  their shared prefix's keys, and distinct combinations are counted with
  a dense ``bincount`` whenever the radix key space is small, instead of
  a sort per subset — the sizing kernel behind the level-wise phase of
  every search strategy.

Value counts and value-count *fractions* (the independence factors of the
estimation function) are cached per attribute; label sizes, joint tables
and the key tables of repeatedly queried sets are cached per attribute
set, because all are re-requested heavily during lattice search and
batched estimation.  The counter assumes the dataset is immutable
(datasets are); to profile a new snapshot of evolving data, call
:meth:`PatternCounter.rebind`, which swaps the dataset *and* drops every
cache — see :meth:`invalidate_caches`.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.pattern import (
    Pattern,
    Predicate,
    encode_groups,
    encode_range_groups,
    split_by_ranges,
)
from repro.dataset.schema import MISSING_CODE
from repro.dataset.table import Dataset, combine_codes

__all__ = [
    "PatternCounter",
    "is_counter_like",
    "as_counter",
    "radix_fits",
    "expand_run_segments",
]

_INT64_MAX = np.iinfo(np.int64).max

#: Per-pattern cap on the Horner prefix expansion of non-terminal range
#: attributes.  A pattern whose earlier range attributes match more code
#: combinations than this falls back to the mask path — the expansion
#: would cost more than one data pass.
_MAX_RUN_FANOUT = 4096


def expand_run_segments(
    runs_rows: Sequence[Sequence[Sequence[tuple[int, int]]]],
    cardinalities: Sequence[int],
    *,
    max_fanout: int = _MAX_RUN_FANOUT,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Expand per-attribute code runs into Horner radix key segments.

    ``runs_rows[j][i]`` holds pattern ``j``'s half-open ``(lo, hi)`` code
    runs on attribute ``i``; ``cardinalities`` are the domain sizes in
    the same attribute order.  Because the last attribute occupies the
    least-significant radix digit, each of its runs stays one contiguous
    *key* interval; every earlier attribute contributes one Horner
    prefix per matched code.  Returns ``(seg_lo, seg_hi, owner,
    overflowed)``: pattern ``owner[s]``'s count is the number of data
    keys in ``[seg_lo[s], seg_hi[s])``, summed over its segments, and
    ``overflowed`` lists patterns whose prefix expansion exceeded
    ``max_fanout`` (resolve those by mask instead).
    """
    seg_lo: list[int] = []
    seg_hi: list[int] = []
    owner: list[int] = []
    overflowed: list[int] = []
    for j, runs in enumerate(runs_rows):
        prefixes = [0]
        empty = False
        for i, attr_runs in enumerate(runs[:-1]):
            card = cardinalities[i]
            codes = [c for lo, hi in attr_runs for c in range(lo, hi)]
            if not codes:
                empty = True
                break
            if len(prefixes) * len(codes) > max_fanout:
                overflowed.append(j)
                empty = True
                break
            prefixes = [p * card + c for p in prefixes for c in codes]
        if empty:
            continue
        last_card = cardinalities[-1]
        for p in prefixes:
            base = p * last_card
            for lo, hi in runs[-1]:
                seg_lo.append(base + lo)
                seg_hi.append(base + hi)
                owner.append(j)
    return (
        np.array(seg_lo, dtype=np.int64),
        np.array(seg_hi, dtype=np.int64),
        np.array(owner, dtype=np.int64),
        overflowed,
    )


def radix_fits(schema, attributes: Sequence[str]) -> bool:
    """True when the Horner radix product over ``attributes`` fits 64 bits.

    A schema-level property: every counter sharing the schema agrees, so
    the sharded backend can decide mergeability without touching (or
    materializing) any shard's data.  Beyond 64 bits
    :func:`~repro.dataset.table.combine_codes` re-factorizes through
    ``np.unique``, making keys data-dependent — dataset-side and
    query-side keys could then disagree.
    """
    radix = 1
    for attribute in attributes:
        card = schema[attribute].cardinality
        if card <= 0 or radix > _INT64_MAX // card:
            return False
        radix *= card
    return True


def _dense_radix(radix: int, n_keys: int) -> bool:
    """True when a ``bincount`` over ``radix`` slots beats sorting keys.

    One ``O(n + radix)`` bincount wins over an ``O(n log n)`` sort (or a
    ``searchsorted`` pass) while the key space stays near the key count;
    the absolute cap bounds the scratch allocation (int64 counts, 8 B
    per slot).  Shared by every radix-key kernel of the counter.
    """
    return radix <= min(1 << 24, max(1 << 16, 8 * n_keys))


def _horner(columns: Iterable[np.ndarray], cards: Iterable[int]) -> np.ndarray:
    """Horner radix keys ``((c₁·card₂ + c₂)·card₃ + c₃)…`` over ``int64``
    columns — the encoding :func:`~repro.dataset.table.combine_codes`
    gives query codes.  A single column is returned as is (callers lend
    read-only cached columns, so nothing may write to the result);
    otherwise the accumulator materializes on the *second* column,
    whose multiply produces it in one array pass instead of the
    copy-then-multiply-in-place two."""
    keys: np.ndarray | None = None
    borrowed = False  # keys still aliases the first column
    for column, card in zip(columns, cards):
        if keys is None:
            keys = column
            borrowed = True
        elif borrowed:
            keys = keys * card
            np.add(keys, column, out=keys)
            borrowed = False
        else:
            np.multiply(keys, card, out=keys)
            np.add(keys, column, out=keys)
    assert keys is not None  # attribute sets are non-empty
    return keys


def _distinct_count(keys: np.ndarray, radix: int) -> int:
    """Number of distinct values among radix ``keys`` (all ``< radix``)."""
    if keys.size == 0:
        return 0
    if _dense_radix(radix, keys.size):
        return int(np.count_nonzero(np.bincount(keys, minlength=radix)))
    sorted_keys = np.sort(keys)
    return int(1 + np.count_nonzero(sorted_keys[1:] != sorted_keys[:-1]))


#: The duck-typed counter interface every counting backend must serve.
#: :class:`PatternCounter` is the reference implementation;
#: :class:`repro.core.sharding.ShardedPatternCounter` is the merged
#: multi-shard one.  Anything exposing these attributes flows through
#: the whole stack (search, error evaluation, label construction).
_COUNTER_ATTRS = (
    "dataset",
    "total_rows",
    "count",
    "count_many",
    "counts_for_codes",
    "value_counts",
    "fractions",
    "joint_table",
    "joint_tables",
    "label_size",
    "distinct_full_rows",
    "pattern_from_codes",
)


def is_counter_like(obj: object) -> bool:
    """True when ``obj`` serves the counter interface the stack consumes.

    The structural check behind every ``Dataset | counter`` parameter:
    alternative counting backends (sharded, remote, ...) need not
    subclass :class:`PatternCounter` — exposing the same query surface
    is enough.
    """
    return all(hasattr(obj, attr) for attr in _COUNTER_ATTRS)


def as_counter(source, counter_factory=None):
    """Resolve ``source`` to a counting backend.

    The shared counter-factory hook of the search and evaluation layers:
    existing counters (anything :func:`is_counter_like`) pass through
    untouched; a :class:`~repro.dataset.table.Dataset` is wrapped by
    ``counter_factory`` when given (e.g. a sharded-counter builder),
    else by a plain :class:`PatternCounter`.
    """
    if isinstance(source, PatternCounter) or is_counter_like(source):
        return source
    if isinstance(source, Dataset):
        if counter_factory is not None:
            return counter_factory(source)
        return PatternCounter(source)
    raise TypeError(
        f"expected a Dataset or a counter-like object, got "
        f"{type(source).__name__}"
    )


class PatternCounter:
    """Count oracle over one dataset.

    Parameters
    ----------
    dataset:
        The relation to profile.  The counter holds a reference (datasets
        are immutable) and builds caches lazily.
    """

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self._init_caches()

    def _init_caches(self) -> None:
        """Fresh (empty) cache dictionaries.

        Split out of ``__init__`` so the pack-backed subclass
        (:class:`repro.persist.pack.PackedPatternCounter`) can construct
        itself *without* a dataset: its dataset and warm caches are
        installed lazily when a query first touches the shard file.
        """
        self._value_counts: dict[str, dict[Hashable, int]] = {}
        self._fractions: dict[str, np.ndarray] = {}
        self._label_sizes: dict[tuple[str, ...], int] = {}
        self._full_rows: tuple[np.ndarray, np.ndarray] | None = None
        # _full_rows' combos as read-only column-major int64: the sizing
        # kernel's key columns once P_A is cached.
        self._full_codes64: np.ndarray | None = None
        self._joint_tables: dict[
            tuple[str, ...], tuple[np.ndarray, np.ndarray]
        ] = {}
        # Shared encoded-column cache, per attribute: the code column
        # widened to int64 plus its presence mask, both read-only (reused
        # by every attribute set containing the attribute).  Per-set row
        # keys are never cached: one is ~8 bytes per row, and a long-lived
        # counter (drift checks, search) touches thousands of sets.
        self._columns64: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # attribute set -> (sorted unique row ids, counts): the group-by
        # of the encoded rows, built lazily on the second batch over the
        # same attribute set (a one-shot batch is cheaper via bincount).
        self._key_tables: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._key_queries: dict[tuple[str, ...], int] = {}
        # attribute set -> exclusive prefix sums of the key-table counts
        # (cum[i] = rows whose key ranks below key i): the range kernel's
        # companion of _key_tables, so a [lo, hi) key segment resolves
        # with two binary probes.
        self._key_cumsums: dict[tuple[str, ...], np.ndarray] = {}

    # -- cache lifecycle ----------------------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop every derived cache.

        Required after the counter is rebound to a different dataset
        snapshot (see :meth:`rebind`); datasets themselves are immutable,
        so a counter over an unchanged dataset never needs this.
        """
        self._value_counts.clear()
        self._fractions.clear()
        self._label_sizes.clear()
        self._full_rows = None
        self._full_codes64 = None
        self._joint_tables.clear()
        self._columns64.clear()
        self._key_tables.clear()
        self._key_queries.clear()
        self._key_cumsums.clear()

    def rebind(self, dataset: Dataset) -> "PatternCounter":
        """Point this counter at a new dataset snapshot and drop caches.

        This is the maintenance hook: :class:`~repro.core.maintenance`
        evolves the relation through insert/delete batches, and a counter
        carried across those updates would otherwise keep serving
        fractions, label sizes and joint tables of the *old* snapshot.
        Returns ``self`` for chaining.
        """
        self._dataset = dataset
        self.invalidate_caches()
        return self

    @property
    def dataset(self) -> Dataset:
        """The profiled dataset."""
        return self._dataset

    @property
    def total_rows(self) -> int:
        """``|D|``."""
        return self._dataset.n_rows

    # -- persistence --------------------------------------------------------------

    def _persist_arrays(
        self, *, include_caches: bool = True
    ) -> list[tuple[str, tuple[str, ...] | None, np.ndarray]]:
        """``(role, attributes, array)`` triples for the pack writer.

        The code matrix is the mandatory payload; with
        ``include_caches`` the warm caches the batch kernel built —
        sorted key tables and joint tables — ride along so a reopened
        counter starts where this one left off.  The per-attribute
        ``int64`` columns (:attr:`_columns64`) are *not* persisted: they
        are a cheap widening of the code matrix.
        """
        arrays: list[tuple[str, tuple[str, ...] | None, np.ndarray]] = [
            ("codes", None, self._dataset.codes_matrix())
        ]
        if include_caches:
            for attrs, (keys, counts) in self._key_tables.items():
                arrays.append(("key_keys", attrs, keys))
                arrays.append(("key_counts", attrs, counts))
            for attrs, (combos, counts) in self._joint_tables.items():
                arrays.append(("joint_combos", attrs, combos))
                arrays.append(("joint_counts", attrs, counts))
        return arrays

    def _install_persisted_caches(
        self,
        key_tables: Mapping[tuple[str, ...], tuple[np.ndarray, np.ndarray]],
        joint_tables: Mapping[tuple[str, ...], tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Adopt warm caches mapped from a pack shard.

        The arrays are read-only memmap views; every cache consumer
        treats cached arrays as immutable already, so mapped and
        computed entries are interchangeable.  ``invalidate_caches``
        (maintenance, rebinding) simply drops the views — copy-on-write
        at whole-cache granularity.
        """
        self._key_tables.update(key_tables)
        self._joint_tables.update(joint_tables)

    def dump(
        self,
        path,
        *,
        labels: Mapping[str, object] | None = None,
        include_caches: bool = True,
    ):
        """Write this counter's fit state as a ``repro-pack/1`` directory.

        See :func:`repro.persist.pack.write_pack` (which this wraps) for
        the format; ``labels`` optionally packs label artifacts next to
        the counter state.  Returns the pack directory path.
        """
        from repro.persist.pack import write_pack

        return write_pack(
            path, self, labels=labels, include_caches=include_caches
        )

    @classmethod
    def from_pack(cls, path, *, verify: str = "lazy") -> "PatternCounter":
        """Reopen a single-shard pack as a lazily-mapped counter.

        The returned counter reads no shard bytes until first queried
        (see :class:`repro.persist.pack.PackedPatternCounter`).  Packs
        with several shards belong to
        :meth:`repro.core.sharding.ShardedPatternCounter.from_pack`.
        ``verify`` is the reader's checksum policy (see
        :func:`repro.persist.pack.open_pack`).
        """
        from repro.persist.pack import open_pack

        reader = open_pack(path, verify=verify)
        if reader.n_shards != 1:
            raise ValueError(
                f"pack {path} holds {reader.n_shards} shards; load it "
                "through ShardedPatternCounter.from_pack (or "
                "repro.persist.open_pack(path).counter())"
            )
        return reader.shard_counter(0)

    # -- single-pattern counting ----------------------------------------------

    def count(self, pattern: Pattern) -> int:
        """Exact count ``c_D(p)`` by vectorized mask intersection.

        The scalar reference path of the batch kernels, for equality and
        range bindings alike: an equality contributes one ``codes ==
        code`` mask, a range predicate ORs together one mask per
        matching code run (missing values, code ``-1``, fall outside
        every run and so never satisfy a predicate).
        """
        schema = self._dataset.schema
        mask: np.ndarray | None = None
        for attribute, value in pattern.items_sorted:
            codes = self._dataset.codes(attribute)
            if isinstance(value, Predicate):
                column_mask = np.zeros(codes.shape, dtype=bool)
                for lo, hi in schema[attribute].code_runs(value):
                    column_mask |= (codes >= lo) & (codes < hi)
            else:
                code = schema[attribute].code_of(value)
                column_mask = codes == code
            mask = column_mask if mask is None else (mask & column_mask)
            if not mask.any():
                return 0
        assert mask is not None  # patterns are non-empty
        return int(mask.sum())

    # -- batched counting ---------------------------------------------------------

    def _radix_fits(self, attributes: tuple[str, ...]) -> bool:
        """True when the plain positional encoding over ``attributes`` is
        stable across calls (see :func:`radix_fits`)."""
        return radix_fits(self._dataset.schema, attributes)

    def encoded_rows(
        self, attributes: Sequence[str]
    ) -> np.ndarray | None:
        """Integer row ids of the fully-present rows over ``attributes``.

        Each row of the projection onto ``attributes`` with no missing
        value is collapsed into one ``int64`` radix key.  Two rows share
        a key iff they agree on every listed attribute, and a query
        pattern's key (same encoding of its codes) matches exactly the
        rows that satisfy it.  Returns ``None`` when the radix product
        overflows 64 bits (callers fall back to the scalar path).  Not
        cached: each call re-encodes (see :meth:`_horner_keys`), and the
        result may be a read-only view of the shared column cache.
        """
        attrs = tuple(attributes)
        if not self._radix_fits(attrs):
            return None
        return self._horner_keys(attrs)[0]

    def _column64(self, attribute: str) -> tuple[np.ndarray, np.ndarray]:
        """``attribute``'s code column widened to ``int64`` and its
        presence mask — the shared :attr:`_columns64` cache.  Both are
        read-only, since kernels lend them out (a write would corrupt
        every later batch count over the attribute)."""
        cached = self._columns64.get(attribute)
        if cached is None:
            codes = self._dataset.codes(attribute)
            cached = (codes.astype(np.int64), codes != MISSING_CODE)
            for array in cached:
                array.setflags(write=False)
            self._columns64[attribute] = cached
        return cached

    def _horner_keys(
        self, attributes: tuple[str, ...]
    ) -> tuple[np.ndarray, int]:
        """``(keys, radix)`` over ``attributes`` for the fully-present rows.

        Plain Horner radix encoding over the shared :attr:`_columns64`
        cache, ``key = ((c₁·card₂ + c₂)·card₃ + c₃)…`` — the encoding
        :func:`~repro.dataset.table.combine_codes` gives query codes, so
        data-side and query-side keys compare directly.  The per-set key
        array is *not* cached: sizing touches ``C(n, k)`` subsets per
        lattice level, evaluation one set per candidate and every drift
        check a few hundred fresh sets, and caching every key array would
        swamp memory (and every pack).  A single-attribute result with no
        missing values is the cached column itself, which is read-only;
        callers must not write to any result.  The caller must have
        checked :meth:`_radix_fits`.
        """
        schema = self._dataset.schema
        cards = [schema[a].cardinality for a in attributes]
        keys = _horner(
            (self._column64(a)[0] for a in attributes), cards
        )
        if self._dataset.has_missing:
            # Missing codes (-1) may pollute a key, but those rows are
            # dropped by the presence mask.
            present = np.logical_and.reduce(
                [self._column64(a)[1] for a in attributes]
            )
            if not present.all():
                keys = keys[present]
        return keys, math.prod(cards)

    def distinct_keys(self, attributes: Sequence[str]) -> np.ndarray | None:
        """Sorted distinct radix keys over ``attributes``, or ``None``.

        The mergeable face of label sizing: two counters sharing one
        schema produce comparable keys, so ``|P_S|`` of their union is
        the size of the union of their key sets (how
        :class:`~repro.core.sharding.ShardedPatternCounter` sizes
        subsets shard-parallel).  Returns ``None`` when the radix
        encoding is unusable — the dataset has missing values (partial
        projections need the ``n_distinct`` accounting) or the radix
        product overflows 64 bits.
        """
        attrs = tuple(attributes)
        if not attrs or self._dataset.has_missing or not self._radix_fits(
            attrs
        ):
            return None
        keys, radix = self._horner_keys(attrs)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        # flatnonzero over one dense bincount emits the sorted distinct
        # keys without the sort a generic np.unique would pay.
        if _dense_radix(radix, keys.size):
            return np.flatnonzero(np.bincount(keys, minlength=radix))
        return np.unique(keys)

    def label_size_many(
        self, attribute_sets: Iterable[Sequence[str]]
    ) -> np.ndarray:
        """``|P_S|`` for a whole batch of attribute sets in one call.

        The batched sizing kernel of the search driver: equivalent to
        ``[self.label_size(S) for S in attribute_sets]`` — the scalar
        path stays as the parity reference.  Keys are accumulated over
        cached ``int64`` columns (see :meth:`_sizing_column`): those of
        the distinct full rows once :meth:`distinct_full_rows` is cached
        — ``|P_S|`` depends only on the *set* of distinct rows, and the
        search builds that table for ``P_A`` anyway — else those of the
        data rows.  Consecutive sets sharing every attribute but the
        last (lattice siblings, which both the top-down BFS and
        ``itertools.combinations`` emit adjacently) reuse the prefix's
        Horner keys: each such child costs one multiply-add over the
        rows instead of ``|S|``.  Only the latest prefix is kept alive.
        Distinct combinations are counted with one dense ``bincount``
        while the radix key space stays small (see
        :func:`_dense_radix`), else by a sort.  Results land in (and are
        served from) the same per-set cache as :meth:`label_size`.
        Missing-value relations and 64-bit radix overflows fall back to
        the scalar path per subset.
        """
        schema = self._dataset.schema
        requested = [tuple(attrs) for attrs in attribute_sets]
        out = np.empty(len(requested), dtype=np.int64)
        column_of = self._sizing_column
        head: tuple[str, ...] | None = None
        head_keys: np.ndarray | None = None
        head_radix = 1
        scratch: np.ndarray | None = None
        for position, attrs in enumerate(requested):
            size = self._label_sizes.get(attrs)
            if size is None:
                if (
                    not attrs
                    or self._dataset.has_missing
                    or not self._radix_fits(attrs)
                ):
                    size = self._dataset.n_distinct(list(attrs))
                else:
                    if attrs[:-1] != head:
                        head = attrs[:-1]
                        head_cards = [schema[a].cardinality for a in head]
                        head_keys = (
                            _horner(map(column_of, head), head_cards)
                            if head
                            else None
                        )
                        head_radix = math.prod(head_cards)
                    column = column_of(attrs[-1])
                    card = schema[attrs[-1]].cardinality
                    if head_keys is None:
                        keys = column
                    else:
                        # Every child's keys land in one scratch array:
                        # no data-sized allocation per subset.
                        if scratch is None:
                            scratch = np.empty_like(column)
                        keys = np.multiply(head_keys, card, out=scratch)
                        np.add(keys, column, out=keys)
                    size = _distinct_count(keys, head_radix * card)
                self._label_sizes[attrs] = size
            out[position] = size
        return out

    def _sizing_column(self, attribute: str) -> np.ndarray:
        """``attribute``'s read-only ``int64`` column for sizing.

        Taken from the distinct full rows when :meth:`distinct_full_rows`
        is cached (compas: 43,744 distinct of 60,843 rows), else the data
        column of :meth:`_column64`.  Only called on relations without
        missing values, where every row is a full row.
        """
        if self._full_rows is None:
            return self._column64(attribute)[0]
        if self._full_codes64 is None:
            codes = np.asfortranarray(self._full_rows[0], dtype=np.int64)
            codes.setflags(write=False)
            self._full_codes64 = codes
        return self._full_codes64[:, self._dataset.schema.position(attribute)]

    def _key_table(
        self, attributes: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted group-by ``(unique row ids, counts)`` over ``attributes``.

        Built from the uncached :meth:`_horner_keys` (one ``np.unique``),
        cached, and thereafter answers any batch in ``O(m log k)`` — the
        caller must have checked that the radix encoding fits.  Only this
        small table is kept; the data-sized row keys are dropped.
        """
        table = self._key_tables.get(attributes)
        if table is None:
            row_keys, _radix = self._horner_keys(attributes)
            keys, counts = np.unique(row_keys, return_counts=True)
            table = (keys, counts.astype(np.int64, copy=False))
            self._key_tables[attributes] = table
        return table

    def key_table(
        self, attributes: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Sorted ``(unique row ids, counts)`` over ``attributes``.

        The mergeable counting face of the counter: two counters sharing
        one schema produce comparable keys, so the key table of their
        union is the sum-merge of their key tables — how
        :class:`~repro.core.sharding.ShardedPatternCounter` builds its
        merged tables (in process or in pool workers).  Returns ``None``
        when the radix encoding cannot serve the attribute set (64-bit
        overflow); missing values are fine — absent rows simply do not
        contribute keys, exactly as in the single-counter batch kernel.
        """
        attrs = tuple(attributes)
        if not self._radix_fits(attrs):
            return None
        return self._key_table(attrs)

    def _key_cumsum(self, attributes: tuple[str, ...]) -> np.ndarray:
        """Exclusive prefix sums over the cached key table's counts."""
        cum = self._key_cumsums.get(attributes)
        if cum is None:
            _keys, counts = self._key_table(attributes)
            cum = np.concatenate(
                (
                    np.zeros(1, dtype=np.int64),
                    np.cumsum(counts, dtype=np.int64),
                )
            )
            self._key_cumsums[attributes] = cum
        return cum

    def _count_runs_mask(
        self,
        attributes: tuple[str, ...],
        runs: Sequence[Sequence[tuple[int, int]]],
    ) -> int:
        """Mask-intersection count of one code-run row (fallback path)."""
        mask: np.ndarray | None = None
        for attribute, attr_runs in zip(attributes, runs):
            codes = self._dataset.codes(attribute)
            column_mask = np.zeros(codes.shape, dtype=bool)
            for lo, hi in attr_runs:
                column_mask |= (codes >= lo) & (codes < hi)
            mask = column_mask if mask is None else (mask & column_mask)
            if not mask.any():
                return 0
        assert mask is not None
        return int(mask.sum())

    def counts_for_runs(
        self,
        attributes: Sequence[str],
        runs_rows: Sequence[Sequence[Sequence[tuple[int, int]]]],
    ) -> np.ndarray:
        """Exact counts ``c_D(p)`` for a homogeneous *code-run* batch.

        The range twin of :meth:`counts_for_codes`: every pattern binds
        exactly ``attributes``, and ``runs_rows[j][i]`` holds pattern
        ``j``'s half-open ``(lo, hi)`` code runs on ``attributes[i]``
        (an equality is the single run ``(code, code + 1)`` — see
        :func:`repro.core.pattern.encode_range_groups`).  Each pattern
        expands into Horner key segments against the same cached sorted
        key table that serves the equality kernel, plus its cached
        cumulative counts: one segment costs two ``searchsorted`` probes
        — a contiguous range is as cheap as an equality.  Patterns whose
        non-terminal range attributes would expand past the fanout cap,
        and attribute sets whose radix product overflows 64 bits, fall
        back to the mask path.
        """
        attrs = tuple(attributes)
        runs_rows = list(runs_rows)
        out = np.zeros(len(runs_rows), dtype=np.int64)
        if not runs_rows:
            return out
        if not self._radix_fits(attrs):
            for j, runs in enumerate(runs_rows):
                out[j] = self._count_runs_mask(attrs, runs)
            return out
        cards = [self._dataset.schema[a].cardinality for a in attrs]
        seg_lo, seg_hi, owner, overflowed = expand_run_segments(
            runs_rows, cards
        )
        if seg_lo.size:
            keys, _counts = self._key_table(attrs)
            if keys.size:
                cum = self._key_cumsum(attrs)
                hits = (
                    cum[np.searchsorted(keys, seg_hi, side="left")]
                    - cum[np.searchsorted(keys, seg_lo, side="left")]
                )
                np.add.at(out, owner, hits)
        for j in overflowed:
            out[j] = self._count_runs_mask(attrs, runs_rows[j])
        return out

    def counts_for_codes(
        self, attributes: Sequence[str], combos: np.ndarray
    ) -> np.ndarray:
        """Exact counts ``c_D(p)`` for a homogeneous code batch.

        Every pattern binds exactly ``attributes``; row ``i`` of
        ``combos`` holds pattern ``i``'s codes, each within its
        attribute's domain (``ValueError`` otherwise — an out-of-domain
        code would alias another combination's radix key).  First batch
        over an attribute set: one pass over uncached Horner row keys —
        one dense ``bincount`` over the radix key space gathered at the
        query keys, or, above the dense cap (:func:`_dense_radix`), every
        row key resolved among the sorted distinct query keys with
        ``searchsorted``.  Neither caches a per-set row-key array.
        Repeat batches promote the attribute set to a cached sorted key
        table, after which a batch costs one binary search per *query*
        instead of a data pass.  Combinations absent from the data count
        0.  Falls back to the scalar mask path only when the attribute
        set's radix product overflows 64 bits.
        """
        attrs = tuple(attributes)
        combos = np.asarray(combos)
        if combos.ndim != 2 or combos.shape[1] != len(attrs):
            raise ValueError(
                f"combos must be (n, {len(attrs)}) for attributes {attrs}"
            )
        if combos.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        cards = [self._dataset.schema[a].cardinality for a in attrs]
        # Column-major, so the per-attribute scans (the domain check
        # here, the key accumulation in combine_codes) run contiguous.
        combos = np.asfortranarray(combos)
        low = combos.min(axis=0).tolist()
        high = combos.max(axis=0).tolist()
        for attribute, lo, hi, card in zip(attrs, low, high, cards):
            if lo < 0 or hi >= card:
                raise ValueError(
                    f"code {lo if lo < 0 else hi} is outside the domain "
                    f"of attribute {attribute!r} (codes 0..{card - 1})"
                )
        return self._counts_for_valid_codes(attrs, combos, cards)

    def _counts_for_valid_codes(
        self,
        attrs: tuple[str, ...],
        combos: np.ndarray,
        cards: Sequence[int],
    ) -> np.ndarray:
        """:meth:`counts_for_codes` for a non-empty batch whose codes are
        known to lie within their domains (``cards``) — e.g. encoded
        from pattern values, as in :meth:`count_many`."""
        # Only radix-fitting sets are ever promoted to a key table.
        if attrs not in self._key_tables and not self._radix_fits(attrs):
            return np.array(
                [
                    self.count(self.pattern_from_codes(attrs, row))
                    for row in combos
                ],
                dtype=np.int64,
            )
        query_keys = combine_codes(combos, cards)

        self._key_queries[attrs] = self._key_queries.get(attrs, 0) + 1
        if attrs in self._key_tables or self._key_queries[attrs] > 1:
            keys, counts = self._key_table(attrs)
            if keys.size == 0:
                return np.zeros(combos.shape[0], dtype=np.int64)
            idx = np.searchsorted(keys, query_keys)
            idx_clamped = np.minimum(idx, keys.size - 1)
            found = keys[idx_clamped] == query_keys
            return np.where(found, counts[idx_clamped], 0).astype(np.int64)

        row_keys, radix = self._horner_keys(attrs)
        if _dense_radix(radix, row_keys.size):
            counts = np.bincount(row_keys, minlength=radix)
            return counts[query_keys].astype(np.int64, copy=False)
        # Sparse key space: group the data by *query* key instead of
        # sorting the data — O(n log m) for m distinct queries.
        unique_q, inverse = np.unique(query_keys, return_inverse=True)
        if row_keys.size == 0:
            return np.zeros(combos.shape[0], dtype=np.int64)
        idx = np.searchsorted(unique_q, row_keys)
        idx_clamped = np.minimum(idx, unique_q.size - 1)
        matched = unique_q[idx_clamped] == row_keys
        per_query = np.bincount(
            idx_clamped[matched], minlength=unique_q.size
        ).astype(np.int64)
        return per_query[inverse]

    def count_many(self, patterns: Iterable[Pattern]) -> np.ndarray:
        """Exact counts ``c_D(p)`` for an arbitrary pattern batch.

        The batch kernel behind workload evaluation: equality-only
        patterns are grouped by their attribute tuple and each group is
        integer-encoded and resolved in one vectorized lookup (see
        :meth:`counts_for_codes`); range-bearing patterns are grouped by
        range signature, normalized to code runs, and resolved as key
        segments against the same cached tables (see
        :meth:`counts_for_runs`).  Equivalent to ``[self.count(p) for p
        in patterns]`` — the scalar path stays as the parity reference —
        but binary searches instead of one mask intersection per pattern.
        """
        patterns = list(patterns)
        out = np.zeros(len(patterns), dtype=np.int64)
        if not patterns:
            return out
        schema = self._dataset.schema

        def counts(attrs, combos):
            # Codes encoded from pattern values are in-domain already.
            cards = [schema[a].cardinality for a in attrs]
            return self._counts_for_valid_codes(attrs, combos, cards)

        equality, ranged = split_by_ranges(patterns)
        if not ranged:
            for attrs, combos, indices in encode_groups(patterns, schema):
                out[indices] = counts(attrs, combos)
            return out
        for attrs, combos, indices in encode_groups(
            [patterns[i] for i in equality], schema
        ):
            out[[equality[j] for j in indices]] = counts(attrs, combos)
        for order, runs_rows, indices in encode_range_groups(
            [patterns[i] for i in ranged], schema
        ):
            out[[ranged[j] for j in indices]] = self.counts_for_runs(
                order, runs_rows
            )
        return out

    # -- per-attribute statistics -----------------------------------------------

    def _require_attribute(self, attribute: str) -> None:
        """Raise a self-explanatory ``KeyError`` for unknown attributes."""
        if attribute not in self._dataset.schema:
            known = ", ".join(
                repr(name) for name in self._dataset.schema.names
            )
            raise KeyError(
                f"no attribute named {attribute!r}; known attributes: "
                f"{known}"
            )

    def value_counts(self, attribute: str) -> dict[Hashable, int]:
        """Counts of every domain value of ``attribute`` (cached)."""
        if attribute not in self._value_counts:
            self._require_attribute(attribute)
            self._value_counts[attribute] = self._dataset.value_counts(
                attribute
            )
        return self._value_counts[attribute]

    def value_count(self, attribute: str, value: Hashable) -> int:
        """Count ``c_D({A = a})`` of one attribute value."""
        counts = self.value_counts(attribute)
        try:
            return counts[value]
        except KeyError:
            raise KeyError(
                f"value {value!r} not in the active domain of attribute "
                f"{attribute!r}"
            ) from None

    def fractions(self, attribute: str) -> np.ndarray:
        """Independence factors per code of ``attribute``.

        Entry ``code`` holds ``c_D({A=a}) / sum_a' c_D({A=a'})``, the
        factor the estimation function multiplies in for an attribute
        outside the label's set (Definition 2.11).  The denominator is the
        number of non-missing entries of the attribute, which equals
        ``|D|`` for datasets without missing values.
        """
        if attribute not in self._fractions:
            self._require_attribute(attribute)
            column = self._dataset.schema[attribute]
            counts = np.array(
                [
                    self.value_counts(attribute)[category]
                    for category in column.categories
                ],
                dtype=np.float64,
            )
            denominator = counts.sum()
            if denominator == 0:
                fractions = np.zeros_like(counts)
            else:
                fractions = counts / denominator
            self._fractions[attribute] = fractions
        return self._fractions[attribute]

    def fraction(self, attribute: str, value: Hashable) -> float:
        """Single independence factor for ``attribute = value``."""
        code = self._dataset.schema[attribute].code_of(value)
        return float(self.fractions(attribute)[code])

    def predicate_fraction(self, attribute: str, predicate) -> float:
        """Summed independence factor of a predicate on ``attribute``.

        The range generalization of :meth:`fraction`: the probability
        mass of every domain value satisfying ``predicate``, read off
        the cached per-code fraction array via the predicate's code
        runs.
        """
        fractions = self.fractions(attribute)
        runs = self._dataset.schema[attribute].code_runs(predicate)
        return float(sum(fractions[lo:hi].sum() for lo, hi in runs))

    # -- attribute-set statistics -------------------------------------------------

    def joint_table(
        self, attributes: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Joint count table (``PC`` content) over ``attributes``.

        Returns the ``(combos, counts)`` pair produced by
        :meth:`repro.dataset.table.Dataset.joint_counts`.  Cached per
        attribute tuple — the search error-evaluates many candidates
        against the same pattern set, and every candidate's base term is
        a lookup in one of these tables.
        """
        key = tuple(attributes)
        if key not in self._joint_tables:
            self._joint_tables[key] = self._dataset.joint_counts(list(key))
        return self._joint_tables[key]

    def joint_tables(
        self, attribute_sets: Iterable[Sequence[str]]
    ) -> dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]]:
        """Joint count tables for several attribute sets at once.

        Batch companion of :meth:`joint_table`: deduplicates the
        requested sets and serves each from (and into) the shared cache,
        so interleaved callers — candidate evaluation, label building,
        workload scoring — never recompute a table another layer already
        paid for.
        """
        out: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
        for attributes in attribute_sets:
            key = tuple(attributes)
            if key not in out:
                out[key] = self.joint_table(key)
        return out

    def label_size(self, attributes: Sequence[str]) -> int:
        """``|P_S|``: distinct positive-count combinations over ``S``.

        Cached per attribute set — the search algorithms probe the same
        sets repeatedly while walking the lattice.
        """
        key = tuple(attributes)
        if key not in self._label_sizes:
            self._label_sizes[key] = self._dataset.n_distinct(list(key))
        return self._label_sizes[key]

    def distinct_full_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct fully-present rows and their counts.

        This is the default pattern set ``P_A`` of the experiments: every
        full-width pattern present in the data, with its true count.
        Cached — the search evaluates every candidate against it.
        """
        if self._full_rows is None:
            self._full_rows = self._dataset.joint_counts(
                list(self._dataset.attribute_names)
            )
        return self._full_rows

    # -- conversions ---------------------------------------------------------------

    def pattern_from_codes(
        self, attributes: Sequence[str], codes: Sequence[int]
    ) -> Pattern:
        """Decode a code vector over ``attributes`` into a :class:`Pattern`."""
        schema = self._dataset.schema
        assignments: dict[str, Hashable] = {}
        for attribute, code in zip(attributes, codes):
            if code == MISSING_CODE:
                raise ValueError("cannot build a pattern from a missing value")
            assignments[attribute] = schema[attribute].category_of(int(code))
        return Pattern(assignments)

    def codes_from_pattern(
        self, pattern: Pattern
    ) -> Mapping[str, int]:
        """Encode a pattern as attribute → code."""
        schema = self._dataset.schema
        return {
            attribute: schema[attribute].code_of(value)
            for attribute, value in pattern.items_sorted
        }
