"""Parity properties of the batch kernel vs the scalar reference paths.

The batch counting engine (``PatternCounter.count_many``, the
``BatchLabelEvaluator`` error pass, the per-backend ``estimate_many``
implementations) must be *observably identical* to the per-pattern
scalar paths it replaces — the scalar paths are kept precisely to serve
as the executable specification.  Hypothesis generates random small
relations (optionally with missing values) and random mixed-arity
workloads, and every batch answer is checked against its scalar twin.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    LabelEstimator,
    Pattern,
    PatternCounter,
    build_label,
    evaluate_label,
)
from repro.api import RegistryError, make_estimator, registered_estimators
from repro.api.registry import estimate_many as registry_estimate_many
from repro.core.errors import (
    BatchLabelEvaluator,
    ErrorSummary,
    evaluate_labels,
)
from repro.core.pattern import OPS, Predicate
from repro.core.patternsets import PatternSet, full_pattern_set

# -- strategies -----------------------------------------------------------------


@st.composite
def datasets(draw, min_rows: int = 2, max_rows: int = 24, allow_missing=False):
    """A random small categorical relation with pinned domains."""
    n_attrs = draw(st.integers(2, 4))
    names = [f"A{i}" for i in range(n_attrs)]
    domain_sizes = [draw(st.integers(2, 3)) for _ in range(n_attrs)]
    n_rows = draw(st.integers(min_rows, max_rows))
    columns = {}
    for name, size in zip(names, domain_sizes):
        domain = [f"v{j}" for j in range(size)]
        columns[name] = draw(
            st.lists(
                st.sampled_from(domain + ([None] if allow_missing else [])),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
    domains = {
        name: tuple(f"v{j}" for j in range(size))
        for name, size in zip(names, domain_sizes)
    }
    return Dataset.from_columns(columns, domains=domains)


@st.composite
def workloads(draw, data: Dataset, min_patterns=1, max_patterns=12):
    """Random mixed-arity patterns over ``data``'s domains.

    Values are drawn from the *domains*, not from the rows, so the
    workload exercises zero-count patterns too.
    """
    names = list(data.attribute_names)
    schema = data.schema
    n_patterns = draw(st.integers(min_patterns, max_patterns))
    patterns = []
    for _ in range(n_patterns):
        arity = draw(st.integers(1, len(names)))
        attrs = draw(
            st.lists(
                st.sampled_from(names),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        patterns.append(
            Pattern(
                {
                    a: draw(st.sampled_from(list(schema[a].categories)))
                    for a in attrs
                }
            )
        )
    return patterns


@st.composite
def mixed_workloads(draw, data: Dataset, min_patterns=1, max_patterns=12):
    """Random patterns mixing equality bindings and range predicates.

    Each binding independently draws an operator from :data:`OPS`; the
    ``=`` draw keeps the historical equality shape, the comparison draws
    anchor a range predicate at a domain value (the ``v0``/``v1``/...
    string domains are totally ordered, so every operator is valid).
    """
    names = list(data.attribute_names)
    schema = data.schema
    n_patterns = draw(st.integers(min_patterns, max_patterns))
    patterns = []
    for _ in range(n_patterns):
        arity = draw(st.integers(1, len(names)))
        attrs = draw(
            st.lists(
                st.sampled_from(names),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        spec = {}
        for a in attrs:
            value = draw(st.sampled_from(list(schema[a].categories)))
            op = draw(st.sampled_from(OPS))
            spec[a] = value if op == "=" else Predicate(op, value)
        patterns.append(Pattern(spec))
    return patterns


@st.composite
def dataset_and_workload(draw, allow_missing=False):
    data = draw(datasets(allow_missing=allow_missing))
    return data, draw(workloads(data))


def _brute_count(data: Dataset, pattern: Pattern) -> int:
    """Row-by-row reference count via ``Pattern.matches_row``."""
    return sum(
        pattern.matches_row(data.row(i)) for i in range(data.n_rows)
    )


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _subsets_of(draw, data: Dataset):
    names = list(data.attribute_names)
    k = draw(st.integers(1, len(names)))
    return tuple(
        draw(
            st.lists(
                st.sampled_from(names), min_size=k, max_size=k, unique=True
            )
        )
    )


# -- count_many == looped count -------------------------------------------------


@SETTINGS
@given(dataset_and_workload())
def test_count_many_matches_scalar_loop(data_workload):
    data, patterns = data_workload
    counter = PatternCounter(data)
    batch = counter.count_many(patterns)
    scalar = [counter.count(p) for p in patterns]
    assert list(batch) == scalar
    # Repeat batches go through the promoted key tables — still equal.
    assert list(counter.count_many(patterns)) == scalar


@SETTINGS
@given(dataset_and_workload(allow_missing=True))
def test_count_many_matches_scalar_loop_with_missing(data_workload):
    """Missing values never satisfy a pattern, on both paths."""
    data, patterns = data_workload
    counter = PatternCounter(data)
    assert list(counter.count_many(patterns)) == [
        counter.count(p) for p in patterns
    ]


@SETTINGS
@given(st.data())
def test_count_many_matches_brute_force_mixed(data_strategy):
    """Mixed equality/range workloads: kernel == scalar == brute force."""
    data = data_strategy.draw(datasets(allow_missing=True))
    patterns = data_strategy.draw(mixed_workloads(data))
    counter = PatternCounter(data)
    brute = [_brute_count(data, p) for p in patterns]
    assert [counter.count(p) for p in patterns] == brute
    assert list(counter.count_many(patterns)) == brute
    # Repeat batch: warm key tables and cumsum caches, still identical.
    assert list(counter.count_many(patterns)) == brute


# -- batched evaluate_label == scalar -------------------------------------------


@SETTINGS
@given(st.data())
def test_batched_evaluation_matches_scalar_estimator(data_strategy):
    """BatchLabelEvaluator == evaluate_label == per-pattern LabelEstimator."""
    data = data_strategy.draw(datasets())
    counter = PatternCounter(data)
    patterns = data_strategy.draw(workloads(data))
    pattern_set = PatternSet.from_patterns(counter, patterns)
    subset = _subsets_of(data_strategy.draw, data)

    scalar_estimator = LabelEstimator(build_label(counter, subset))
    scalar_estimates = np.array(
        [scalar_estimator.estimate(p) for p in patterns]
    )

    evaluator = BatchLabelEvaluator(counter, pattern_set)
    np.testing.assert_allclose(
        evaluator.estimates(tuple(sorted(subset))),
        scalar_estimates,
        rtol=1e-9,
        atol=1e-12,
    )

    batch_summary = evaluator.evaluate(subset)
    plain_summary = evaluate_label(counter, subset, pattern_set)
    for field in ("n_patterns", "max_abs", "mean_abs", "max_q", "mean_q"):
        assert getattr(batch_summary, field) == pytest.approx(
            getattr(plain_summary, field), rel=1e-9
        ), field


@SETTINGS
@given(st.data())
def test_evaluate_labels_matches_per_candidate_calls(data_strategy):
    data = data_strategy.draw(datasets())
    counter = PatternCounter(data)
    pattern_set = full_pattern_set(counter)
    candidates = [
        _subsets_of(data_strategy.draw, data) for _ in range(3)
    ]
    batch = evaluate_labels(counter, candidates, pattern_set)
    for candidate, summary in zip(candidates, batch):
        reference = evaluate_label(counter, candidate, pattern_set)
        assert summary.max_abs == pytest.approx(reference.max_abs, rel=1e-9)
        assert summary.mean_q == pytest.approx(reference.mean_q, rel=1e-9)


@SETTINGS
@given(st.data())
def test_batched_evaluation_matches_scalar_estimator_mixed(data_strategy):
    """Range-bearing pattern sets through the batch evaluation pass."""
    data = data_strategy.draw(datasets())
    counter = PatternCounter(data)
    patterns = data_strategy.draw(mixed_workloads(data))
    pattern_set = PatternSet.from_patterns(counter, patterns)
    subset = _subsets_of(data_strategy.draw, data)

    scalar_estimator = LabelEstimator(build_label(counter, subset))
    scalar_estimates = np.array(
        [scalar_estimator.estimate(p) for p in patterns]
    )

    evaluator = BatchLabelEvaluator(counter, pattern_set)
    np.testing.assert_allclose(
        evaluator.estimates(tuple(sorted(subset))),
        scalar_estimates,
        rtol=1e-9,
        atol=1e-12,
    )
    batch_summary = evaluator.evaluate(subset)
    plain_summary = evaluate_label(counter, subset, pattern_set)
    for field in ("n_patterns", "max_abs", "mean_abs", "max_q", "mean_q"):
        assert getattr(batch_summary, field) == pytest.approx(
            getattr(plain_summary, field), rel=1e-9
        ), field


# -- the P_A weighted-bincount path ---------------------------------------------


@st.composite
def duplicated_datasets(draw, allow_missing=False):
    """A relation whose rows repeat a handful of template tuples.

    Small domains (cardinality 1 included) plus few templates give
    heavy row duplication, so the distinct-row table ``P_A`` is much
    smaller than the relation and its counts are far from 1.
    """
    n_attrs = draw(st.integers(2, 5))
    names = [f"A{i}" for i in range(n_attrs)]
    domain_sizes = [draw(st.integers(1, 3)) for _ in range(n_attrs)]
    values = [
        [f"v{j}" for j in range(size)] + ([None] if allow_missing else [])
        for size in domain_sizes
    ]
    templates = draw(
        st.lists(
            st.tuples(*(st.sampled_from(v) for v in values)),
            min_size=1,
            max_size=6,
        )
    )
    rows = draw(st.lists(st.sampled_from(templates), min_size=1, max_size=80))
    columns = {
        name: [row[i] for row in rows] for i, name in enumerate(names)
    }
    domains = {
        name: tuple(f"v{j}" for j in range(size))
        for name, size in zip(names, domain_sizes)
    }
    return Dataset.from_columns(columns, domains=domains)


def _lattice(data: Dataset) -> list[tuple[str, ...]]:
    names = list(data.attribute_names)
    return [
        subset
        for k in range(0, len(names) + 1)
        for subset in itertools.combinations(names, k)
    ]


class _CountingSpy:
    """Counts the evaluator's calls into the counter's batch kernels."""

    def __init__(self, monkeypatch, counter: PatternCounter) -> None:
        self.calls = 0
        for name in ("counts_for_codes", "counts_for_runs"):
            kernel = getattr(counter, name)

            def spy(*args, _kernel=kernel, **kwargs):
                self.calls += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(counter, name, spy)


@SETTINGS
@given(st.data())
def test_full_pattern_set_path_matches_generic_and_scalar(data_strategy):
    """On ``P_A`` the evaluator's weighted bincount (no counter data
    pass) equals ``evaluate_label``'s kernel path exactly, and the
    per-pattern ``LabelEstimator`` to rounding, for every subset."""
    data = data_strategy.draw(duplicated_datasets())
    counter = PatternCounter(data)
    pattern_set = full_pattern_set(counter)
    reference_counter = PatternCounter(data)
    reference_set = full_pattern_set(reference_counter)
    patterns = [p for p, _ in reference_set.iter_with_counts()]
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = _CountingSpy(monkeypatch, counter)
        evaluator = BatchLabelEvaluator(counter, pattern_set)
        for subset in _lattice(data):
            summary = evaluator.evaluate(subset)
            assert summary == evaluate_label(
                reference_counter, subset, reference_set
            ), subset
            estimator = LabelEstimator(build_label(reference_counter, subset))
            scalar = ErrorSummary.from_arrays(
                reference_set.counts,
                [estimator.estimate(p) for p in patterns],
            )
            for field in ("n_patterns", "max_abs", "mean_abs", "max_q",
                          "mean_q"):
                assert getattr(summary, field) == pytest.approx(
                    getattr(scalar, field), rel=1e-9, abs=1e-9
                ), (subset, field)
        assert spy.calls == 0


@SETTINGS
@given(st.data())
def test_general_path_kept_for_missing_values_and_workloads(data_strategy):
    """Missing-value relations, workload sets and tabular sets that are
    not the counter's own ``P_A`` go through the counting kernel, with
    the results of ``evaluate_label``."""
    allow_missing = data_strategy.draw(st.booleans())
    data = data_strategy.draw(duplicated_datasets(allow_missing=allow_missing))
    counter = PatternCounter(data)
    full = full_pattern_set(counter)
    workload = PatternSet.from_patterns(
        counter, data_strategy.draw(workloads(data))
    )
    pattern_sets = [workload]
    if data.has_missing:
        pattern_sets.append(full)
    if len(full) > 1:
        # P_A's rows in reverse: same patterns, not the cached table.
        pattern_sets.append(
            PatternSet(
                attributes=full.attributes,
                combos=full.combos[::-1],
                counts=full.counts[::-1],
                patterns=None,
                counter=counter,
            )
        )
    subsets = [s for s in _lattice(data) if s]
    for pattern_set in pattern_sets:
        reference = [
            evaluate_label(PatternCounter(data), subset, pattern_set)
            for subset in subsets
        ]
        with pytest.MonkeyPatch.context() as monkeypatch:
            spy = _CountingSpy(monkeypatch, counter)
            evaluator = BatchLabelEvaluator(counter, pattern_set)
            assert [evaluator.evaluate(s) for s in subsets] == reference
            if not data.has_missing or pattern_set.is_tabular:
                assert spy.calls > 0


def test_duplicate_rows_summing_to_total_are_not_p_a():
    """A full-width set whose counts sum to ``|D|`` but repeats a row is
    not ``P_A``: the weighted bincount would double its base count."""
    data = Dataset.from_columns(
        {"A": ["x", "x", "y", "y"], "B": ["u", "u", "u", "u"]}
    )
    counter = PatternCounter(data)
    full = full_pattern_set(counter)
    doubled = PatternSet(
        attributes=full.attributes,
        combos=np.repeat(full.combos[:1], 2, axis=0),
        counts=np.array([2, 2]),
        patterns=None,
        counter=counter,
    )
    for subset in (("A",), ("B",), ("A", "B")):
        batch = BatchLabelEvaluator(counter, doubled).estimates(subset)
        assert list(batch) == [2.0, 2.0], subset


@SETTINGS
@given(st.data())
def test_label_size_many_over_distinct_rows(data_strategy):
    """Sizing reads the data rows until ``distinct_full_rows()`` is
    cached and the distinct rows after; both equal scalar sizing."""
    data = data_strategy.draw(
        duplicated_datasets(allow_missing=data_strategy.draw(st.booleans()))
    )
    lattice = [s for s in _lattice(data) if s]
    shuffled = data_strategy.draw(st.permutations(lattice))
    reference = PatternCounter(data)
    expected = [reference.label_size(s) for s in lattice + list(shuffled)]
    cold = PatternCounter(data)
    assert list(cold.label_size_many(lattice + list(shuffled))) == expected
    warm = PatternCounter(data)
    warm.distinct_full_rows()
    assert list(warm.label_size_many(lattice + list(shuffled))) == expected


# -- estimate vs estimate_many across every registered backend ------------------

_BACKEND_PARAMS = {
    # bound 12 > 3*3, the largest possible 2-attribute label of the
    # generated relations, so the search always finds a feasible subset.
    "label": {"bound": 12},
    "flexible": {"bound": 4},
    "multi_label": {"bound": 12, "n_labels": 2},
    "independence": {},
    "sampling": {"bound": 8, "seed": 0},
    "dephist": {},
    "postgres": {"seed": 0},
}


def test_backend_param_table_covers_registry():
    """Every built-in backend must appear in the parity sweep below.

    Subset, not equality: the registry is global and other tests (and
    deployments) legitimately register extra backends at runtime.
    """
    assert set(_BACKEND_PARAMS) <= set(registered_estimators())
    builtins = {
        "label",
        "flexible",
        "multi_label",
        "independence",
        "sampling",
        "dephist",
        "postgres",
    }
    assert builtins <= set(_BACKEND_PARAMS)


@SETTINGS
@given(dataset_and_workload())
def test_estimate_many_matches_estimate_for_all_backends(data_workload):
    data, patterns = data_workload
    for name, params in _BACKEND_PARAMS.items():
        try:
            estimator = make_estimator(name, data, **params)
        except RegistryError:
            continue  # optional dependency missing (e.g. networkx)
        scalar = [float(estimator.estimate(p)) for p in patterns]
        batched = registry_estimate_many(estimator, patterns)
        np.testing.assert_allclose(
            batched, scalar, rtol=1e-9, atol=1e-12, err_msg=name
        )


#: Backends whose scalar ``estimate`` understands range predicates; the
#: DBMS-statistics baselines (dephist, postgres) stay equality-only.
_RANGE_BACKENDS = ("label", "flexible", "multi_label", "independence", "sampling")


@SETTINGS
@given(st.data())
def test_estimate_many_matches_estimate_for_range_backends(data_strategy):
    data = data_strategy.draw(datasets())
    patterns = data_strategy.draw(mixed_workloads(data))
    for name in _RANGE_BACKENDS:
        estimator = make_estimator(name, data, **_BACKEND_PARAMS[name])
        scalar = [float(estimator.estimate(p)) for p in patterns]
        batched = registry_estimate_many(estimator, patterns)
        np.testing.assert_allclose(
            batched, scalar, rtol=1e-9, atol=1e-12, err_msg=name
        )


@SETTINGS
@given(datasets())
def test_tabular_pattern_set_dispatch_matches_scalar(data):
    """PatternSet dispatch (estimate_codes fast path) stays consistent."""
    counter = PatternCounter(data)
    pattern_set = full_pattern_set(counter)
    patterns = [pattern_set.pattern(i) for i in range(len(pattern_set))]
    for name in ("independence", "postgres", "sampling"):
        estimator = make_estimator(
            name, data, **_BACKEND_PARAMS[name]
        )
        via_set = registry_estimate_many(estimator, pattern_set)
        scalar = [float(estimator.estimate(p)) for p in patterns]
        np.testing.assert_allclose(
            via_set, scalar, rtol=1e-9, atol=1e-12, err_msg=name
        )


# -- counts_for_codes: first batch == repeat batch == scalar --------------------


@st.composite
def wide_datasets(draw, max_rows: int = 24, allow_missing=False):
    """A small relation whose two-attribute radix exceeds the dense cap.

    Domains of 300 values put the radix of any pair at 90,000 — above
    the 65,536-slot floor of the dense ``bincount`` cap — so first
    batches take the sorted-query (``searchsorted``) path.  Rows draw
    from the first few values only, so combinations repeat.
    """
    names = ["A0", "A1", "A2"]
    domain = tuple(f"v{j}" for j in range(300))
    n_rows = draw(st.integers(1, max_rows))
    values = st.sampled_from(
        list(domain[:4]) + ([None] if allow_missing else [])
    )
    columns = {
        name: draw(st.lists(values, min_size=n_rows, max_size=n_rows))
        for name in names
    }
    return Dataset.from_columns(
        columns, domains={name: domain for name in names}
    )


def _code_batch(draw, data: Dataset):
    """An attribute tuple plus a random code batch over its domains.

    Codes are drawn from the whole domain (bounded to its first values
    for wide domains, so some hit the data), so batches mix present and
    absent combinations, and may repeat rows.
    """
    attrs = _subsets_of(draw, data)
    cards = [min(data.schema[a].cardinality, 6) for a in attrs]
    n = draw(st.integers(1, 10))
    combos = np.array(
        [[draw(st.integers(0, card - 1)) for card in cards] for _ in range(n)],
        dtype=np.int64,
    )
    return attrs, combos


def _assert_code_paths_agree(data: Dataset, attrs, combos) -> None:
    counter = PatternCounter(data)
    scalar = [
        counter.count(counter.pattern_from_codes(attrs, row))
        for row in combos
    ]
    assert list(counter.counts_for_codes(attrs, combos)) == scalar  # first
    assert list(counter.counts_for_codes(attrs, combos)) == scalar  # repeat


@SETTINGS
@given(st.data())
def test_counts_for_codes_paths_match_scalar(data_strategy):
    data = data_strategy.draw(datasets(allow_missing=True))
    attrs, combos = _code_batch(data_strategy.draw, data)
    _assert_code_paths_agree(data, attrs, combos)


@SETTINGS
@given(st.data())
def test_counts_for_codes_paths_match_scalar_above_dense_cap(data_strategy):
    data = data_strategy.draw(
        wide_datasets(allow_missing=data_strategy.draw(st.booleans()))
    )
    attrs, combos = _code_batch(data_strategy.draw, data)
    _assert_code_paths_agree(data, attrs, combos)


# -- label_size_many == looped label_size ---------------------------------------


@SETTINGS
@given(st.data())
def test_label_size_many_matches_scalar_in_any_order(data_strategy):
    """Prefix sharing must not depend on sibling adjacency.

    The batch mixes every lattice subset (siblings adjacent, as the
    search emits them) with a shuffled, repeated sample of the same
    subsets (siblings apart, prefixes revisited) and singletons.
    """
    data = data_strategy.draw(
        datasets(allow_missing=data_strategy.draw(st.booleans()))
    )
    names = list(data.attribute_names)
    lattice = [
        subset
        for k in range(1, len(names) + 1)
        for subset in itertools.combinations(names, k)
    ]
    shuffled = data_strategy.draw(st.permutations(lattice))
    repeats = data_strategy.draw(
        st.lists(st.sampled_from(lattice), max_size=len(lattice))
    )
    batch = lattice + list(shuffled) + repeats
    reference = PatternCounter(data)
    expected = [reference.label_size(subset) for subset in batch]
    assert list(PatternCounter(data).label_size_many(batch)) == expected
    # Shuffled alone on a cold counter: every size comes from the
    # kernel (no cache hits), with prefixes switching and recurring.
    assert list(PatternCounter(data).label_size_many(shuffled)) == [
        reference.label_size(subset) for subset in shuffled
    ]
