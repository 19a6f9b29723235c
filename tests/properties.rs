//! Property-based tests over the core data structures and algorithmic
//! invariants, using proptest.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xinsight::core::json::{Json, MAX_PARSE_DEPTH};
use xinsight::core::{SearchStrategy, WhyQuery, XPlainer, XPlainerOptions};
use xinsight::data::{
    Aggregate, BinSpec, Column, DatasetBuilder, DimensionColumn, Discretizer, Filter,
    MeasureColumn, Predicate, RowMask, Subspace, NULL_CODE,
};
use xinsight::graph::{separation, Dag, MixedGraph};
use xinsight::service::http::{HttpError, Request, RequestParser, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use xinsight::service::server::status_for;
use xinsight::service::wire::{ExplainBatchV2, ExplainV2, IngestV2};
use xinsight::service::{explain_v2_body, ingest_v2_body};

// ---------------------------------------------------------------------------
// RowMask algebra
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn rowmask_and_or_counts_are_consistent(bits_a in prop::collection::vec(any::<bool>(), 1..300),
                                            bits_b in prop::collection::vec(any::<bool>(), 1..300)) {
        let n = bits_a.len().min(bits_b.len());
        let a = RowMask::from_bools(bits_a[..n].iter().copied());
        let b = RowMask::from_bools(bits_b[..n].iter().copied());
        let and = a.and(&b);
        let or = a.or(&b);
        // Inclusion–exclusion.
        prop_assert_eq!(and.count() + or.count(), a.count() + b.count());
        // Difference partitions the union.
        prop_assert_eq!(a.minus(&b).count() + b.count(), or.count());
        // Complement.
        prop_assert_eq!(a.not().count(), n - a.count());
        // Idempotence.
        prop_assert_eq!(a.and(&a), a.clone());
        prop_assert_eq!(a.or(&a), a);
    }

    #[test]
    fn predicate_mask_equals_union_of_filter_masks(values in prop::collection::vec(0u8..6, 20..200),
                                                   chosen in prop::collection::vec(0u8..6, 1..4)) {
        let labels: Vec<String> = values.iter().map(|v| format!("v{v}")).collect();
        let data = DatasetBuilder::new()
            .dimension("X", labels.iter().map(String::as_str))
            .build()
            .unwrap();
        let predicate = Predicate::new("X", chosen.iter().map(|v| format!("v{v}")));
        let by_predicate = predicate.mask(&data).unwrap();
        let mut by_filters = RowMask::zeros(data.n_rows());
        for f in predicate.filters() {
            by_filters = by_filters.or(&f.mask(&data).unwrap());
        }
        prop_assert_eq!(by_predicate, by_filters);
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn sum_is_additive_over_a_partition(values in prop::collection::vec(-100.0f64..100.0, 10..200),
                                        split in prop::collection::vec(any::<bool>(), 10..200)) {
        let n = values.len().min(split.len());
        let data = DatasetBuilder::new()
            .measure("M", values[..n].to_vec())
            .build()
            .unwrap();
        let part_a = RowMask::from_bools(split[..n].iter().copied());
        let part_b = part_a.not();
        let total = Aggregate::Sum.eval(&data, "M", &data.all_rows()).unwrap();
        let sum_a = Aggregate::Sum.eval(&data, "M", &part_a).unwrap();
        let sum_b = Aggregate::Sum.eval(&data, "M", &part_b).unwrap();
        prop_assert!((total - sum_a - sum_b).abs() < 1e-9);
    }

    #[test]
    fn avg_lies_between_min_and_max(values in prop::collection::vec(-50.0f64..50.0, 2..100)) {
        let data = DatasetBuilder::new()
            .measure("M", values.clone())
            .build()
            .unwrap();
        let all = data.all_rows();
        let avg = Aggregate::Avg.eval(&data, "M", &all).unwrap();
        let min = Aggregate::Min.eval(&data, "M", &all).unwrap();
        let max = Aggregate::Max.eval(&data, "M", &all).unwrap();
        prop_assert!(min - 1e-9 <= avg && avg <= max + 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Row selection and discretization work on dictionary codes
// ---------------------------------------------------------------------------

/// A dataset with missing cells in both dimensions and the measure: `A`
/// from strings (0 = missing), `B` through `from_parts` over a dictionary
/// with an unused category and codes out of first-appearance order, `M`
/// with NaN where `m_null` is set.
fn dataset_with_nulls(a: &[u8], b: &[u8], m: &[f64], m_null: &[bool]) -> xinsight::data::Dataset {
    let dict: Vec<std::sync::Arc<str>> = ["w", "z", "y", "x"]
        .into_iter()
        .map(std::sync::Arc::from)
        .collect();
    let b_codes: Vec<u32> = b
        .iter()
        .map(|&v| if v == 0 { NULL_CODE } else { 4 - v as u32 })
        .collect();
    DatasetBuilder::new()
        .dimension_column(
            "A",
            DimensionColumn::from_optional_values(
                a.iter().map(|&v| (v != 0).then(|| format!("a{v}"))),
            ),
        )
        .dimension_column("B", DimensionColumn::from_parts(b_codes, dict).unwrap())
        .measure_column(
            "M",
            MeasureColumn::from_optional_values(
                m.iter().zip(m_null).map(|(&v, &null)| (!null).then_some(v)),
            ),
        )
        .build()
        .unwrap()
}

/// `rows` of `data`, rebuilt cell by cell through `from_optional_values`
/// (every category re-interned by string).
fn rebuild_rows(data: &xinsight::data::Dataset, rows: &[usize]) -> xinsight::data::Dataset {
    let mut builder = DatasetBuilder::new();
    for (idx, name) in data.schema().names().into_iter().enumerate() {
        builder = match data.column(idx) {
            Column::Dimension(c) => builder.dimension_column(
                name,
                DimensionColumn::from_optional_values(rows.iter().map(|&i| c.value(i))),
            ),
            Column::Measure(c) => builder.measure_column(
                name,
                MeasureColumn::from_optional_values(rows.iter().map(|&i| c.value(i))),
            ),
        };
    }
    builder.build().unwrap()
}

/// Same schema, codes, dictionary order and cardinality, and the same
/// measure values bit for bit (missing cells included).
fn assert_same_columns(
    got: &xinsight::data::Dataset,
    want: &xinsight::data::Dataset,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.schema(), want.schema());
    prop_assert_eq!(got.n_rows(), want.n_rows());
    for idx in 0..want.n_attributes() {
        match (got.column(idx), want.column(idx)) {
            (Column::Dimension(g), Column::Dimension(w)) => {
                prop_assert_eq!(g.codes(), w.codes());
                prop_assert_eq!(g.categories(), w.categories());
                prop_assert_eq!(g.cardinality(), w.cardinality());
                for c in w.categories() {
                    prop_assert_eq!(g.code_of(c), w.code_of(c));
                }
            }
            (Column::Measure(g), Column::Measure(w)) => {
                let bits = |c: &MeasureColumn| -> Vec<u64> {
                    c.values().iter().map(|v| v.to_bits()).collect()
                };
                prop_assert_eq!(bits(g), bits(w));
            }
            _ => prop_assert!(false, "column {} changed kind", idx),
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn drop_null_rows_and_filter_rows_equal_a_rebuild_of_the_kept_rows(
        a in prop::collection::vec(0u8..5, 1..120),
        b in prop::collection::vec(0u8..4, 1..120),
        m in prop::collection::vec(-5.0f64..5.0, 1..120),
        m_null in prop::collection::vec(any::<bool>(), 1..120),
        keep in prop::collection::vec(any::<bool>(), 1..120),
    ) {
        let n = a.len().min(b.len()).min(m.len()).min(m_null.len()).min(keep.len());
        let data = dataset_with_nulls(&a[..n], &b[..n], &m[..n], &m_null[..n]);

        let complete: Vec<usize> = (0..n)
            .filter(|&i| a[i] != 0 && b[i] != 0 && !m_null[i])
            .collect();
        let clean = data.drop_null_rows();
        assert_same_columns(&clean, &rebuild_rows(&data, &complete))?;

        let mask = RowMask::from_bools(keep[..n].iter().copied());
        let selected: Vec<usize> = mask.iter_selected().collect();
        assert_same_columns(&data.filter_rows(&mask).unwrap(), &rebuild_rows(&data, &selected))?;
    }

    #[test]
    fn discretizer_codes_equal_label_reinterning(
        m in prop::collection::vec(-5.0f64..5.0, 1..150),
        m_null in prop::collection::vec(any::<bool>(), 1..150),
        base in -3.0f64..3.0,
        gaps in prop::collection::vec(0u8..3, 1..5),
    ) {
        let n = m.len().min(m_null.len());
        // Gaps of 1e-4 make adjacent cuts print alike at the labels' three
        // decimals, so distinct bins can share a label (rows rarely land in
        // such narrow bins; `discretize`'s unit tests pin that case).
        let mut cuts = vec![base];
        for &g in &gaps {
            let last = *cuts.last().unwrap();
            cuts.push(last + [1e-4, 0.5, 1.0][g as usize]);
        }
        let spec = BinSpec::from_cuts(cuts).unwrap();
        let data = DatasetBuilder::new()
            .measure_column(
                "M",
                MeasureColumn::from_optional_values(
                    m[..n].iter().zip(&m_null[..n]).map(|(&v, &null)| (!null).then_some(v)),
                ),
            )
            .build()
            .unwrap();
        let binned = Discretizer::new("M", spec.clone()).apply(&data, None).unwrap();
        let by_label = DimensionColumn::from_optional_values(
            (0..n).map(|i| data.measure("M").unwrap().value(i).map(|v| spec.label(spec.bin_of(v)))),
        );
        let want = data.clone().with_dimension("M_bin", by_label).unwrap();
        assert_same_columns(&binned, &want)?;
    }
}

// ---------------------------------------------------------------------------
// Graphs and m-separation
// ---------------------------------------------------------------------------

/// Builds a random DAG over `n` nodes from a boolean edge matrix, keeping only
/// forward edges (i < j) so acyclicity holds by construction.
fn dag_from_matrix(n: usize, edges: &[bool]) -> Dag {
    let names: Vec<String> = (0..n).map(|i| format!("N{i}")).collect();
    let mut dag = Dag::new(names);
    let mut k = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            if k < edges.len() && edges[k] {
                dag.add_edge(i, j);
            }
            k += 1;
        }
    }
    dag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn d_separation_is_symmetric_and_respects_adjacency(
        n in 3usize..7,
        edges in prop::collection::vec(any::<bool>(), 21),
        x in 0usize..7,
        y in 0usize..7,
        z in 0usize..7,
    ) {
        let dag = dag_from_matrix(n, &edges);
        let x = x % n;
        let y = y % n;
        let z = z % n;
        prop_assume!(x != y);
        let cond: Vec<usize> = if z != x && z != y { vec![z] } else { vec![] };
        let sep_xy = dag.d_separated(x, y, &cond);
        let sep_yx = dag.d_separated(y, x, &cond);
        prop_assert_eq!(sep_xy, sep_yx, "d-separation must be symmetric");
        if dag.adjacent(x, y) {
            prop_assert!(!sep_xy, "adjacent nodes can never be separated");
        }
    }

    #[test]
    fn global_markov_property_holds_on_sampled_data(
        edges in prop::collection::vec(any::<bool>(), 6),
        seed in 0u64..1000,
    ) {
        // 4-node random DAG; sample categorical data from it and check that
        // every d-separation implies (statistical) conditional independence.
        let dag = dag_from_matrix(4, &edges);
        let data = sample_from_dag(&dag, 1500, seed);
        // A very strict significance level: the property is "separation implies
        // independence", so the only failure mode we must guard against is a
        // false rejection, whose probability this α makes negligible.
        let test = xinsight::stats::ChiSquareTest::new(1e-7);
        use xinsight::stats::CiTest;
        for x in 0..4usize {
            for y in (x + 1)..4 {
                for z in 0..4usize {
                    if z == x || z == y { continue; }
                    let zs = [format!("N{z}")];
                    let zrefs: Vec<&str> = zs.iter().map(String::as_str).collect();
                    if dag.d_separated(x, y, &[z]) {
                        let independent = test
                            .independent(&data, &format!("N{x}"), &format!("N{y}"), &zrefs)
                            .unwrap();
                        prop_assert!(independent,
                            "GMP violated: N{x} ⫫ N{y} | N{z} in the DAG but not in data");
                    }
                }
            }
        }
    }
}

/// Forward-samples binary data from a DAG with fixed, strong mechanisms.
fn sample_from_dag(dag: &Dag, n_rows: usize, seed: u64) -> xinsight::data::Dataset {
    // splitmix64: well-mixed and cheap, good enough for sampling test data.
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut rand01 = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let n = dag.n_nodes();
    let order = dag.topological_order();
    let mut columns: Vec<Vec<u8>> = vec![vec![0; n_rows]; n];
    // `row` indexes several columns at once (parents read, `v` written),
    // so a range loop is the clearest form here.
    #[allow(clippy::needless_range_loop)]
    for row in 0..n_rows {
        for &v in &order {
            let parent_sum: u32 = dag.parents(v).iter().map(|&p| columns[p][row] as u32).sum();
            let p1 = match parent_sum {
                0 => 0.25,
                1 => 0.75,
                _ => 0.9,
            };
            columns[v][row] = (rand01() < p1) as u8;
        }
    }
    let mut builder = DatasetBuilder::new();
    for (v, column) in columns.iter().enumerate() {
        let labels: Vec<&str> = column
            .iter()
            .map(|&c| if c == 1 { "1" } else { "0" })
            .collect();
        builder = builder.dimension(dag.name(v), labels);
    }
    builder.build().unwrap()
}

// ---------------------------------------------------------------------------
// Why Queries and XPlainer invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn responsibility_is_always_a_valid_probability(
        categories in prop::collection::vec(0u8..5, 60..200),
        values in prop::collection::vec(0.0f64..100.0, 60..200),
        seed in 0u64..50,
    ) {
        let n = categories.len().min(values.len());
        let x: Vec<&str> = (0..n).map(|i| if (i + seed as usize).is_multiple_of(2) { "a" } else { "b" }).collect();
        let y: Vec<String> = categories[..n].iter().map(|c| format!("c{c}")).collect();
        let data = DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y.iter().map(String::as_str))
            .measure("M", values[..n].to_vec())
            .build()
            .unwrap();
        let query = WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        ).unwrap();
        let Ok(query) = query.oriented(&data) else { return Ok(()); };
        let store = data.clone().into_segmented();
        let xplainer = XPlainer::new(XPlainerOptions::default());
        for strategy in [SearchStrategy::Optimized, SearchStrategy::BruteForce] {
            if let Ok(Some(c)) = xplainer.explain_attribute(&store, &query, "Y", strategy, false) {
                prop_assert!(c.responsibility > 0.0 && c.responsibility <= 1.0 + 1e-9);
                prop_assert!(!c.predicate.is_empty());
                // The explanation must actually reduce the difference when defined.
                if let Some(rem) = c.remaining_delta {
                    prop_assert!(rem <= query.delta(&data).unwrap() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn cached_parallel_search_equals_serial_search(
        categories in prop::collection::vec(0u8..6, 80..200),
        values in prop::collection::vec(0.0f64..100.0, 80..200),
        seed in 0u64..40,
    ) {
        // The tentpole invariant of the parallel engine: answering the same
        // attribute search through a shared SelectionCache with parallel
        // probe loops yields byte-identical explanations to the serial,
        // cold-cache path — for both aggregates and both strategies.
        use std::sync::Arc;
        use xinsight::core::SelectionCache;

        let n = categories.len().min(values.len());
        let x: Vec<&str> = (0..n).map(|i| if (i + seed as usize).is_multiple_of(3) { "b" } else { "a" }).collect();
        let y: Vec<String> = categories[..n].iter().map(|c| format!("c{c}")).collect();
        let data = DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y.iter().map(String::as_str))
            .measure("M", values[..n].to_vec())
            .build()
            .unwrap();
        let store = data.clone().into_segmented();
        let shared = Arc::new(SelectionCache::new());
        for aggregate in [Aggregate::Sum, Aggregate::Avg] {
            let query = WhyQuery::new(
                "M",
                aggregate,
                Subspace::of("X", "a"),
                Subspace::of("X", "b"),
            ).unwrap();
            let Ok(query) = query.oriented(&data) else { return Ok(()); };
            let serial = XPlainer::new(XPlainerOptions {
                parallel: false,
                ..XPlainerOptions::default()
            });
            let parallel = XPlainer::new(XPlainerOptions::default());
            for strategy in [SearchStrategy::Optimized, SearchStrategy::BruteForce] {
                let cold = serial.explain_attribute(&store, &query, "Y", strategy, false);
                let warm = parallel.explain_attribute_cached(
                    &store, &query, "Y", strategy, false, Arc::clone(&shared));
                let (Ok(cold), Ok(warm)) = (cold, warm) else {
                    prop_assert!(false, "searches must not error on valid input");
                    return Ok(());
                };
                match (&cold, &warm) {
                    (None, None) => {}
                    (Some(c), Some(w)) => {
                        prop_assert_eq!(c.predicate.values(), w.predicate.values());
                        prop_assert_eq!(
                            c.responsibility.to_bits(), w.responsibility.to_bits(),
                            "responsibility must be bit-identical"
                        );
                        prop_assert_eq!(
                            c.remaining_delta.map(f64::to_bits),
                            w.remaining_delta.map(f64::to_bits)
                        );
                        prop_assert_eq!(
                            c.contingency.as_ref().map(|p| p.values().to_vec()),
                            w.contingency.as_ref().map(|p| p.values().to_vec())
                        );
                    }
                    _ => prop_assert!(
                        false,
                        "cached/parallel and serial paths disagree on existence: {:?} vs {:?}",
                        cold, warm
                    ),
                }
            }
        }
    }

    #[test]
    fn delta_over_full_mask_equals_delta(values in prop::collection::vec(0.0f64..10.0, 20..100)) {
        let n = values.len();
        let x: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let data = DatasetBuilder::new()
            .dimension("X", x)
            .measure("M", values)
            .build()
            .unwrap();
        let query = WhyQuery::new(
            "M",
            Aggregate::Sum,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        ).unwrap();
        let full = query.delta(&data).unwrap();
        let over = query.delta_over(&data, &data.all_rows()).unwrap();
        prop_assert!((full - over).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Δ from per-category group-bys equals flat-mask aggregation
// ---------------------------------------------------------------------------

/// One row per random word: `X ∈ {a, b, c}` (the sibling attribute; `c`
/// rows lie on neither side), `Y` with a null cell in a quarter of the rows
/// and `M` with a NaN cell in a seventh.  Measures are fractions spread over
/// nine decades, so exact summation has rounding to get right.
fn nullable_rows(words: &[u64]) -> xinsight::data::Dataset {
    let bits = |w: u64, shift: u32, modulus: u64| (w >> shift) % modulus;
    DatasetBuilder::new()
        .dimension(
            "X",
            words
                .iter()
                .map(|&w| ["a", "b", "c"][bits(w, 0, 3) as usize]),
        )
        .dimension_column(
            "Y",
            DimensionColumn::from_optional_values(words.iter().map(|&w| {
                let y = bits(w, 8, 8);
                (y < 6).then(|| format!("y{y}"))
            })),
        )
        .measure_column(
            "M",
            MeasureColumn::from_optional_values(words.iter().map(|&w| {
                let value = bits(w, 24, 120) as f64 - 60.0;
                let decade = bits(w, 32, 9) as i32 - 3;
                (bits(w, 16, 7) != 0).then(|| value / 7.0 * 10f64.powi(decade))
            })),
        )
        .build()
        .unwrap()
}

/// `data` sealed into consecutive segments ending at the `cuts` (taken
/// modulo the row count; empty chunks skipped).
fn segmented_at(
    data: &xinsight::data::Dataset,
    cuts: &[usize],
) -> xinsight::data::SegmentedDataset {
    let n = data.n_rows();
    let mut ends: Vec<usize> = cuts.iter().map(|c| c % n).filter(|&e| e > 0).collect();
    ends.push(n);
    ends.sort_unstable();
    ends.dedup();
    let chunk = |start: usize, end: usize| {
        data.filter_rows(&RowMask::from_bools(
            (0..n).map(|i| (start..end).contains(&i)),
        ))
        .unwrap()
    };
    let mut store = chunk(0, ends[0]).into_segmented();
    for pair in ends.windows(2) {
        store = store.seal(&chunk(pair[0], pair[1])).unwrap();
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn context_deltas_equal_flat_mask_aggregation(
        rows in prop::collection::vec(any::<u64>(), 1..90),
        cuts in prop::collection::vec(0usize..1000, 0..4),
        clauses in prop::collection::vec(prop::collection::vec(0usize..9, 0..7), 1..8),
    ) {
        use std::sync::Arc;
        use xinsight::core::xplainer::SearchContext;
        use xinsight::core::SelectionCache;

        let flat = nullable_rows(&rows);
        let store = segmented_at(&flat, &cuts);
        let (s1, s2) = (Subspace::of("X", "a"), Subspace::of("X", "b"));
        let sides = [s1.mask(&flat).unwrap(), s2.mask(&flat).unwrap()];
        let categories = store.categories("Y").unwrap();
        // The clause's flat mask: filter indices as a set, and an index past
        // the categories selects nothing.
        let clause_mask = |clause: &[usize]| {
            clause.iter().filter_map(|&i| categories.get(i)).fold(
                RowMask::zeros(flat.n_rows()),
                |mask, category| mask.or(&Filter::equals("Y", category.as_ref()).mask(&flat).unwrap()),
            )
        };
        // The reference `Aggregate::eval_opt` over flat masks, as the
        // baselines evaluate Δ.
        let reference = |aggregate: Aggregate, select: &dyn Fn(&RowMask) -> RowMask| {
            let [a, b] = sides.each_ref().map(|side| {
                aggregate.eval_opt(&flat, "M", &select(side)).unwrap()
            });
            Some((a? - b?).to_bits())
        };
        let cache = Arc::new(SelectionCache::new());
        let options = XPlainerOptions::default();
        for aggregate in [Aggregate::Sum, Aggregate::Count, Aggregate::Avg, Aggregate::Min, Aggregate::Max] {
            let query = WhyQuery::new("M", aggregate, s1.clone(), s2.clone()).unwrap();
            let ctx = SearchContext::build_with_cache(&store, &query, "Y", &options, Arc::clone(&cache));
            let Ok(ctx) = ctx else {
                // Δ(D) is undefined: one side holds no measure value.
                prop_assert_eq!(reference(aggregate, &|side| side.clone()), None);
                continue;
            };
            prop_assert_eq!(Some(ctx.delta_d().to_bits()), reference(aggregate, &|side| side.clone()));
            for clause in &clauses {
                let mask = clause_mask(clause);
                prop_assert_eq!(
                    ctx.delta_of(clause).map(f64::to_bits),
                    reference(aggregate, &|side| side.and(&mask)),
                    "{} Δ(D_P) for {:?}", aggregate, clause
                );
                prop_assert_eq!(
                    ctx.delta_without(clause).map(f64::to_bits),
                    reference(aggregate, &|side| side.minus(&mask)),
                    "{} Δ(D − D_P) for {:?}", aggregate, clause
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP framing under hostile bytes
// ---------------------------------------------------------------------------

/// Offset one past the first empty line (`\n` or `\r\n`) in `bytes`: the
/// end of a request head.
fn head_end(bytes: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            if matches!(&bytes[line_start..i], [] | [b'\r']) {
                return Some(i + 1);
            }
            line_start = i + 1;
        }
    }
    None
}

/// Feeds `stream` to a fresh parser in chunks whose lengths cycle through
/// `cuts`, framing every complete request after each feed.  Stops at the
/// first framing error, which is terminal for a connection.  After every
/// framing pass the bytes still buffered — the unconsumed tail of
/// `stream` — must fit the parser's bounds: at most one head at its bound
/// (with its blank-line terminator) followed by at most one body at its
/// bound.
fn frame_in_chunks(
    stream: &[u8],
    cuts: &[usize],
) -> Result<(Vec<Request>, Option<HttpError>), TestCaseError> {
    let mut parser = RequestParser::new();
    let mut framed = Vec::new();
    let (mut fed, mut cut) = (0, 0);
    while fed < stream.len() {
        let next = (fed + cuts[cut % cuts.len()]).min(stream.len());
        cut += 1;
        parser.feed(&stream[fed..next]);
        fed = next;
        loop {
            match parser.try_parse() {
                Ok(Some(request)) => framed.push(request),
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(
                        matches!(e, HttpError::Malformed(_) | HttpError::TooLarge(_)),
                        "framing error {e:?} is neither a 400 nor a 413/431"
                    );
                    return Ok((framed, Some(e)));
                }
            }
        }
        let waiting = &stream[fed - parser.buffered()..fed];
        let head_bound = MAX_HEAD_BYTES + 2;
        match head_end(waiting) {
            None => prop_assert!(
                waiting.len() <= head_bound,
                "{} bytes buffered without a complete head",
                waiting.len()
            ),
            Some(head) => prop_assert!(
                head <= head_bound && waiting.len() < head + MAX_BODY_BYTES,
                "{} bytes buffered behind a {head}-byte head",
                waiting.len()
            ),
        }
    }
    Ok((framed, None))
}

/// One fragment of a hostile byte stream: valid and broken request lines,
/// framing headers with sane, boundary, oversized and garbled lengths,
/// chunked transfer-encoding, bare and CRLF line ends, non-UTF-8 bytes,
/// arbitrary noise, and (a quarter of the draws) an unterminated header
/// run half a head bound long, so two in a row push a head past its bound.
fn hostile_fragment(pick: u8, noise: &[u8]) -> Vec<u8> {
    match pick {
        0 => b"GET /healthz HTTP/1.1\r\n".to_vec(),
        1 => b"POST /v2/explain HTTP/1.0\n".to_vec(),
        2 => b"Content-Length: 5\r\n".to_vec(),
        3 => format!("Content-Length: {MAX_BODY_BYTES}\r\n").into_bytes(),
        4 => format!("content-length: {}\r\n", MAX_BODY_BYTES + 1).into_bytes(),
        5 => b"Content-Length: 18446744073709551616\r\n".to_vec(),
        6 => b"Transfer-Encoding: chunked\r\n".to_vec(),
        7 => b"\r\n".to_vec(),
        8 => b"\n".to_vec(),
        9 => noise.to_vec(),
        10 => b"\xff\xfe\xc3(\r\n".to_vec(),
        11 => b"GET / HTTP/2.0\r\n".to_vec(),
        12 => b"5\r\nhello\r\n0\r\n\r\n".to_vec(),
        13 => b"no colon here\r\n".to_vec(),
        _ => {
            let mut pad = b"X-Pad: ".to_vec();
            pad.resize(MAX_HEAD_BYTES / 2, b'a');
            pad
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Arbitrary bytes and a soup of hostile HTTP fragments, fed in random
    // chunks, never panic the framer, only ever fail as a 400/413/431, and
    // never leave more buffered than one bounded head plus one bounded
    // body.
    #[test]
    fn request_parser_survives_hostile_bytes_within_bounds(
        noise in prop::collection::vec(any::<u8>(), 0..2048),
        picks in prop::collection::vec(0u8..19, 0..48),
        cuts in prop::collection::vec(1usize..1500, 1..16),
    ) {
        frame_in_chunks(&noise, &cuts)?;
        let soup: Vec<u8> = picks
            .iter()
            .flat_map(|&pick| hostile_fragment(pick, &noise[..noise.len().min(64)]))
            .collect();
        frame_in_chunks(&soup, &cuts)?;
    }

    // A valid pipelined stream of 1–4 requests, cut at random split points,
    // frames exactly the requests that feeding it whole frames — and those
    // are the requests that were sent.
    #[test]
    fn pipelined_requests_frame_the_same_at_any_split(
        seeds in prop::collection::vec(any::<u64>(), 1..5),
        payload in prop::collection::vec(any::<u8>(), 0..600),
        cuts in prop::collection::vec(1usize..64, 1..12),
    ) {
        let mut stream = Vec::new();
        let mut sent = Vec::new();
        let mut rest = &payload[..];
        for (k, &seed) in seeds.iter().enumerate() {
            let method = ["GET", "POST", "PUT"][(seed % 3) as usize];
            let path = format!("/p{}?k={k}", (seed >> 8) % 100);
            let eol = if seed & (1 << 16) == 0 { "\r\n" } else { "\n" };
            let (body, tail) = rest.split_at(((seed >> 20) as usize % 200).min(rest.len()));
            rest = tail;
            let length_name = if seed & (1 << 17) == 0 { "Content-Length" } else { "content-length" };
            stream.extend_from_slice(format!("{method} {path} HTTP/1.1{eol}X-Seq: {k}{eol}").as_bytes());
            if !body.is_empty() || seed & (1 << 18) == 0 {
                stream.extend_from_slice(format!("{length_name}: {}{eol}", body.len()).as_bytes());
            }
            stream.extend_from_slice(eol.as_bytes());
            stream.extend_from_slice(body);
            sent.push((method.to_owned(), path, body.to_vec()));
        }
        let (whole, error) = frame_in_chunks(&stream, &[stream.len()])?;
        prop_assert!(error.is_none(), "valid stream rejected: {error:?}");
        let (split, error) = frame_in_chunks(&stream, &cuts)?;
        prop_assert!(error.is_none(), "valid stream rejected when split: {error:?}");
        // Request has no PartialEq; its Debug form shows every field.
        prop_assert_eq!(format!("{split:?}"), format!("{whole:?}"));
        let framed: Vec<(String, String, Vec<u8>)> = whole
            .into_iter()
            .map(|r| (r.method, r.path, r.body))
            .collect();
        prop_assert_eq!(framed, sent);
    }
}

// ---------------------------------------------------------------------------
// JSON and wire decoders under hostile bytes
// ---------------------------------------------------------------------------

/// A valid `/v2/explain`, `/v2/ingest` and `/v2/explain_batch` body: the
/// seeds the mutation strategy corrupts.
fn valid_bodies() -> [String; 3] {
    let query = WhyQuery::new(
        "Delay",
        Aggregate::Avg,
        Subspace::of("Month", "May"),
        Subspace::of("Month", "June"),
    )
    .unwrap();
    let options = r#"{"top_k":3,"min_score":0.25,"types":["causal"],"deadline_ms":50}"#;
    let rows = r#"[{"Month":"May","Rain":"Yes","Delay":42.5},{"Month":"Ju\u00f1e","Rain":null,"Delay":-1e3}]"#;
    let q = query.to_json();
    [
        explain_v2_body("flight", &q, Some(options)),
        ingest_v2_body("flight", rows),
        format!("{{\"model\":\"flight\",\"queries\":[{q},{q}],\"options\":{options}}}"),
    ]
}

/// JSON fragments a mutation may splice in: unbalanced containers, broken
/// strings and escapes, lone surrogates, extreme numbers and literals.
const JSON_SHARDS: [&str; 12] = [
    "{", "[", "]", "}", "\"", "\\u", "\\ud800", "1e999", "-", "null", ",,", ":",
];

/// Applies byte edits to `body`.  Each edit packs an operation (low byte),
/// a byte value (next byte) and a position (the rest, modulo the current
/// length): overwrite, insert, delete, truncate, or splice in a
/// [`JSON_SHARDS`] fragment.
fn mutate(body: &[u8], edits: &[u64]) -> Vec<u8> {
    let mut out = body.to_vec();
    for &edit in edits {
        let (op, byte) = (edit as u8, (edit >> 8) as u8);
        let at = (edit >> 16) as usize % (out.len() + 1);
        match op % 5 {
            0 if at < out.len() => out[at] = byte,
            1 => out.insert(at, byte),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            4 => {
                let shard = JSON_SHARDS[usize::from(byte) % JSON_SHARDS.len()].as_bytes();
                out.splice(at..at, shard.iter().copied());
            }
            _ => {}
        }
    }
    out
}

/// Runs the JSON parser and the three v2 body decoders over `body`: none
/// may panic, and every rejection must be an error the server answers
/// `400`.
fn decoders_fail_cleanly(body: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(text) = std::str::from_utf8(body) {
        if let Err(e) = Json::parse(text) {
            prop_assert_eq!(status_for(&e), 400, "json: {}", e);
        }
    }
    let errors = [
        ExplainV2::parse(body).err(),
        ExplainBatchV2::parse(body).err(),
        IngestV2::parse(body).err(),
    ];
    for e in errors.into_iter().flatten() {
        prop_assert_eq!(status_for(&e), 400, "wire: {}", e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Arbitrary bytes and corrupted valid bodies never panic a decoder,
    // and every failure is a `400`.
    #[test]
    fn json_and_wire_decoders_reject_hostile_bytes_as_400(
        noise in prop::collection::vec(any::<u8>(), 0..512),
        edits in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        decoders_fail_cleanly(&noise)?;
        for body in valid_bodies() {
            decoders_fail_cleanly(&mutate(body.as_bytes(), &edits))?;
        }
    }

    // Nesting up to `MAX_PARSE_DEPTH` parses; one level deeper is a `400`,
    // also inside a wire body (where the document itself adds a level).
    #[test]
    fn nesting_past_the_depth_bound_is_rejected(
        depth in 1usize..4 * MAX_PARSE_DEPTH,
        objects in any::<bool>(),
    ) {
        let (open, close) = if objects { ("{\"a\":", "}") } else { ("[", "]") };
        let nested = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        match Json::parse(&nested) {
            Ok(_) => prop_assert!(depth <= MAX_PARSE_DEPTH),
            Err(e) => {
                prop_assert!(depth > MAX_PARSE_DEPTH, "depth {}: {}", depth, e);
                prop_assert_eq!(status_for(&e), 400);
            }
        }
        let explain = format!("{{\"model\":\"m\",\"query\":{nested}}}");
        let batch = format!("{{\"model\":\"m\",\"queries\":[{nested}]}}");
        let ingest = format!("{{\"model\":\"m\",\"rows\":[{{\"x\":{nested}}}]}}");
        let errors = [
            (ExplainV2::parse(explain.as_bytes()).err(), depth + 1),
            (ExplainBatchV2::parse(batch.as_bytes()).err(), depth + 2),
            (IngestV2::parse(ingest.as_bytes()).err(), depth + 3),
        ];
        for (error, total_depth) in errors {
            let e = error.expect("a container is never a valid query or cell");
            prop_assert_eq!(status_for(&e), 400);
            let too_deep = e.to_string().contains("nesting deeper");
            prop_assert_eq!(too_deep, total_depth > MAX_PARSE_DEPTH, "{}", e);
        }
    }
}

#[test]
fn the_mutation_seeds_are_valid_bodies() {
    let [explain, ingest, batch] = valid_bodies();
    assert!(ExplainV2::parse(explain.as_bytes()).is_ok());
    assert_eq!(IngestV2::parse(ingest.as_bytes()).unwrap().rows.len(), 2);
    assert_eq!(
        ExplainBatchV2::parse(batch.as_bytes())
            .unwrap()
            .queries
            .len(),
        2
    );
}

// ---------------------------------------------------------------------------
// Deterministic cross-checks (not property-based but cross-crate)
// ---------------------------------------------------------------------------

#[test]
fn m_separation_on_converted_dag_matches_d_separation() {
    let mut dag = Dag::new(["A", "B", "C", "D"]);
    dag.add_edge(0, 1);
    dag.add_edge(1, 2);
    dag.add_edge(3, 2);
    let graph: MixedGraph = dag.to_mixed_graph();
    for x in 0..4usize {
        for y in 0..4usize {
            if x == y {
                continue;
            }
            for z in 0..4usize {
                if z == x || z == y {
                    continue;
                }
                assert_eq!(
                    dag.d_separated(x, y, &[z]),
                    separation::m_separated(&graph, x, y, &[z]),
                    "mismatch at ({x},{y}|{z})"
                );
            }
        }
    }
}

#[test]
fn filters_and_subspaces_compose() {
    let data = DatasetBuilder::new()
        .dimension("A", ["x", "x", "y", "y"])
        .dimension("B", ["1", "2", "1", "2"])
        .build()
        .unwrap();
    let s = Subspace::new([Filter::equals("A", "x"), Filter::equals("B", "2")]).unwrap();
    assert_eq!(
        s.mask(&data).unwrap().iter_selected().collect::<Vec<_>>(),
        vec![1]
    );
}
