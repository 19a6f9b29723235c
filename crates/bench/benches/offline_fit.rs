//! Offline-phase benchmarks: the `XInsight::fit` / FCI data path.
//!
//! Compares the seed engine's per-test string-resolution path against the
//! compiled `DiscoveryView` path, with and without the index-keyed CI cache
//! and the depth-parallel batch evaluation, plus the full `XInsight::fit`,
//! the load-a-fitted-model serving path and the CSV codec that a fit starts
//! from and a bundle is saved to.
//!
//! Runs as a plain binary (`harness = false`) with its own timing loop so it
//! can emit a machine-readable `BENCH_offline.json` summary at the workspace
//! root — the perf-trajectory artifact tracked across PRs.  Set
//! `XINSIGHT_BENCH_FAST=1` to cap sampling for smoke tests.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;
use xinsight_core::pipeline::{XInsight, XInsightOptions};
use xinsight_data::{read_csv_str, write_csv_string, CsvOptions, Dataset, DatasetBuilder, Result};
use xinsight_graph::{Mark, MixedGraph};
use xinsight_stats::{CachedCiTest, ChiSquareTest, CiOutcome, CiTest};
use xinsight_synth::{lung_cancer, syn_a};

/// Chi-square behind the *default* (name-bridging) compile path: every CI
/// query re-resolves its column names, replicating the seed engine's
/// behaviour for an apples-to-apples baseline.
struct SeedPathChiSquare(ChiSquareTest);

impl CiTest for SeedPathChiSquare {
    fn test(&self, data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<CiOutcome> {
        self.0.test(data, x, y, z)
    }

    fn name(&self) -> &'static str {
        "chi-square-seed-path"
    }
    // No `compile` override: the trait's name-bridge fallback is the point.
}

/// The pre-CSR graph representation: name-keyed nested ordered maps, one
/// `(near, far)` mark pair per directed adjacency entry.  Rebuilt here so
/// the `graph/*` cells measure the representation swap on identical
/// topologies.
struct OldGraph {
    nodes: Vec<String>,
    adj: BTreeMap<String, BTreeMap<String, (Mark, Mark)>>,
}

impl OldGraph {
    fn adjacent(&self, a: &str, b: &str) -> bool {
        self.adj.get(a).is_some_and(|m| m.contains_key(b))
    }

    fn mark_at(&self, at: &str, other: &str) -> Option<Mark> {
        self.adj
            .get(at)
            .and_then(|m| m.get(other))
            .map(|&(near, _)| near)
    }

    fn is_collider(&self, prev: &str, cur: &str, next: &str) -> bool {
        self.mark_at(cur, prev) == Some(Mark::Arrow) && self.mark_at(cur, next) == Some(Mark::Arrow)
    }
}

/// `possible_d_sep` as the seed-semantics path computed it: `String` keys,
/// set-based visited/membership probes, a clone per traversal state.
fn possible_d_sep_old(g: &OldGraph, x: &str) -> Vec<String> {
    let mut reached: Vec<String> = Vec::new();
    let mut in_reached: BTreeSet<String> = BTreeSet::new();
    let mut visited: BTreeSet<(String, String)> = BTreeSet::new();
    let mut queue: Vec<(String, String)> = Vec::new();
    if let Some(neighbors) = g.adj.get(x) {
        for nb in neighbors.keys() {
            visited.insert((x.to_owned(), nb.clone()));
            queue.push((x.to_owned(), nb.clone()));
            if in_reached.insert(nb.clone()) {
                reached.push(nb.clone());
            }
        }
    }
    while let Some((prev, cur)) = queue.pop() {
        let Some(neighbors) = g.adj.get(&cur) else {
            continue;
        };
        for next in neighbors.keys() {
            if *next == prev || *next == x {
                continue;
            }
            let collider = g.is_collider(&prev, &cur, next);
            let triangle = g.adjacent(&prev, next);
            if !(collider || triangle) {
                continue;
            }
            if visited.insert((cur.clone(), next.clone())) {
                queue.push((cur.clone(), next.clone()));
                if in_reached.insert(next.clone()) {
                    reached.push(next.clone());
                }
            }
        }
    }
    reached
}

/// One deterministic ~60-node PAG-shaped topology, built in both
/// representations.  Edges and marks come from a splitmix-style hash so
/// every run (and both models) sees the same graph.
fn bench_graphs(n: usize) -> (MixedGraph, OldGraph) {
    let mix = |a: usize, b: usize| -> u64 {
        let mut z = (a as u64) << 32 | b as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mark_of = |v: u64| match v % 3 {
        0 => Mark::Tail,
        1 => Mark::Arrow,
        _ => Mark::Circle,
    };
    let names: Vec<String> = (0..n).map(|i| format!("Var{i:02}")).collect();
    let mut graph = MixedGraph::new(names.clone());
    let mut adj: BTreeMap<String, BTreeMap<String, (Mark, Mark)>> = BTreeMap::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let h = mix(i, j);
            if h % 8 != 0 {
                continue;
            }
            let (near_i, near_j) = (mark_of(h >> 8), mark_of(h >> 16));
            graph.add_edge(i, j, near_i, near_j);
            adj.entry(names[i].clone())
                .or_default()
                .insert(names[j].clone(), (near_i, near_j));
            adj.entry(names[j].clone())
                .or_default()
                .insert(names[i].clone(), (near_j, near_i));
        }
    }
    (graph, OldGraph { nodes: names, adj })
}

struct Sample {
    name: &'static str,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
    samples: usize,
}

fn time(name: &'static str, samples: usize, mut routine: impl FnMut()) -> Sample {
    routine(); // warmup + lazy init
    let mut results: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_nanos()
        })
        .collect();
    results.sort_unstable();
    let sample = Sample {
        name,
        median_ns: results[results.len() / 2],
        min_ns: results[0],
        max_ns: results[results.len() - 1],
        samples,
    };
    println!(
        "{:<42} median: {:>10.3} ms  [{:.3} .. {:.3} ms]  ({} samples)",
        sample.name,
        sample.median_ns as f64 / 1e6,
        sample.min_ns as f64 / 1e6,
        sample.max_ns as f64 / 1e6,
        sample.samples,
    );
    sample
}

fn main() {
    let threads = xinsight_core::parallel::configure_pool_from_env();
    let fast = std::env::var("XINSIGHT_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let samples = if fast { 2 } else { 5 };
    eprintln!("# worker threads: {threads}");
    println!("\n## offline_fit");

    let instance = syn_a::generate(&syn_a::SynAOptions {
        n_core_variables: 10,
        n_rows: 1000,
        seed: 1,
        ..syn_a::SynAOptions::default()
    });
    let vars: Vec<&str> = instance.observed.iter().map(String::as_str).collect();
    let fci_opts = |parallel: bool| xinsight_discovery::FciOptions {
        max_cond_size: Some(3),
        parallel,
    };

    let mut results = Vec::new();
    results.push(time("fci/seed_string_path", samples, || {
        let test = SeedPathChiSquare(ChiSquareTest::new(0.05));
        xinsight_discovery::fci(&instance.data, &vars, &test, &fci_opts(false)).unwrap();
    }));
    results.push(time("fci/discovery_view", samples, || {
        let test = ChiSquareTest::new(0.05);
        xinsight_discovery::fci(&instance.data, &vars, &test, &fci_opts(false)).unwrap();
    }));
    results.push(time("fci/discovery_view_cached", samples, || {
        let test = CachedCiTest::new(ChiSquareTest::new(0.05));
        xinsight_discovery::fci(&instance.data, &vars, &test, &fci_opts(false)).unwrap();
    }));
    results.push(time("fci/discovery_view_cached_parallel", samples, || {
        let test = CachedCiTest::new(ChiSquareTest::new(0.05));
        xinsight_discovery::fci(&instance.data, &vars, &test, &fci_opts(true)).unwrap();
    }));

    let cancer = lung_cancer::generate(2000, 1);
    results.push(time("fit/xinsight_full", samples, || {
        XInsight::fit(&cancer, &XInsightOptions::default()).unwrap();
    }));
    let model = XInsight::fit(&cancer, &XInsightOptions::default())
        .unwrap()
        .fitted_model();
    let json = model.to_json();
    results.push(time("fit/from_fitted_model", samples, || {
        let model = xinsight_core::FittedModel::from_json(&json).unwrap();
        XInsight::from_fitted(&cancer, model, &XInsightOptions::default()).unwrap();
    }));

    // CSV codec cells on the benchmark's fit_offline shape: SYN-A with 32
    // core variables and their FD columns × 20k rows, plus one measure
    // derived from the first core variable.
    let syn = syn_a::generate(&syn_a::SynAOptions {
        n_core_variables: 32,
        n_rows: 20_000,
        seed: 1,
        ..syn_a::SynAOptions::default()
    })
    .data;
    let parent = syn.dimension("V0").unwrap();
    let mut table = DatasetBuilder::new();
    for name in syn.schema().dimension_names() {
        table = table.dimension_column(name, syn.dimension(name).unwrap().clone());
    }
    let table = table
        .measure(
            "M",
            (0..syn.n_rows()).map(|row| 10.0 * parent.code(row) as f64 + (row % 97) as f64 / 29.0),
        )
        .build()
        .unwrap();
    let csv = write_csv_string(&table, &CsvOptions::default());
    results.push(time("csv/read_syn_a_32x20k", samples, || {
        black_box(read_csv_str(&csv, &CsvOptions::default()).unwrap());
    }));
    results.push(time("csv/write_syn_a_32x20k", samples, || {
        black_box(write_csv_string(&table, &CsvOptions::default()));
    }));

    // Graph-representation cells: neighbor walks and the Possible-D-SEP
    // sweep over identical ~60-node topologies, old name-keyed maps vs the
    // dense CSR core.  Inner repeats lift sub-microsecond walks into a
    // stable timing range.
    let (csr, old) = bench_graphs(60);
    let walk_reps = if fast { 20 } else { 200 };
    results.push(time("graph/neighbor_walk_btreemap", samples, || {
        let mut acc = 0usize;
        for _ in 0..walk_reps {
            for name in &old.nodes {
                if let Some(neighbors) = old.adj.get(name) {
                    for (nb, &(near, _)) in neighbors {
                        acc += nb.len() + near as usize;
                    }
                }
            }
        }
        black_box(acc);
    }));
    results.push(time("graph/neighbor_walk_csr", samples, || {
        let mut acc = 0usize;
        for _ in 0..walk_reps {
            for a in 0..csr.n_nodes() {
                for i in 0..csr.degree(a) {
                    let (nb, near, _) = csr.entry_at(a, i);
                    acc += nb + near as usize;
                }
            }
        }
        black_box(acc);
    }));
    let pds_reps = if fast { 2 } else { 10 };
    results.push(time("graph/possible_d_sep_btreemap", samples, || {
        let mut acc = 0usize;
        for _ in 0..pds_reps {
            for name in &old.nodes {
                acc += possible_d_sep_old(&old, name).len();
            }
        }
        black_box(acc);
    }));
    results.push(time("graph/possible_d_sep_csr", samples, || {
        let mut acc = 0usize;
        for _ in 0..pds_reps {
            for x in 0..csr.n_nodes() {
                acc += xinsight_discovery::possible_d_sep(&csr, x).len();
            }
        }
        black_box(acc);
    }));

    // Machine-readable summary for the perf trajectory across PRs.
    let mut out = String::from("{\"bench\":\"offline_fit\",\"threads\":");
    out.push_str(&threads.to_string());
    out.push_str(",\"results\":[");
    for (i, s) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"samples\":{}}}",
            s.name, s.median_ns, s.min_ns, s.max_ns, s.samples
        ));
    }
    out.push_str("]}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_offline.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote summary to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let seed = results[0].median_ns as f64;
    let view = results[1].median_ns as f64;
    let cached = results[2].median_ns as f64;
    println!(
        "\nspeedup vs seed path: view {:.2}x, view+cache {:.2}x",
        seed / view.max(1.0),
        seed / cached.max(1.0),
    );
    let by_name = |name: &str| {
        results
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.median_ns as f64)
    };
    println!(
        "graph CSR vs name-keyed maps: neighbor walk {:.2}x, Possible-D-SEP {:.2}x",
        by_name("graph/neighbor_walk_btreemap") / by_name("graph/neighbor_walk_csr").max(1.0),
        by_name("graph/possible_d_sep_btreemap") / by_name("graph/possible_d_sep_csr").max(1.0),
    );
}
