//! Table 8: XPlainer vs Scorpion / RSExplain / BOExplain under varying data
//! sizes and cardinalities, for SUM and AVG.
//!
//! Paper shape: XPlainer keeps F1 = 1.0 everywhere and is one to two orders
//! of magnitude faster; Scorpion and RSExplain become infeasible (N/A) once
//! the cardinality exceeds ~30; BOExplain's accuracy collapses with
//! cardinality while its runtime stays roughly flat.
//!
//! Divergence: Scorpion's exhaustive search is capped at 16 filters, so it
//! prints N/A from cardinality 20, not beyond ~30.  Each of its `2^m`
//! subsets rescans the rows, and at 20k rows a search at cardinality 20
//! would take minutes per aggregate.  RSExplain is capped at 24 filters and
//! prints N/A from cardinality 30.

use xinsight_baselines::{BoExplain, RsExplain, Scorpion};
use xinsight_bench::{print_header, print_row, run_baseline, run_xplainer, EngineRun};
use xinsight_data::Aggregate;
use xinsight_synth::syn_b::{generate, SynBOptions};

fn run_all(options: &SynBOptions, aggregate: Aggregate) -> Vec<EngineRun> {
    let instance = generate(options);
    let query = instance.query(aggregate);
    let mut runs = vec![run_xplainer(
        &instance.data,
        &query,
        &instance.ground_truth,
        aggregate,
    )];
    runs.push(run_baseline(
        &Scorpion::default(),
        "Scorpion",
        &instance.data,
        &query,
        &instance.ground_truth,
    ));
    runs.push(run_baseline(
        &RsExplain::default(),
        "RSExplain",
        &instance.data,
        &query,
        &instance.ground_truth,
    ));
    runs.push(run_baseline(
        &BoExplain::default(),
        "BOExplain",
        &instance.data,
        &query,
        &instance.ground_truth,
    ));
    runs
}

fn print_block(title: &str, configs: &[(String, SynBOptions)], aggregate: Aggregate) {
    println!("\n## {title} ({aggregate:?})");
    let mut header = vec!["Engine", "Metric"];
    header.extend(configs.iter().map(|(n, _)| n.as_str()));
    print_header(&header);
    let all: Vec<Vec<EngineRun>> = configs.iter().map(|(_, o)| run_all(o, aggregate)).collect();
    for engine_idx in 0..4 {
        let name = all[0][engine_idx].engine;
        let f1_cells: Vec<String> = all.iter().map(|runs| runs[engine_idx].f1_cell()).collect();
        let time_cells: Vec<String> = all
            .iter()
            .map(|runs| {
                if runs[engine_idx].f1.is_none() {
                    "N/A".to_owned()
                } else {
                    format!("{:.3}", runs[engine_idx].seconds)
                }
            })
            .collect();
        print_row(&[name.to_owned(), "F1".to_owned(), f1_cells.join(" | ")]);
        print_row(&[
            name.to_owned(),
            "Time (s)".to_owned(),
            time_cells.join(" | "),
        ]);
    }
}

fn main() {
    // Same pool policy as the engine: XINSIGHT_THREADS pins the worker
    // count, otherwise rayon's defaults apply (see README "Parallelism").
    let threads = xinsight_core::parallel::configure_pool_from_env();
    eprintln!("# worker threads: {threads}");
    let full = xinsight_bench::full_scale();
    println!("# Table 8 reproduction: scalability of XPlainer vs baselines on SYN-B");

    // --- Sweep over #rows at cardinality 10. ---
    let row_counts: Vec<usize> = if full {
        vec![10_000, 20_000, 50_000, 100_000, 500_000, 1_000_000]
    } else {
        vec![10_000, 20_000, 50_000]
    };
    let row_configs: Vec<(String, SynBOptions)> = row_counts
        .iter()
        .map(|&n| {
            (
                format!("{}K", n / 1000),
                SynBOptions {
                    n_rows: n,
                    cardinality: 10,
                    seed: 1,
                    ..SynBOptions::default()
                },
            )
        })
        .collect();
    print_block(
        "Varying #rows (cardinality = 10)",
        &row_configs,
        Aggregate::Sum,
    );
    print_block(
        "Varying #rows (cardinality = 10)",
        &row_configs,
        Aggregate::Avg,
    );

    // --- Sweep over cardinality at a fixed row count. ---
    let base_rows = if full { 100_000 } else { 20_000 };
    let cards: Vec<usize> = vec![10, 15, 20, 30, 50, 100];
    let card_configs: Vec<(String, SynBOptions)> = cards
        .iter()
        .map(|&c| {
            (
                format!("card {c}"),
                SynBOptions {
                    n_rows: base_rows,
                    cardinality: c,
                    seed: 1,
                    ..SynBOptions::default()
                },
            )
        })
        .collect();
    print_block(
        &format!("Varying cardinality (#rows = {base_rows})"),
        &card_configs,
        Aggregate::Sum,
    );
    print_block(
        &format!("Varying cardinality (#rows = {base_rows})"),
        &card_configs,
        Aggregate::Avg,
    );

    println!();
    println!("# paper shape: XPlainer F1 = 1.0 throughout and the lowest runtime;");
    println!("# Scorpion/RSExplain go N/A beyond cardinality 30 (search-space blow-up);");
    println!("# BOExplain stays cheap but its F1 collapses as cardinality grows.");
    println!("# divergence: Scorpion is capped at 16 filters and prints N/A from cardinality 20,");
    println!("# RSExplain at 24 filters and prints N/A from cardinality 30.");
}
