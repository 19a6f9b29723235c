//! Table 9: sensitivity of the explanation engines to the magnitude of the
//! planted difference (μ* − μ) on SYN-B.
//!
//! Paper shape: XPlainer stays at (or near) F1 = 1.0 down to the smallest gap,
//! degrading at most slightly at μ* − μ = 5 for SUM; RSExplain is flat but
//! imperfect; Scorpion and BOExplain lose accuracy on the small-gap settings.

use xinsight_baselines::{BoExplain, RsExplain, Scorpion};
use xinsight_bench::{print_header, print_row, run_baseline, run_xplainer};
use xinsight_data::Aggregate;
use xinsight_synth::syn_b::{generate, SynBOptions};

fn main() {
    // Same pool policy as the engine: XINSIGHT_THREADS pins the worker
    // count, otherwise rayon's defaults apply (see README "Parallelism").
    let threads = xinsight_core::parallel::configure_pool_from_env();
    eprintln!("# worker threads: {threads}");
    let full = xinsight_bench::full_scale();
    let gaps: Vec<f64> = vec![5.0, 10.0, 15.0, 30.0, 50.0, 100.0];
    let n_rows = if full { 100_000 } else { 20_000 };
    println!("# Table 9 reproduction: F1 under varying μ* − μ (rows = {n_rows})");

    for aggregate in [Aggregate::Sum, Aggregate::Avg] {
        println!("\n## {aggregate:?}");
        let gap_cells: Vec<String> = gaps.iter().map(|g| format!("{g}")).collect();
        let mut header = vec!["Engine"];
        header.extend(gap_cells.iter().map(String::as_str));
        print_header(&header);
        let mut rows: Vec<(String, Vec<String>)> = vec![
            ("XPlainer".into(), Vec::new()),
            ("Scorpion".into(), Vec::new()),
            ("RSExplain".into(), Vec::new()),
            ("BOExplain".into(), Vec::new()),
        ];
        for &gap in &gaps {
            let options = SynBOptions {
                n_rows,
                cardinality: 10,
                mu_normal: 10.0,
                mu_abnormal: 10.0 + gap,
                seed: 1,
                ..SynBOptions::default()
            };
            let instance = generate(&options);
            let query = instance.query(aggregate);
            let x = run_xplainer(&instance.data, &query, &instance.ground_truth, aggregate);
            let s = run_baseline(
                &Scorpion::default(),
                "Scorpion",
                &instance.data,
                &query,
                &instance.ground_truth,
            );
            let r = run_baseline(
                &RsExplain::default(),
                "RSExplain",
                &instance.data,
                &query,
                &instance.ground_truth,
            );
            let b = run_baseline(
                &BoExplain::default(),
                "BOExplain",
                &instance.data,
                &query,
                &instance.ground_truth,
            );
            for (row, run) in rows.iter_mut().zip([x, s, r, b]) {
                row.1.push(run.f1_cell());
            }
        }
        for (name, cells) in &rows {
            print_row(&[name.clone(), cells.join(" | ")]);
        }
    }
    println!();
    println!("# paper shape: XPlainer ≥ every baseline at every gap; the hardest");
    println!("# setting is μ* − μ = 5, where the baselines drop furthest.");
}
