//! Sec. 4.4 "Tightness of Approximation": the responsibility approximation of
//! the SUM/AVG optimizations compared against the exact brute-force search.
//!
//! Paper reference: SUM approximation error ≈ 0.007 with a ≈ 253× speedup;
//! AVG error ≈ 0.066 with a ≈ 27× speedup.  The expected shape: both errors
//! small (AVG the larger of the two), both speedups large (SUM the larger of
//! the two).
//!
//! The error column averages only over seeds where both strategies find a
//! predicate, so it cannot show that they pick different ones.  The
//! disagreement column counts the seeds where the two predicates differ,
//! including seeds where only one strategy finds anything.

use xinsight_bench::{mean_std, print_header, print_row, timed};
use xinsight_core::{SearchStrategy, XPlainer, XPlainerOptions};
use xinsight_data::Aggregate;
use xinsight_synth::syn_b::{generate, SynBOptions};

fn main() {
    // Same pool policy as the engine: XINSIGHT_THREADS pins the worker
    // count, otherwise rayon's defaults apply (see README "Parallelism").
    let threads = xinsight_core::parallel::configure_pool_from_env();
    eprintln!("# worker threads: {threads}");
    let full = xinsight_bench::full_scale();
    let n_rows = if full { 50_000 } else { 10_000 };
    // Brute force is exponential in the cardinality, so the comparison uses
    // the paper's default cardinality of 10.
    let seeds = [1u64, 2, 3];
    println!("# Approximation tightness (Sec. 4.4): optimized vs brute-force search");
    print_header(&[
        "Aggregate",
        "mean |ρ̂ − ρ|/ρ",
        "mean speedup (×)",
        "predicate disagreements",
    ]);

    for aggregate in [Aggregate::Sum, Aggregate::Avg] {
        let mut errors = Vec::new();
        let mut speedups = Vec::new();
        let mut disagreements = 0usize;
        for &seed in &seeds {
            let instance = generate(&SynBOptions {
                n_rows,
                cardinality: 10,
                seed,
                ..SynBOptions::default()
            });
            let query = instance.query(aggregate);
            let store = instance.data.clone().into_segmented();
            let xplainer = XPlainer::new(XPlainerOptions::default());
            let (approx, t_approx) = timed(|| {
                xplainer
                    .explain_attribute(&store, &query, "Y", SearchStrategy::Optimized, true)
                    .unwrap()
            });
            let (exact, t_exact) = timed(|| {
                xplainer
                    .explain_attribute(&store, &query, "Y", SearchStrategy::BruteForce, true)
                    .unwrap()
            });
            if approx.as_ref().map(|a| &a.predicate) != exact.as_ref().map(|e| &e.predicate) {
                disagreements += 1;
            }
            if let (Some(a), Some(e)) = (approx, exact) {
                if e.responsibility > 0.0 {
                    errors.push((a.responsibility - e.responsibility).abs() / e.responsibility);
                }
                if t_approx > 0.0 {
                    speedups.push(t_exact / t_approx);
                }
            }
        }
        let (err, _) = mean_std(&errors);
        let (speed, _) = mean_std(&speedups);
        print_row(&[
            format!("{aggregate:?}"),
            format!("{err:.3}"),
            format!("{speed:.1}"),
            format!("{disagreements}/{}", seeds.len()),
        ]);
    }
    println!();
    println!("# paper: SUM error 0.007, 253× faster; AVG error 0.066, 27× faster.");
    println!("# shape: both errors ≪ 1, SUM speedup > AVG speedup.");
}
