//! Tables 5 and 7: the user study on the WEB dataset.
//!
//! Paper reference: Table 5 — eight explanations scored by six experts, mean
//! scores mostly ≥ 4 (overall ≈ 4.0/5); Table 7 — eight causal claims, 83.3 %
//! of the 48 responses "Reasonable", 6.3 % "Not Reasonable".
//!
//! Both tables are a human study, not reproducible: the WEB dataset is
//! proprietary and its experts cannot be re-recruited.  This binary instead
//! measures what can be checked against the simulated WEB generator's
//! ground truth (`xinsight_synth::web`), on the same two kinds of output the
//! experts judged:
//!
//! * Table 5 — the causal / non-causal label of each of the top-2
//!   explanations of four Why Queries: precision and recall of each label
//!   against whether the attribute truly causes blocking;
//! * Table 7 — the claims "`X` is causally related to blocking", one per
//!   graph neighbour of the label: their precision against the behaviours
//!   that cause blocking or are its consequences.

use xinsight_core::pipeline::{XInsight, XInsightOptions};
use xinsight_core::{ExplainRequest, ExplanationType, WhyQuery};
use xinsight_data::{Aggregate, DatasetBuilder, Subspace};
use xinsight_synth::web;

/// `hits / total` as a percentage, or `n/a` for an empty denominator.
fn percent(hits: usize, total: usize) -> String {
    if total == 0 {
        "n/a".to_owned()
    } else {
        format!(
            "{:.1}% ({hits}/{total})",
            100.0 * hits as f64 / total as f64
        )
    }
}

fn main() {
    // Same pool policy as the engine: XINSIGHT_THREADS pins the worker
    // count, otherwise rayon's defaults apply (see README "Parallelism").
    let threads = xinsight_core::parallel::configure_pool_from_env();
    eprintln!("# worker threads: {threads}");
    let full = xinsight_bench::full_scale();
    let n_rows = if full { 5000 } else { 764 };
    println!("# Tables 5 & 7 (human study, not reproducible): agreement with the");
    println!("# simulated WEB dataset's ground truth\n");

    let instance = web::generate(n_rows, 1);
    // Rebuild the dataset with a numeric copy of the label so AVG Why Queries apply.
    let blocked_col: Vec<f64> = (0..instance.data.n_rows())
        .map(|i| match instance.data.value(i, "IsBlocked").unwrap() {
            xinsight_data::Value::Category(ref s) if s == "Yes" => 1.0,
            _ => 0.0,
        })
        .collect();
    let mut builder = DatasetBuilder::new();
    for name in instance.data.schema().dimension_names() {
        if name == "IsBlocked" {
            continue;
        }
        builder = builder.dimension_column(name, instance.data.dimension(name).unwrap().clone());
    }
    let data = builder.measure("BlockedRate", blocked_col).build().unwrap();

    let engine = XInsight::fit(&data, &XInsightOptions::default()).expect("fit WEB");

    // ---- Table 5: labels of the top-2 explanations of four Why Queries. ----
    // Per explanation: (claimed causal, truly causal).
    let mut labels = Vec::new();
    println!("## Table 5: explanation labels (top-2 explanations per query)");
    for fg in ["B00", "B03", "B05", "B10"] {
        let query = WhyQuery::new(
            "BlockedRate",
            Aggregate::Avg,
            Subspace::of(fg, "1"),
            Subspace::of(fg, "0"),
        )
        .unwrap();
        // Skip degenerate queries (no difference).
        if query.delta(&data).map(|d| d.abs() < 1e-9).unwrap_or(true) {
            continue;
        }
        let explanations = engine
            .execute(&ExplainRequest::builder(query).top_k(2).build())
            .map(|response| response.into_explanations())
            .unwrap_or_default();
        for e in &explanations {
            let truly_causal = instance.causal_behaviors.iter().any(|b| b == e.attribute());
            let claimed_causal = e.explanation_type == ExplanationType::Causal;
            let truth = if truly_causal { "causal" } else { "non-causal" };
            println!("{fg}: {e}   (truth: {truth})");
            labels.push((claimed_causal, truly_causal));
        }
    }
    let count = |claimed: bool, truth: Option<bool>| {
        labels
            .iter()
            .filter(|&&(c, t)| c == claimed && truth.is_none_or(|truth| t == truth))
            .count()
    };
    let truly = |truth: bool| labels.iter().filter(|&&(_, t)| t == truth).count();
    for (name, causal) in [("causal", true), ("non-causal", false)] {
        let hits = count(causal, Some(causal));
        println!(
            "{name} label: precision {}, recall {}",
            percent(hits, count(causal, None)),
            percent(hits, truly(causal))
        );
    }

    // ---- Table 7: "X is causally related to blocking" claims. ----
    let graph = engine.graph();
    let mut correct = 0usize;
    let mut claims = 0usize;
    println!("\n## Table 7: causal claims (graph neighbours of the label)");
    if let Some(label) = graph.id("BlockedRate") {
        for n in graph.neighbors(label) {
            let name = graph.name(n);
            let related = instance.causal_behaviors.iter().any(|b| b == name)
                || instance.consequence_behaviors.iter().any(|b| b == name);
            let verdict = if related { "true" } else { "false" };
            println!("`{name}` is causally related to blocking: {verdict}");
            claims += 1;
            correct += usize::from(related);
        }
    }
    println!("claim precision: {}", percent(correct, claims));
}
