//! Tables 5 and 7: the user study on the WEB dataset, reproduced with the
//! simulated production dataset and the simulated expert panel.
//!
//! Paper reference: Table 5 — eight explanations scored by six experts, mean
//! scores mostly ≥ 4 (overall ≈ 4.0/5); Table 7 — eight causal claims, 83.3 %
//! of the 48 responses "Reasonable", 6.3 % "Not Reasonable".
//!
//! The quantity being reproduced is the *agreement between XInsight's output
//! and the (here: generated) ground truth*, scored by a noise-calibrated
//! panel; the module docs of `xinsight_synth::expert_panel` give the
//! substitution rationale.

use xinsight_core::pipeline::{XInsight, XInsightOptions};
use xinsight_core::{ExplainRequest, WhyQuery};
use xinsight_data::{Aggregate, DatasetBuilder, Subspace};
use xinsight_synth::expert_panel::ExpertPanel;
use xinsight_synth::web;

fn main() {
    // Same pool policy as the engine: XINSIGHT_THREADS pins the worker
    // count, otherwise rayon's defaults apply (see README "Parallelism").
    let threads = xinsight_core::parallel::configure_pool_from_env();
    eprintln!("# worker threads: {threads}");
    let full = xinsight_bench::full_scale();
    let n_rows = if full { 5000 } else { 764 };
    println!("# Tables 5 & 7 reproduction: simulated WEB dataset + simulated expert panel\n");

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

    // ---- Explanation assessment (Table 5): four Why Queries, two explanations each. ----
    let foregrounds = ["B00", "B03", "B05", "B10"];
    let mut explanation_correct = Vec::new();
    let mut described = Vec::new();
    for fg in foregrounds {
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
        // Per-request top-k: only the two best explanations are judged.
        let explanations = engine
            .execute(&ExplainRequest::builder(query).top_k(2).build())
            .map(|response| response.into_explanations())
            .unwrap_or_default();
        for e in explanations.iter() {
            let is_causal_truth = instance.causal_behaviors.iter().any(|b| b == e.attribute());
            let claimed_causal = e.explanation_type == xinsight_core::ExplanationType::Causal;
            // An explanation is "correct" for the panel when its causal claim
            // matches the generating mechanism.
            explanation_correct.push(is_causal_truth == claimed_causal || is_causal_truth);
            described.push(format!("{fg}: {e}"));
        }
    }
    let panel = ExpertPanel::new(42);
    let sheet = panel.score_explanations(&explanation_correct);
    let means = ExpertPanel::mean_scores(&sheet);
    println!(
        "## Table 5: explanation assessment ({} explanations, 6 experts)",
        means.len()
    );
    for (i, (desc, mean)) in described.iter().zip(&means).enumerate() {
        println!("E{}  mean score {:.2}   {desc}", i + 1, mean);
    }
    let overall = means.iter().sum::<f64>() / means.len().max(1) as f64;
    println!("overall mean = {overall:.2}   (paper: ≈ 4.0/5)\n");

    // ---- Causal claim assessment (Table 7): edges adjacent to the label. ----
    let graph = engine.graph();
    let label = graph.id("BlockedRate");
    let mut claims = Vec::new();
    let mut claim_correct = Vec::new();
    if let Some(label) = label {
        for n in graph.neighbors(label).into_iter().take(8) {
            let name = graph.name(n).to_owned();
            let truly_causal = instance.causal_behaviors.contains(&name)
                || instance.consequence_behaviors.contains(&name);
            claims.push(format!("`{name}` is causally related to blocking"));
            claim_correct.push(truly_causal);
        }
    }
    let verdicts = panel.judge_claims(&claim_correct);
    let tally = ExpertPanel::tally_claims(&verdicts);
    println!(
        "## Table 7: causal claim assessment ({} claims, 6 experts)",
        claims.len()
    );
    let mut reasonable = 0usize;
    let mut unsure = 0usize;
    let mut unreasonable = 0usize;
    for (claim, (r, u, n)) in claims.iter().zip(&tally) {
        println!("{claim}: Reasonable {r}, Not Sure {u}, Not Reasonable {n}");
        reasonable += r;
        unsure += u;
        unreasonable += n;
    }
    let total = (reasonable + unsure + unreasonable).max(1);
    println!(
        "\noverall: {:.1}% Reasonable, {:.1}% Not Sure, {:.1}% Not Reasonable   (paper: 83.3% / 10.4% / 6.3%)",
        100.0 * reasonable as f64 / total as f64,
        100.0 * unsure as f64 / total as f64,
        100.0 * unreasonable as f64 / total as f64
    );
}
