//! The four workloads and every input they use, generated from the seed.

use crate::util::{Ctx, Res, Rng};
use xinsight_core::json::Json;
use xinsight_core::WhyQuery;
use xinsight_data::{write_csv_string, CsvOptions, Dataset, DatasetBuilder, Value};
use xinsight_graph::MixedGraph;
use xinsight_service::{demo_queries, demo_v2_options, explain_v2_body, ingest_v2_body};
use xinsight_synth::{flight, syn_a};

/// Which dataset a workload fits and serves.
#[derive(Clone, Copy, PartialEq)]
pub enum DataKind {
    /// The FLIGHT case-study simulator.
    Flight,
    /// SYN-A (Table 6) plus one measure, so the fitted model can be served.
    SynA { core_variables: usize },
}

/// A workload: what is fitted, how the server is configured and how the
/// measured seconds are split between phases.
pub struct Spec {
    pub name: &'static str,
    pub data: DataKind,
    /// Rows in the fitted bundle.
    pub base_rows: usize,
    /// Extra sealed segments ingested during set-up, and their size.
    pub setup_segments: usize,
    pub setup_segment_rows: usize,
    pub cache_mb: usize,
    pub compact_after: usize,
    /// Queries drawn from `demo_queries`; crossed with six option objects.
    pub n_queries: usize,
    /// Share of `/v2/ingest` ops in the closed and open loops.
    pub ingest_share: f64,
    /// Fixed absolute rate of the open-loop phase, in requests per second.
    pub open_rate: f64,
    /// Shares of `--seconds` given to repeated fits, the closed loop, the
    /// open loop and a write-only ingest phase.
    pub fit_share: f64,
    pub closed_share: f64,
    pub open_share: f64,
    pub ingest_phase_share: f64,
}

pub const WORKLOADS: [&str; 4] = ["explain_hot", "explain_miss", "ingest_mix", "fit_offline"];

/// Seed of everything a workload fits and serves: datasets, query pool,
/// hot-key order and ingest rows.  These are the same in every run, so
/// runs differ only in what `--seed` drives — the op sequence and the
/// arrival schedule — and the fitted model's cost and accuracy do not
/// swing with a random graph.
pub const DATA_SEED: u64 = 1;

pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let scale = |full: usize, small: usize| if tiny { small } else { full };
    let base = Spec {
        name: "",
        data: DataKind::Flight,
        base_rows: scale(4000, 600),
        setup_segments: 0,
        setup_segment_rows: 0,
        cache_mb: 64,
        compact_after: 0,
        n_queries: 8,
        ingest_share: 0.0,
        open_rate: 2000.0,
        fit_share: 0.0,
        closed_share: 0.5,
        open_share: 0.3,
        ingest_phase_share: 0.2,
    };
    Some(match name {
        "explain_hot" => Spec {
            name: "explain_hot",
            ..base
        },
        "explain_miss" => Spec {
            name: "explain_miss",
            base_rows: scale(50_000 - 7 * 4096, 600),
            setup_segments: 7,
            setup_segment_rows: scale(4096, 100),
            cache_mb: 0,
            open_rate: 150.0,
            ..base
        },
        "ingest_mix" => Spec {
            name: "ingest_mix",
            compact_after: 4,
            ingest_share: 0.1,
            open_rate: 300.0,
            closed_share: 0.6,
            open_share: 0.4,
            ingest_phase_share: 0.0,
            ..base
        },
        "fit_offline" => Spec {
            name: "fit_offline",
            data: DataKind::SynA {
                core_variables: scale(32, 8),
            },
            base_rows: scale(20_000, 600),
            n_queries: 4,
            fit_share: 0.5,
            closed_share: 0.3,
            open_share: 0.1,
            ingest_phase_share: 0.1,
            ..base
        },
        _ => return None,
    })
}

/// One distinct `/v2/explain` request of the pool.
pub struct Key {
    pub options: String,
    pub query: WhyQuery,
    pub request: Vec<u8>,
}

/// One `/v2/ingest` request.
pub struct Batch {
    pub body: String,
    pub request: Vec<u8>,
    pub rows: usize,
}

pub struct Inputs {
    pub model: &'static str,
    /// The bundle's dataset as CSV text: what every fit starts from.
    pub csv: String,
    pub queries: Vec<WhyQuery>,
    pub keys: Vec<Key>,
    /// Ingested during set-up, in order (the extra sealed segments).
    pub setup_batches: Vec<Batch>,
    /// Ingest ops of the measured phases, used cyclically.
    pub batches: Vec<Batch>,
    /// The data-generating graph the fitted skeleton is scored against.
    pub truth: MixedGraph,
}

pub fn generate(spec: &Spec) -> Res<Inputs> {
    let seed = DATA_SEED;
    let (model, data, truth) = match spec.data {
        DataKind::Flight => (
            "flight",
            flight::generate(spec.base_rows, seed),
            flight_truth(),
        ),
        DataKind::SynA { core_variables } => {
            let instance = syn_a::generate(&syn_a::SynAOptions {
                n_core_variables: core_variables,
                n_rows: spec.base_rows,
                seed,
                ..syn_a::SynAOptions::default()
            });
            let data = with_measure(&instance.data, seed)?;
            ("syn_a", data, instance.ground_truth)
        }
    };
    let queries = demo_queries(&data, spec.n_queries).ctx("deriving queries")?;
    let mut keys = Vec::new();
    for query in &queries {
        for options in demo_v2_options(6) {
            let body = explain_v2_body(model, &query.to_json(), Some(&options));
            keys.push(Key {
                options,
                query: query.clone(),
                request: crate::net::post("/v2/explain", &body),
            });
        }
    }
    let setup_batches = match spec.data {
        DataKind::Flight if spec.setup_segments > 0 => {
            let extra = flight::generate(spec.setup_segments * spec.setup_segment_rows, seed + 1);
            (0..spec.setup_segments)
                .map(|i| {
                    let rows: Vec<String> = (i * spec.setup_segment_rows
                        ..(i + 1) * spec.setup_segment_rows)
                        .map(|r| row_json(&extra, r, None))
                        .collect();
                    batch(model, &rows)
                })
                .collect()
        }
        _ => Vec::new(),
    };
    // Ingest ops re-send one of the bundle's leading rows (the templates
    // `/models` advertises) with every measure perturbed by up to ±10 %.
    let mut rng = Rng::new(seed, 7);
    let templates = data.n_rows().min(64);
    let batches = (0..128)
        .map(|_| {
            batch(
                model,
                &[row_json(&data, rng.below(templates), Some(&mut rng))],
            )
        })
        .collect();
    Ok(Inputs {
        model,
        csv: write_csv_string(&data, &CsvOptions::default()),
        queries,
        keys,
        setup_batches,
        batches,
        truth,
    })
}

fn batch(model: &str, rows: &[String]) -> Batch {
    let body = ingest_v2_body(model, &format!("[{}]", rows.join(",")));
    Batch {
        request: crate::net::post("/v2/ingest", &body),
        body,
        rows: rows.len(),
    }
}

fn row_json(data: &Dataset, row: usize, mut perturb: Option<&mut Rng>) -> String {
    let fields = data
        .schema()
        .iter()
        .map(|meta| {
            let value = match data.value(row, &meta.name) {
                Ok(Value::Category(s)) => Json::Str(s),
                Ok(Value::Number(x)) => match perturb.as_deref_mut() {
                    Some(rng) => Json::Num(x * (0.9 + 0.2 * rng.f64())),
                    None => Json::Num(x),
                },
                _ => Json::Null,
            };
            (meta.name.clone(), value)
        })
        .collect();
    Json::Obj(fields).to_string()
}

/// SYN-A is purely categorical; a Why Query needs a measure.  `M` is a
/// noisy function of one observed core variable, so it adds one leaf to the
/// causal graph and leaves the SYN-A skeleton otherwise intact.
fn with_measure(data: &Dataset, seed: u64) -> Res<Dataset> {
    let names: Vec<String> = data
        .schema()
        .dimension_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let parent = names
        .iter()
        .find(|n| n.starts_with('V'))
        .ok_or("SYN-A instance has no core variable")?;
    let column = data.dimension(parent).ctx("measure parent")?;
    let mut rng = Rng::new(seed, 11);
    let measure: Vec<f64> = (0..data.n_rows())
        .map(|row| 10.0 * column.code(row) as f64 + 4.0 * rng.f64())
        .collect();
    let mut builder = DatasetBuilder::new();
    for name in &names {
        builder = builder.dimension_column(name, data.dimension(name).ctx("column")?.clone());
    }
    builder
        .measure("M", measure)
        .build()
        .ctx("building SYN-A data")
}

/// The FLIGHT simulator's data-generating graph (see `synth::flight`): the
/// month drives the quarter (an FD), the weather and the delay; rain drives
/// humidity, visibility and the delay; the carrier drives the delay; the
/// delay determines `DelayOver15`.
fn flight_truth() -> MixedGraph {
    const NODES: [&str; 11] = [
        "Month",
        "Quarter",
        "DayOfWeek",
        "Hour",
        "Carrier",
        "Rain",
        "DelayOver15",
        "Temperature",
        "Humidity",
        "Visibility",
        "DelayMinute",
    ];
    const EDGES: [(&str, &str); 9] = [
        ("Month", "Quarter"),
        ("Month", "Rain"),
        ("Month", "Temperature"),
        ("Month", "DelayMinute"),
        ("Rain", "Humidity"),
        ("Rain", "Visibility"),
        ("Rain", "DelayMinute"),
        ("Carrier", "DelayMinute"),
        ("DelayMinute", "DelayOver15"),
    ];
    let mut graph = MixedGraph::new(NODES);
    for (a, b) in EDGES {
        graph.add_nondirected(graph.expect_id(a), graph.expect_id(b));
    }
    graph
}
