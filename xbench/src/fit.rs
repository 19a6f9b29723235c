//! The fit path: CSV bytes → `XInsight::fit` → saved bundle, its accuracy
//! against the data-generating graph, and a traced replica of the fit built
//! from the layers' public functions.

use crate::trace::Tracer;
use crate::util::{cpu_ns, Ctx, Res};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xinsight_core::pipeline::{XInsight, XInsightOptions};
use xinsight_core::{ExplainRequest, FittedModel, WhyQuery, XLearner};
use xinsight_data::{
    detect_fds, discretize_equal_frequency, discretize_equal_width, read_csv_str, CsvOptions,
    Dataset, DatasetBuilder, Discretizer,
};
use xinsight_discovery::{fci_orient, fci_skeleton, skeleton_search, SkeletonOptions};
use xinsight_graph::{metrics::skeleton_metrics, MixedGraph};
use xinsight_service::registry::bundle_paths;
use xinsight_service::save_bundle;
use xinsight_service::wire::v2_result_to_string;
use xinsight_stats::{CachedCiTest, ChiSquareTest, CiOutcome, CiTest, IndexedCiTest};

pub struct Fitted {
    pub secs: f64,
    /// CPU seconds the fit took, all threads.
    pub cpu_secs: f64,
    pub data: Dataset,
    pub engine: XInsight,
}

/// One fit as a user pays for it: parse the CSV, fit, save the bundle the
/// server loads.
pub fn fit_bundle(csv: &str, dir: &Path, id: &str, queries: &[WhyQuery]) -> Res<Fitted> {
    let started = Instant::now();
    let cpu = cpu_ns(None)?;
    let data = read_csv_str(csv, &CsvOptions::default()).ctx("reading CSV")?;
    let engine = XInsight::fit(&data, &XInsightOptions::default()).ctx("fitting")?;
    save_bundle(dir, id, &data, &engine, queries).ctx("saving bundle")?;
    Ok(Fitted {
        secs: started.elapsed().as_secs_f64(),
        cpu_secs: (cpu_ns(None)? - cpu) as f64 / 1e9,
        data,
        engine,
    })
}

/// Skeleton F1 over the truth's nodes (nodes the truth does not know, such
/// as a measure added for serving, are left out).
pub fn skeleton_f1(estimated: &MixedGraph, truth: &MixedGraph) -> f64 {
    let mut graph = MixedGraph::new(truth.names().iter().cloned());
    for edge in estimated.edges() {
        let ids = (
            graph.id(estimated.name(edge.a)),
            graph.id(estimated.name(edge.b)),
        );
        if let (Some(a), Some(b)) = ids {
            graph.add_nondirected(a, b);
        }
    }
    skeleton_metrics(&graph, truth).f1
}

/// fit → save → load → execute must answer exactly as fit → execute.
pub fn persistence_holds(fitted: &Fitted, dir: &Path, id: &str, query: &WhyQuery) -> Res<bool> {
    let (_, model_path, _) = bundle_paths(dir, id);
    let model = FittedModel::load(&model_path).ctx("loading fitted model")?;
    let restored = XInsight::from_fitted(&fitted.data, model, &XInsightOptions::default())
        .ctx("restoring engine")?;
    let request = ExplainRequest::new(query.clone());
    let direct = fitted.engine.execute(&request).ctx("executing")?;
    let reloaded = restored.execute(&request).ctx("executing restored")?;
    Ok(v2_result_to_string(&direct) == v2_result_to_string(&reloaded))
}

/// Counts and times every chi-square evaluation that reaches the real test
/// (CI-cache hits never get here).
struct TimedCi<'c, T> {
    inner: T,
    calls: &'c AtomicU64,
    ns: &'c AtomicU64,
}

struct TimedIds<'a> {
    inner: Box<dyn IndexedCiTest + 'a>,
    calls: &'a AtomicU64,
    ns: &'a AtomicU64,
}

fn timed<R>(calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    // relaxed: statistics counters, read after the fit's threads joined
    ns.fetch_add(crate::util::nanos(started.elapsed()), Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
    out
}

impl<T: CiTest> CiTest for TimedCi<'_, T> {
    fn test(
        &self,
        data: &Dataset,
        x: &str,
        y: &str,
        z: &[&str],
    ) -> xinsight_data::Result<CiOutcome> {
        timed(self.calls, self.ns, || self.inner.test(data, x, y, z))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compile<'a>(
        &'a self,
        data: &'a Dataset,
        vars: &'a [&'a str],
    ) -> xinsight_data::Result<Box<dyn IndexedCiTest + 'a>> {
        Ok(Box::new(TimedIds {
            inner: self.inner.compile(data, vars)?,
            calls: self.calls,
            ns: self.ns,
        }))
    }
}

impl IndexedCiTest for TimedIds<'_> {
    fn test_ids(&self, x: u32, y: u32, z: &[u32]) -> xinsight_data::Result<CiOutcome> {
        timed(self.calls, self.ns, || self.inner.test_ids(x, y, z))
    }
}

/// The counts of one traced fit.
pub struct FitCounts {
    pub ci_tests: usize,
    pub ci_cache_hit_ratio: f64,
    pub ci_test_us: f64,
}

/// `XInsight::fit`'s preprocessing: discretize each measure and build the
/// all-dimension discovery view (the serving store's `_bin` columns are
/// built too, as the fit does).
fn discovery_view(data: &Dataset, options: &XInsightOptions) -> Res<(Dataset, Vec<Discretizer>)> {
    let clean = data.drop_null_rows();
    let schema = clean.schema();
    let mut augmented = clean.clone();
    let mut view = DatasetBuilder::new();
    for name in schema.dimension_names() {
        view = view.dimension_column(name, clean.dimension(name).ctx("dimension")?.clone());
    }
    let mut discretizers = Vec::new();
    for name in schema.measure_names() {
        let binned = discretize_equal_frequency(&clean, name, options.measure_bins)
            .or_else(|_| discretize_equal_width(&clean, name, options.measure_bins));
        if let Ok(disc) = binned {
            augmented = disc
                .apply(&augmented, Some(&format!("{name}_bin")))
                .ctx("binning")?;
            let tmp = disc.apply(&clean, Some("__tmp_bin")).ctx("binning")?;
            view = view.dimension_column(name, tmp.dimension("__tmp_bin").ctx("bin")?.clone());
            discretizers.push(disc);
        }
    }
    std::hint::black_box(&augmented);
    Ok((view.build().ctx("discovery view")?, discretizers))
}

/// Runs the fit as `XInsight::fit` composes it, one span per layer call,
/// then saves and reloads the model.  The learned graph and CI-test count
/// must equal `reference` (a real `XInsight::fit` of the same CSV).
/// Afterwards a separate `discovery.replay` root re-runs the adjacency
/// search, FCI skeleton and orientation on their own, so the skeleton,
/// Possible-D-SEP and orientation stages get their own times.
pub fn traced_fit(csv: &str, dir: &Path, reference: &XInsight, t: &mut Tracer) -> Res<FitCounts> {
    let options = XInsightOptions::default();
    let (calls, ns) = (AtomicU64::new(0), AtomicU64::new(0));
    let test = CachedCiTest::new(TimedCi {
        inner: ChiSquareTest::new(options.ci_alpha),
        calls: &calls,
        ns: &ns,
    });
    let mut xlearner = options.xlearner.clone();
    xlearner.fci.parallel = options.parallel && xlearner.fci.parallel;
    let model_path = dir.join("traced.model.json");
    let (view, learned) = t.span("fit", |t| -> Res<_> {
        let data = t.span("csv.read", |_| {
            read_csv_str(csv, &CsvOptions::default()).ctx("CSV")
        })?;
        let (view, discretizers) = t.span("discretize", |_| discovery_view(&data, &options))?;
        let vars: Vec<&str> = view.schema().names();
        let fd_graph = t.span("fd.detect", |_| {
            let projected = view.select_attributes(&vars).ctx("projecting")?;
            detect_fds(&projected, &xlearner.fd_detection)
                .map(|(_, graph)| graph)
                .ctx("FD detection")
        })?;
        let learned = t.span("discovery.learn", |_| {
            XLearner::new(xlearner.clone())
                .learn_with_fd_graph(&view, &vars, &test, &fd_graph)
                .ctx("learning")
        })?;
        let model = FittedModel {
            graph: learned.graph.clone(),
            fd_graph: learned.fd_graph.clone(),
            fci_variables: learned.fci_variables.clone(),
            dropped_redundant: learned.dropped_redundant.clone(),
            sepsets: learned.sepsets.clone(),
            n_ci_tests: learned.n_ci_tests,
            discretizers,
        };
        t.span("persist.save", |_| {
            model.save(&model_path).ctx("saving model")
        })?;
        t.span("persist.load", |_| -> Res<()> {
            let model = FittedModel::load(&model_path).ctx("loading model")?;
            XInsight::from_fitted(&data, model, &options).ctx("restoring")?;
            Ok(())
        })?;
        Ok((view, learned))
    })?;
    let reference_result = reference.learner_result();
    if learned.graph != reference_result.graph || learned.n_ci_tests != reference_result.n_ci_tests
    {
        return Err("traced fit diverged from XInsight::fit".into());
    }
    let vars: Vec<&str> = learned.fci_variables.iter().map(String::as_str).collect();
    if vars.len() >= 2 {
        t.span("discovery.replay", |t| -> Res<()> {
            let fresh = || CachedCiTest::new(ChiSquareTest::new(options.ci_alpha));
            t.span("discovery.skeleton", |_| {
                let skeleton = SkeletonOptions {
                    max_cond_size: xlearner.fci.max_cond_size,
                    parallel: xlearner.fci.parallel,
                };
                skeleton_search(&view, &vars, &fresh(), &skeleton).ctx("skeleton search")
            })?;
            let skeleton = t.span("discovery.fci_skeleton", |_| {
                fci_skeleton(&view, &vars, &fresh(), &xlearner.fci).ctx("FCI skeleton")
            })?;
            t.span("discovery.orient", |_| {
                std::hint::black_box(fci_orient(&skeleton.graph, &skeleton.sepsets))
            });
            Ok(())
        })?;
    }
    let stats = test.stats();
    // relaxed: the fit's worker threads have joined
    let (calls, ns) = (calls.load(Ordering::Relaxed), ns.load(Ordering::Relaxed));
    Ok(FitCounts {
        ci_tests: learned.n_ci_tests,
        ci_cache_hit_ratio: stats.hit_rate(),
        ci_test_us: if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1e3
        },
    })
}
