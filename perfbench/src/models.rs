//! Set-up of the served programs: train, compile, verify and deploy each
//! model a workload needs, timing every stage.
//!
//! Training uses a fixed seed of its own, so the served program is the
//! same for every `--seed`; only the traffic changes with the seed.

use pegasus_core::compile::CompileOptions;
use pegasus_core::engine::FlatProgram;
use pegasus_core::flowpipe::FlowClassifier;
use pegasus_core::models::cnn_l::{CnnL, CnnLVariant};
use pegasus_core::models::mlp_b::MlpB;
use pegasus_core::models::rnn_b::RnnB;
use pegasus_core::{
    Compiled, DataplaneNet, Deployment, EngineArtifact, ModelData, Pegasus, PegasusError,
    StreamFeatures, TrainSettings,
};
use pegasus_datasets::{extract_views, generate_trace, peerrush, GenConfig, SampleViews};
use pegasus_switch::SwitchConfig;
use std::time::Instant;

/// Seed of the training trace (independent of the workload seed).
const TRAIN_SEED: u64 = 0x7ea1;
/// Flows per class of the training trace.
const TRAIN_FLOWS_PER_CLASS: usize = 24;

/// Wall time of each set-up stage, summed over the models trained.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub train_s: f64,
    pub compile_s: f64,
    pub verify_ms: f64,
    pub deploy_ms: f64,
}

/// One deployed program.
pub enum Net {
    Mlp(Box<Deployment<MlpB>>),
    Rnn(Box<Deployment<RnnB>>),
    Cnn(Box<Deployment<CnnL>>),
}

/// What the layer-by-layer replay executes for a program.
pub enum Plane<'a> {
    Stateless { flat: &'a FlatProgram, features: StreamFeatures },
    Flow(&'a FlowClassifier),
}

impl Net {
    pub fn engine_artifact(&self) -> Result<EngineArtifact, PegasusError> {
        match self {
            Net::Mlp(d) => d.engine_artifact(),
            Net::Rnn(d) => d.engine_artifact(),
            Net::Cnn(d) => d.engine_artifact(),
        }
    }

    pub fn plane(&self) -> Plane<'_> {
        fn stateless<M: DataplaneNet>(d: &Deployment<M>) -> Plane<'_> {
            let flat = d
                .dataplane()
                .and_then(|dp| dp.flat())
                .expect("stateless benchmark programs run on the flattened-LUT path");
            Plane::Stateless { flat, features: d.model().stream_features() }
        }
        match self {
            Net::Mlp(d) => stateless(d),
            Net::Rnn(d) => stateless(d),
            Net::Cnn(d) => Plane::Flow(d.flow().expect("CNN-L deploys a per-flow pipeline")),
        }
    }

    pub fn flat(&self) -> Option<&FlatProgram> {
        match self.plane() {
            Plane::Stateless { flat, .. } => Some(flat),
            Plane::Flow(_) => None,
        }
    }
}

/// The training views every model of a run is fitted on.
pub fn training_views() -> SampleViews {
    let trace = generate_trace(
        &peerrush(),
        &GenConfig { flows_per_class: TRAIN_FLOWS_PER_CLASS, seed: TRAIN_SEED },
    );
    extract_views(&trace)
}

fn settings() -> TrainSettings {
    TrainSettings { seed: TRAIN_SEED, ..TrainSettings::quick() }
}

fn finish<M: DataplaneNet>(
    trained: Pegasus<M>,
    data: &ModelData<'_>,
    depth: usize,
    times: &mut StageTimes,
) -> Result<Deployment<M>, PegasusError> {
    let t = Instant::now();
    let compiled: Compiled<M> = trained
        .options(CompileOptions { clustering_depth: depth, ..Default::default() })
        .compile(data)?;
    times.compile_s += t.elapsed().as_secs_f64();
    let switch = SwitchConfig::tofino2();
    let t = Instant::now();
    let report = compiled.artifact().verify(Some(&switch));
    times.verify_ms += t.elapsed().as_secs_f64() * 1e3;
    if report.has_errors() {
        return Err(PegasusError::Verify { report: Box::new(report) });
    }
    let t = Instant::now();
    let deployed = compiled.deploy(&switch)?;
    times.deploy_ms += t.elapsed().as_secs_f64() * 1e3;
    Ok(deployed)
}

/// Trains MLP-B (same seed, so the same model) once per clustering depth
/// given and compiles it there: distinct depths give distinct artifacts.
pub fn mlp(
    views: &SampleViews,
    depths: &[usize],
    times: &mut StageTimes,
) -> Result<Vec<Net>, PegasusError> {
    let data = ModelData::new().with_stat(&views.stat);
    let mut out = Vec::new();
    for &depth in depths {
        let t = Instant::now();
        let trained = Pegasus::<MlpB>::train(&data, &settings())?;
        times.train_s += t.elapsed().as_secs_f64();
        out.push(Net::Mlp(Box::new(finish(trained, &data, depth, times)?)));
    }
    Ok(out)
}

pub fn rnn(views: &SampleViews, times: &mut StageTimes) -> Result<Net, PegasusError> {
    let data = ModelData::new().with_seq(&views.seq);
    let t = Instant::now();
    let trained = Pegasus::<RnnB>::train(&data, &settings())?;
    times.train_s += t.elapsed().as_secs_f64();
    Ok(Net::Rnn(Box::new(finish(trained, &data, 4, times)?)))
}

pub fn cnn(views: &SampleViews, times: &mut StageTimes) -> Result<Net, PegasusError> {
    let data = ModelData::new().with_raw(&views.raw).with_seq(&views.seq);
    let t = Instant::now();
    let trained = Pegasus::new(CnnL::fit(&views.raw, &views.seq, CnnLVariant::v44(), &settings()));
    times.train_s += t.elapsed().as_secs_f64();
    Ok(Net::Cnn(Box::new(finish(trained, &data, 5, times)?)))
}
