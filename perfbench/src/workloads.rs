//! The three workloads: what each serves, the traffic it replays, and the
//! pace of its latency phase.
//!
//! * `stat-mlp` — one catch-all MLP-B tenant (stat features, flattened
//!   LUTs). Inference is most of the per-packet cost, and the flow
//!   population fits the default 4096-slot table.
//! * `flow-cnn-churn` — one CNN-L v44 tenant (per-flow registers, switch
//!   simulator, no FlatProgram). Twice as many flows as register slots,
//!   so slots change owner all the time.
//! * `daemon-ops` — a small fleet operated through an in-process
//!   `pegasusd` and one `pegasusctl` client connection: 14 tenants routed
//!   by dst-port LUT, prefix trie and residual rules over two shared
//!   MLP-B artifacts and one RNN-B, with unrouted and malformed frames in
//!   the traffic.

use crate::capture::{Capture, Rng, Shape};
use crate::models::{self, Net, StageTimes};
use pegasus_core::PegasusError;
use pegasus_net::{FiveTuple, FlowTableConfig, RoutePredicate};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StatMlp,
    FlowCnnChurn,
    DaemonOps,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "stat-mlp" => Workload::StatMlp,
            "flow-cnn-churn" => Workload::FlowCnnChurn,
            "daemon-ops" => Workload::DaemonOps,
            _ => return None,
        })
    }

    /// The open-loop rate and burst size of the latency phase, and the
    /// period of its control calls. The rates sit well below saturation
    /// and below what the generator's own polling can follow.
    /// `BENCHMARK.json` states the rates.
    pub fn pacing(self) -> Pacing {
        let ms = Duration::from_millis;
        match self {
            Workload::StatMlp => Pacing { rate_pps: 20_000.0, burst: 32, control_every: ms(4) },
            Workload::FlowCnnChurn => Pacing { rate_pps: 8_000.0, burst: 16, control_every: ms(4) },
            Workload::DaemonOps => Pacing { rate_pps: 4_000.0, burst: 16, control_every: ms(8) },
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Pacing {
    pub rate_pps: f64,
    pub burst: usize,
    pub control_every: Duration,
}

impl Pacing {
    pub fn interval(&self) -> Duration {
        Duration::from_secs_f64(self.burst as f64 / self.rate_pps)
    }
}

/// One tenant as the workload attaches it.
pub struct TenantSpec {
    pub name: String,
    pub route: RoutePredicate,
    /// Index into [`Served::nets`].
    pub net: usize,
    pub table: FlowTableConfig,
}

/// What a workload serves.
pub struct Served {
    pub nets: Vec<Net>,
    pub tenants: Vec<TenantSpec>,
    /// The tenant the latency phase swaps, and the two nets it alternates
    /// between (starting from the second).
    pub swap: (usize, [usize; 2]),
}

/// Everything one set-up produces.
pub struct Setup {
    pub served: Served,
    pub capture: Capture,
    pub stages: StageTimes,
    pub capture_s: f64,
}

const STAT_FLOWS_PER_CLASS: usize = 1_300;
/// CNN-L v44 compiles 2^14 register slots; three classes of this many
/// flows make two flows per slot.
const CNN_FLOWS_PER_CLASS: usize = (2 << 14) / 3 + 1;
/// Each CNN-L flow keeps its first packets only (the 8-packet window plus
/// two verdicts), which keeps a pass over 33k flows within the run budget.
const CNN_PACKETS_PER_FLOW: usize = 10;
const DAEMON_FLOWS_PER_CLASS: usize = 800;

/// The `daemon-ops` fleet in attach order: residual tenants first (so
/// every frame scans them before its structural match), then dst-port
/// LUT tenants, then prefix-trie tenants.
const FLEET_RESIDUAL: std::ops::Range<usize> = 0..2;
const FLEET_LUT: std::ops::Range<usize> = 2..8;
const FLEET_TENANTS: usize = 14;
/// Trie tenants served by RNN-B (sequence features); the other tenants
/// alternate between the two MLP-B artifacts.
const FLEET_RNN: std::ops::Range<usize> = 12..FLEET_TENANTS;
/// The fleet tenant the latency phase swaps between the two artifacts.
const FLEET_SWAPPED: usize = FLEET_LUT.start;

/// `/24` of trie tenant `t` inside 100.64.0.0/16.
fn trie_subnet(t: usize) -> u32 {
    0x6440_0000 | ((t as u32) << 8)
}

/// `/24` of residual tenant `t` inside 100.96.0.0/16.
fn residual_subnet(t: usize) -> u32 {
    0x6460_0000 | ((t as u32) << 8)
}

fn lut_port(t: usize) -> u16 {
    20_000 + t as u16
}

fn fleet_route(t: usize) -> RoutePredicate {
    if FLEET_RESIDUAL.contains(&t) {
        // Two conditions do not compile into one structure: residual scan.
        RoutePredicate::all_of(vec![
            RoutePredicate::DstSubnet { addr: residual_subnet(t), prefix: 24 },
            RoutePredicate::Not(Box::new(RoutePredicate::DstPort(0))),
        ])
    } else if FLEET_LUT.contains(&t) {
        RoutePredicate::DstPort(lut_port(t))
    } else {
        RoutePredicate::DstSubnet { addr: trie_subnet(t), prefix: 24 }
    }
}

/// Sends flow `i` to a fleet tenant, or leaves it unrouted: 5 % keep
/// their own addressing (which no rule matches), 4 % go to the residual
/// tenants, the rest are spread over the LUT and trie tenants.
fn fleet_rewrite(seed: u64, i: usize, flow: FiveTuple) -> FiveTuple {
    let r = Rng::new(seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)).next();
    let host = flow.src_ip & 0xff;
    let pick = (r >> 8) as usize;
    let mut out = flow;
    let t = match r % 100 {
        0..=4 => return out,
        5..=8 => FLEET_RESIDUAL.start + pick % FLEET_RESIDUAL.len(),
        _ => FLEET_LUT.start + pick % (FLEET_TENANTS - FLEET_LUT.start),
    };
    if FLEET_RESIDUAL.contains(&t) {
        out.dst_ip = residual_subnet(t) | host;
    } else if FLEET_LUT.contains(&t) {
        out.dst_port = lut_port(t);
    } else {
        out.dst_ip = trie_subnet(t) | host;
    }
    out
}

fn catch_all(net: usize) -> TenantSpec {
    TenantSpec {
        name: "main".to_string(),
        route: RoutePredicate::Any,
        net,
        table: FlowTableConfig::default(),
    }
}

/// Trains, compiles, verifies and deploys the workload's programs and
/// synthesizes its capture from `seed`.
pub fn setup(workload: Workload, seed: u64) -> Result<Setup, PegasusError> {
    let mut stages = StageTimes::default();
    let views = {
        let t = Instant::now();
        let v = models::training_views();
        stages.train_s += t.elapsed().as_secs_f64();
        v
    };
    let served = match workload {
        Workload::StatMlp => Served {
            nets: models::mlp(&views, &[5, 4], &mut stages)?,
            tenants: vec![catch_all(0)],
            swap: (0, [0, 1]),
        },
        Workload::FlowCnnChurn => Served {
            nets: vec![models::cnn(&views, &mut stages)?],
            tenants: vec![catch_all(0)],
            swap: (0, [0, 0]),
        },
        Workload::DaemonOps => {
            let mut nets = models::mlp(&views, &[5, 4], &mut stages)?;
            nets.push(models::rnn(&views, &mut stages)?);
            Served {
                nets,
                tenants: (0..FLEET_TENANTS)
                    .map(|t| TenantSpec {
                        name: format!("t{t:02}"),
                        route: fleet_route(t),
                        net: if FLEET_RNN.contains(&t) { 2 } else { t % 2 },
                        table: FlowTableConfig::default(),
                    })
                    .collect(),
                swap: (FLEET_SWAPPED, [FLEET_SWAPPED % 2, 1 - FLEET_SWAPPED % 2]),
            }
        }
    };
    let t = Instant::now();
    let fleet = |i: usize, flow: FiveTuple| fleet_rewrite(seed, i, flow);
    let shape = match workload {
        Workload::StatMlp => Shape {
            flows_per_class: STAT_FLOWS_PER_CLASS,
            max_packets_per_flow: None,
            rewrite: None,
            truncated_per_mille: 0,
            checksum_per_mille: 0,
        },
        Workload::FlowCnnChurn => Shape {
            flows_per_class: CNN_FLOWS_PER_CLASS,
            max_packets_per_flow: Some(CNN_PACKETS_PER_FLOW),
            rewrite: None,
            truncated_per_mille: 0,
            checksum_per_mille: 0,
        },
        Workload::DaemonOps => Shape {
            flows_per_class: DAEMON_FLOWS_PER_CLASS,
            max_packets_per_flow: None,
            rewrite: Some(&fleet),
            truncated_per_mille: 10,
            checksum_per_mille: 10,
        },
    };
    let capture = Capture::synthesize(seed, &shape);
    let capture_s = t.elapsed().as_secs_f64();
    Ok(Setup { served, capture, stages, capture_s })
}
