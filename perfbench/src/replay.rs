//! The traced run: the capture replayed through each layer's public
//! functions, one layer at a time, from the benchmark's own code.
//!
//! Each layer runs as a whole pass over the capture and is timed with one
//! clock read per pass, because a per-call clock read costs more than the
//! cheapest layers (a route lookup is a few nanoseconds). The cheap passes
//! run three times on fresh state and keep the fastest (host noise only
//! adds). The replay is also the reference the engine is checked against:
//! its verdict census must equal the engine's.

use crate::capture::Capture;
use crate::models::Plane;
use crate::workloads::Served;
use pegasus_core::engine::FlatProgram;
use pegasus_core::flowpipe::FlowClassifier;
use pegasus_core::{PegasusError, StreamFeatures};
use pegasus_net::wire::parse_frame;
use pegasus_net::{
    CompiledRouter, FiveTuple, FlowTable, FlowTableConfig, FlowTracker, ParseErrorKind,
    SeqFeatures, StatFeatures, WINDOW,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each cheap pass (the fastest is kept).
const CHEAP_REPS: usize = 3;
/// Lanes per `classify_batch` call: the engine's default batch width.
const LANES: usize = pegasus_core::DEFAULT_BATCH_FRAMES;

/// One tenant's verdicts, in the shape both the engine and the replay
/// produce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Census {
    pub packets: u64,
    pub classified: u64,
    pub warmup: u64,
    /// Majority verdict per flow (ties go to the lowest class).
    pub verdicts: HashMap<FiveTuple, usize>,
}

/// Flow-table counters compared between engine and replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableCounts {
    pub occupancy: u64,
    pub capacity: u64,
    pub evictions: u64,
    pub alias_collisions: u64,
}

pub fn majority(preds: &HashMap<FiveTuple, Vec<usize>>) -> HashMap<FiveTuple, usize> {
    preds
        .iter()
        .filter_map(|(flow, seq)| {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for &c in seq {
                *counts.entry(c).or_insert(0) += 1;
            }
            let best = counts.iter().max_by_key(|(&c, &n)| (n, std::cmp::Reverse(c)))?;
            Some((*flow, *best.0))
        })
        .collect()
}

/// Nanoseconds per item of each layer, plus the counts behind them.
#[derive(Clone, Debug)]
pub struct LayerTimes {
    pub parse_ns: f64,
    pub route_ns: f64,
    pub router_build_us: f64,
    pub residual_scans_per_pkt: f64,
    pub admit_ns: f64,
    pub features_ns: f64,
    pub classify_ns: f64,
    pub classify_batch_ns: f64,
    pub on_packet_ns: f64,
    /// Wall time of one traced replay of the capture (each pass once,
    /// bookkeeping between passes included).
    pub traced_total_ns: f64,
    /// The layers' own times summed over the capture: parse, route,
    /// admission, features and inference.
    pub layer_sum_ns: f64,
}

/// What became of one capture frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Routed to this tenant (index into `Served::tenants`).
    Tenant(usize),
    Unrouted,
    /// Rejected by the parser; the index of its `ParseErrorCounters`
    /// bucket (truncated, checksum, malformed, unsupported).
    Rejected(usize),
}

/// What the replay found.
pub struct Replay {
    pub fate: Vec<Fate>,
    /// Frames rejected, by parse-error bucket.
    pub rejected: [u64; 4],
    pub unrouted: u64,
    pub census: Vec<Census>,
    pub tables: Vec<TableCounts>,
    pub times: LayerTimes,
}

impl Replay {
    pub fn routed(&self) -> u64 {
        self.census.iter().map(|c| c.packets).sum()
    }
}

fn kind_index(kind: ParseErrorKind) -> usize {
    match kind {
        ParseErrorKind::Truncated => 0,
        ParseErrorKind::Checksum => 1,
        ParseErrorKind::Malformed => 2,
        ParseErrorKind::Unsupported => 3,
    }
}

/// The header fields the engine takes from a parsed frame.
#[derive(Clone, Copy)]
struct Pkt {
    frame: usize,
    flow: FiveTuple,
    ts: u64,
    wire_len: u16,
    tcp_flags: u8,
    ttl: u8,
    payload_len: u16,
    /// Where the captured payload sits in the frame.
    payload_at: (usize, usize),
}

enum State<'a> {
    Stateless { flat: &'a FlatProgram, features: StreamFeatures, tracker: FlowTracker },
    Flow { fc: Box<FlowClassifier>, slots: FlowTable<()>, arity: usize },
}

fn fresh_states<'a>(served: &'a Served) -> Vec<State<'a>> {
    served
        .tenants
        .iter()
        .map(|t| match served.nets[t.net].plane() {
            Plane::Stateless { flat, features } => {
                State::Stateless { flat, features, tracker: FlowTracker::bounded(WINDOW, t.table) }
            }
            Plane::Flow(base) => {
                let fc = Box::new(base.fork());
                State::Flow {
                    slots: FlowTable::new(FlowTableConfig::aliased(fc.flow_slots())),
                    arity: fc.pipeline().extractor_fields.len(),
                    fc,
                }
            }
        })
        .collect()
}

/// The payload bytes a per-flow pipeline reads, zero-filled to `arity`.
fn payload_codes(cap: &Capture, pkt: &Pkt, arity: usize, out: &mut Vec<f32>) {
    let (at, end) = pkt.payload_at;
    let payload = &cap.frame(pkt.frame, 0).bytes[at..end];
    out.extend(
        payload.iter().take(arity).map(|&b| f32::from(b)).chain(std::iter::repeat(0.0)).take(arity),
    );
}

/// Each routed packet's row (`None` during warm-up), each row's span of
/// the codes, and the codes.
type Rows = (Vec<Option<usize>>, Vec<(usize, usize)>, Vec<f32>);

/// Admits every routed packet. With `extract`, also appends the feature
/// codes of every packet that will be inferred to `codes`, returning each
/// packet's row (`None` during warm-up) and each row's span of `codes`.
fn admit_pass(
    cap: &Capture,
    pkts: &[Pkt],
    tenant: &[usize],
    states: &mut [State<'_>],
    extract: bool,
) -> Rows {
    let mut rows = Vec::with_capacity(if extract { pkts.len() } else { 0 });
    let mut spans = Vec::new();
    let mut codes = Vec::new();
    for (pkt, &t) in pkts.iter().zip(tenant) {
        let start = codes.len();
        match &mut states[t] {
            State::Stateless { features, tracker, .. } => {
                let (obs, _, state) = tracker.observe_admit(pkt.flow, pkt.ts, pkt.wire_len);
                if !extract {
                    black_box(&obs);
                    continue;
                }
                if !state.window_full() {
                    rows.push(None);
                    continue;
                }
                match features {
                    StreamFeatures::Stat => {
                        let stat = StatFeatures::extract(
                            state,
                            &obs,
                            pkt.flow.protocol,
                            pkt.tcp_flags,
                            pkt.flow.src_port,
                            pkt.flow.dst_port,
                            pkt.ttl,
                            pkt.payload_len,
                        );
                        codes.extend(stat.0.iter().map(|&b| f32::from(b)));
                    }
                    StreamFeatures::Seq => codes.extend(
                        SeqFeatures::extract(state).expect("window is full").to_f32_interleaved(),
                    ),
                }
            }
            State::Flow { slots, arity, .. } => {
                slots.admit(pkt.flow, || ());
                if !extract {
                    continue;
                }
                // Per-flow pipelines rebuild their codes at inference (as
                // the engine does), so the 60-byte rows are not kept.
                payload_codes(cap, pkt, *arity, &mut codes);
                black_box(&codes);
                codes.truncate(start);
            }
        }
        rows.push(Some(spans.len()));
        spans.push((start, codes.len()));
    }
    (rows, spans, codes)
}

/// Runs `f` `reps` times; returns the fastest and the mean time (ns) and
/// the last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, f64, T) {
    let mut best = f64::INFINITY;
    let mut sum = 0.0;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as f64;
        best = best.min(ns);
        sum += ns;
        out = Some(r);
    }
    (best, sum / reps as f64, out.expect("at least one repetition"))
}

pub fn run(served: &Served, cap: &Capture) -> Result<Replay, PegasusError> {
    let n = cap.len();
    let wall = Instant::now();

    // Parse: a pure pass timed, then one that keeps the fields.
    let (parse_total, parse_mean, _) = timed(CHEAP_REPS, || {
        let mut acc = 0u64;
        for i in 0..n {
            if let Ok(p) = parse_frame(cap.frame(i, 0).bytes) {
                acc = acc.wrapping_add(u64::from(p.flow.src_port));
            }
        }
        black_box(acc)
    });
    let mut rejected = [0u64; 4];
    let mut fate = vec![Fate::Unrouted; n];
    let mut parsed = Vec::with_capacity(n);
    for (i, fate) in fate.iter_mut().enumerate() {
        let frame = cap.frame(i, 0);
        match parse_frame(frame.bytes) {
            Ok(p) => {
                let at = p.payload.as_ptr() as usize - frame.bytes.as_ptr() as usize;
                parsed.push(Pkt {
                    frame: i,
                    flow: p.flow,
                    ts: frame.ts_micros,
                    wire_len: frame.wire_len_u16(),
                    tcp_flags: p.tcp_flags,
                    ttl: p.ttl,
                    payload_len: p.payload_head_len(),
                    payload_at: (at, at + p.payload.len()),
                })
            }
            Err(e) => {
                let k = kind_index(e.kind());
                rejected[k] += 1;
                *fate = Fate::Rejected(k);
            }
        }
    }

    // Route over the workload's own rule set, in attach order.
    let rules: Vec<(u32, _)> =
        served.tenants.iter().enumerate().map(|(i, t)| (i as u32, t.route.clone())).collect();
    let (build_ns, build_mean, router) = timed(CHEAP_REPS, || CompiledRouter::build(&rules));
    let (route_total, route_mean, (routes, scans)) = timed(CHEAP_REPS, || {
        let mut routes = Vec::with_capacity(parsed.len());
        let mut scans = 0u64;
        for p in &parsed {
            let d = router.route(&p.flow);
            scans += u64::from(d.residual_scanned);
            routes.push(d.payload);
        }
        (routes, scans)
    });
    let mut pkts = Vec::with_capacity(parsed.len());
    let mut tenant = Vec::with_capacity(parsed.len());
    let mut unrouted = 0u64;
    for (p, r) in parsed.iter().zip(&routes) {
        match r {
            Some(t) => {
                fate[p.frame] = Fate::Tenant(*t as usize);
                pkts.push(*p);
                tenant.push(*t as usize);
            }
            None => unrouted += 1,
        }
    }

    // Flow-slot admission alone, then admission plus feature extraction.
    let (admit_total, admit_mean, admit_states) = timed(CHEAP_REPS, || {
        let mut states = fresh_states(served);
        admit_pass(cap, &pkts, &tenant, &mut states, false);
        states
    });
    let (extract_total, extract_mean, (rows, spans, codes)) = timed(CHEAP_REPS, || {
        let mut states = fresh_states(served);
        admit_pass(cap, &pkts, &tenant, &mut states, true)
    });
    let tables = admit_states
        .iter()
        .map(|s| match s {
            State::Stateless { tracker, .. } => {
                let st = tracker.table_stats();
                TableCounts {
                    occupancy: tracker.len() as u64,
                    capacity: tracker.capacity() as u64,
                    evictions: st.evicted_idle + st.evicted_capacity,
                    alias_collisions: st.alias_collisions,
                }
            }
            State::Flow { slots, .. } => TableCounts {
                occupancy: slots.len() as u64,
                capacity: slots.capacity() as u64,
                evictions: 0,
                alias_collisions: slots.stats().alias_collisions,
            },
        })
        .collect();

    // Inference: FlatProgram rows, then per-flow pipelines in packet order.
    let mut states = fresh_states(served);
    let mut scratch: Vec<_> = states
        .iter()
        .map(|s| match s {
            State::Stateless { flat, .. } => Some(flat.scratch()),
            State::Flow { .. } => None,
        })
        .collect();
    let mut classes: Vec<Option<usize>> = vec![None; spans.len()];
    let mut flat_rows: HashMap<usize, Vec<usize>> = HashMap::new();
    let t0 = Instant::now();
    for (&t, row) in tenant.iter().zip(&rows) {
        let (Some(row), State::Stateless { flat, .. }) = (row, &states[t]) else { continue };
        let (a, b) = spans[*row];
        let s = scratch[t].as_mut().expect("stateless tenants have scratch");
        classes[*row] = Some(flat.classify(&codes[a..b], s)?);
        flat_rows.entry(t).or_default().push(*row);
    }
    let classify_total = t0.elapsed().as_nanos() as f64;
    let flat_count: usize = flat_rows.values().map(Vec::len).sum();
    let mut flow_count = 0u64;
    let mut flow_codes = Vec::new();
    let t0 = Instant::now();
    for ((pkt, &t), row) in pkts.iter().zip(&tenant).zip(&rows) {
        let (Some(row), State::Flow { fc, arity, .. }) = (row, &mut states[t]) else { continue };
        flow_codes.clear();
        payload_codes(cap, pkt, *arity, &mut flow_codes);
        let v = fc.on_packet_mut(pkt.flow.dataplane_hash(), pkt.ts, pkt.wire_len, &flow_codes)?;
        classes[*row] = v.predicted;
        flow_count += 1;
    }
    let on_packet_total = t0.elapsed().as_nanos() as f64;
    // One traced replay: the wall time so far, less the repeats.
    let repeats = (parse_mean + build_mean + route_mean + admit_mean + extract_mean)
        * (CHEAP_REPS - 1) as f64;
    let traced_total_ns = wall.elapsed().as_nanos() as f64 - repeats;

    // The batched sweep over the same rows must agree with per-row calls.
    let mut batch_total = 0.0;
    let mut batch_lanes = 0u64;
    for (&t, rows_of) in &flat_rows {
        let State::Stateless { flat, .. } = &states[t] else { continue };
        let mut batch_scratch = flat.batch_scratch(LANES);
        let mut lane_codes = Vec::new();
        let mut out = Vec::with_capacity(LANES);
        for chunk in rows_of.chunks(LANES) {
            lane_codes.clear();
            for &r in chunk {
                let (a, b) = spans[r];
                lane_codes.extend_from_slice(&codes[a..b]);
            }
            let t0 = Instant::now();
            flat.classify_batch(&lane_codes, chunk.len(), &mut batch_scratch, &mut out)?;
            batch_total += t0.elapsed().as_nanos() as f64;
            batch_lanes += chunk.len() as u64;
            if chunk.iter().zip(&out).any(|(&r, &c)| classes[r] != Some(c)) {
                return Err(PegasusError::InvalidConfig {
                    field: "classify_batch",
                    reason: "batched verdict differs from the per-row verdict",
                });
            }
        }
    }

    let mut census: Vec<Census> = vec![Census::default(); served.tenants.len()];
    let mut preds: Vec<HashMap<FiveTuple, Vec<usize>>> = vec![HashMap::new(); census.len()];
    for ((pkt, &t), row) in pkts.iter().zip(&tenant).zip(&rows) {
        let c = &mut census[t];
        c.packets += 1;
        match row.and_then(|r| classes[r]) {
            Some(class) => {
                c.classified += 1;
                preds[t].entry(pkt.flow).or_default().push(class);
            }
            None => c.warmup += 1,
        }
    }
    for (c, p) in census.iter_mut().zip(&preds) {
        c.verdicts = majority(p);
    }

    let per = |total: f64, count: u64| if count == 0 { 0.0 } else { total / count as f64 };
    let routed = pkts.len() as u64;
    let times = LayerTimes {
        parse_ns: per(parse_total, n as u64),
        route_ns: per(route_total, parsed.len() as u64),
        router_build_us: build_ns / 1e3,
        residual_scans_per_pkt: per(scans as f64, parsed.len() as u64),
        admit_ns: per(admit_total, routed),
        features_ns: per(extract_total - admit_total, routed),
        classify_ns: per(classify_total, flat_count as u64),
        classify_batch_ns: per(batch_total, batch_lanes),
        on_packet_ns: per(on_packet_total, flow_count),
        traced_total_ns,
        layer_sum_ns: parse_total + route_total + extract_total + classify_total + on_packet_total,
    };
    Ok(Replay { fate, rejected, unrouted, census, tables, times })
}
