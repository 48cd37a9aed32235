//! The in-process workloads, driven through `EngineServer` with one shard
//! — the path `pegasusd` serves — from one generator thread.

use crate::capture::Capture;
use crate::replay::{majority, Census, Fate, Replay, TableCounts};
use crate::report::Ledger;
use crate::workloads::{Pacing, Served};
use pegasus_core::{
    EngineBuilder, EngineReport, EngineServer, PegasusError, TenantConfig, TenantToken,
};
use std::time::{Duration, Instant};

/// A running engine with every tenant of the workload attached.
pub struct Engine {
    pub server: EngineServer,
    pub tokens: Vec<TenantToken>,
}

/// Control-plane and ingress timings gathered over a run.
#[derive(Default)]
pub struct Samples {
    pub attach_us: Vec<f64>,
    pub swap_us: Vec<f64>,
    pub stats_us: Vec<f64>,
    pub detach_us: Vec<f64>,
    pub apply_us: Vec<f64>,
    pub flush_us: Vec<f64>,
    /// Every control call of the latency phase (swap and stats), µs.
    pub control_us: Vec<f64>,
    pub latency_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub rebuild_us: Vec<f64>,
    pub adopted_slots: u64,
    /// Capture frames the paced phase pushed per second of its run.
    pub achieved_pps: f64,
}

/// Builds a one-shard engine and attaches every tenant in order.
pub fn start(served: &Served, record: bool, samples: &mut Samples) -> Result<Engine, PegasusError> {
    let server = EngineBuilder::new().shards(1).build()?;
    let control = server.control();
    let mut tokens = Vec::with_capacity(served.tenants.len());
    for t in &served.tenants {
        let cfg = TenantConfig::new()
            .name(&t.name)
            .route(t.route.clone())
            .flow_table(t.table)
            .record_predictions(record);
        let artifact = served.nets[t.net].engine_artifact()?;
        let t0 = Instant::now();
        tokens.push(control.attach(artifact, cfg)?);
        samples.attach_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(Engine { server, tokens })
}

/// One saturated pass: the whole capture pushed, the clock stopped when
/// `shutdown` has returned every verdict.
pub struct Pass {
    pub elapsed_s: f64,
    pub drain_ms: f64,
    /// Mean `push_frame` call on the generator thread (timed passes only).
    pub push_ns: Option<f64>,
    pub report: EngineReport,
}

pub fn saturate(
    engine: Engine,
    cap: &mut Capture,
    time_pushes: bool,
) -> Result<Pass, PegasusError> {
    let ingress = engine.server.ingress();
    cap.rewind();
    let frames = cap.len() as f64;
    let t0 = Instant::now();
    let push_ns = if time_pushes {
        let mut total = 0u128;
        for i in 0..cap.len() {
            let frame = cap.frame(i, 0);
            let t = Instant::now();
            ingress.push_frame(frame)?;
            total += t.elapsed().as_nanos();
        }
        Some(total as f64 / frames)
    } else {
        ingress.push_frame_source(cap)?;
        None
    };
    let pushed = Instant::now();
    let report = engine.server.shutdown()?;
    let done = Instant::now();
    let elapsed_s = (done - t0).as_secs_f64();
    Ok(Pass { elapsed_s, drain_ms: (done - pushed).as_secs_f64() * 1e3, push_ns, report })
}

/// A tenant's census as the engine reported it.
pub fn engine_census(report: &pegasus_core::StreamReport) -> Census {
    Census {
        packets: report.packets,
        classified: report.classified,
        warmup: report.warmup,
        verdicts: report.predictions.as_ref().map(majority).unwrap_or_default(),
    }
}

pub fn engine_table(report: &pegasus_core::StreamReport) -> TableCounts {
    TableCounts {
        occupancy: report.table.occupancy,
        capacity: report.table.capacity,
        evictions: report.table.evictions(),
        alias_collisions: report.table.alias_collisions,
    }
}

/// Checks a drained engine against the replay: per-tenant counts (and
/// verdicts when recorded), parse-error buckets against the injected
/// frames, and routed + unrouted + rejected against the frames offered.
pub fn check_report(
    phase: &str,
    report: &EngineReport,
    replay: &Replay,
    cap: &Capture,
    offered: u64,
    ledger: &mut Ledger,
) {
    let mut routed = 0u64;
    for (t, tr) in report.tenants.iter().enumerate() {
        routed += tr.routed_packets;
        let Some(r) = ledger.call(&format!("{phase}: tenant {}", tr.name), tr.result.as_ref())
        else {
            continue;
        };
        // A routed frame with no verdict (classified or warm-up) is lost.
        let lost = tr.routed_packets.saturating_sub(r.packets);
        for _ in 0..lost {
            ledger.fail(format!("{phase}: {}: routed frame without a verdict", tr.name));
        }
        if phase == "census" {
            let got = engine_census(r);
            let want = &replay.census[t];
            ledger.check(&format!("{phase}: {} verdict census", tr.name), got == *want, || {
                format!(
                    "engine {}/{}/{} pkts/classified/warmup, {} flows; replay {}/{}/{}, {} flows",
                    got.packets,
                    got.classified,
                    got.warmup,
                    got.verdicts.len(),
                    want.packets,
                    want.classified,
                    want.warmup,
                    want.verdicts.len()
                )
            });
            ledger.check_eq(
                &format!("{phase}: {} flow-table counters", tr.name),
                engine_table(r),
                replay.tables[t],
            );
        } else {
            let want = &replay.census[t];
            ledger.check_eq(
                &format!("{phase}: {} packets/classified/warmup", tr.name),
                (r.packets, r.classified, r.warmup),
                (want.packets, want.classified, want.warmup),
            );
        }
    }
    ledger.check_eq(&format!("{phase}: unrouted frames"), report.unrouted, replay.unrouted);
    let p = report.parse_errors;
    ledger.check_eq(
        &format!("{phase}: parse-error buckets equal the injected frames"),
        [p.truncated, p.checksum, p.malformed, p.unsupported],
        [cap.truncated, cap.bad_checksum, 0, 0],
    );
    ledger.check_eq(
        &format!("{phase}: routed + unrouted + rejected = offered"),
        routed + report.unrouted + p.total(),
        offered,
    );
}

/// Flows whose majority verdict matches the generator's label, over
/// flows with at least one verdict.
pub fn accuracy<'a>(censuses: impl IntoIterator<Item = &'a Census>, cap: &Capture) -> f64 {
    let mut right = 0u64;
    let mut total = 0u64;
    for c in censuses {
        for (flow, class) in &c.verdicts {
            if let Some(label) = cap.labels.get(flow) {
                total += 1;
                right += u64::from(label == class);
            }
        }
    }
    right as f64 / total.max(1) as f64
}

/// Waits until `due`: sleeps while more than [`SPIN`] remains, then
/// spins, because a sleep can overshoot by a millisecond on a busy host.
/// Returns how late the generator is.
pub fn wait_until(due: Instant) -> Duration {
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        if due - now > SPIN * 2 {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

const SPIN: Duration = Duration::from_micros(300);
/// Shortest pause between two polls of the tenant's counter.
const POLL_GAP: Duration = Duration::from_micros(20);
/// Every this many control calls of the latency phase is a swap; the
/// rest are `stats`.
const SWAP_EVERY: usize = 8;
/// Longest a burst may take to show up in the tenant's counter.
const BURST_TIMEOUT: Duration = Duration::from_secs(5);

/// The open-loop latency phase: bursts of frames at the workload's fixed
/// rate, each followed by `flush` and timed from its due time until the
/// tenant's counter shows it processed (the in-process workloads serve
/// one catch-all tenant, and with one shard the queue is FIFO, so the
/// counter reaching the burst's last frame means the whole burst is
/// done). Control calls run between bursts at a fixed cadence. Ends by
/// waiting until every swap is applied, then shuts the engine down.
#[allow(clippy::too_many_arguments)]
pub fn paced(
    engine: Engine,
    served: &Served,
    cap: &Capture,
    replay: &Replay,
    pacing: Pacing,
    duration: Duration,
    samples: &mut Samples,
    ledger: &mut Ledger,
) -> Result<EngineReport, PegasusError> {
    let ingress = engine.server.ingress();
    let control = engine.server.control();
    let tenant = engine.tokens[0];
    let (swapped, swap_nets) = served.swap;
    let interval = pacing.interval();
    let span = cap.span_micros();
    let mut swaps = 0u64;
    let mut next_frame = 0usize;
    let mut target = 0u64;
    let mut control_ops = 0usize;
    // Pushes the next capture frame, wrapping around with time moving on.
    let push_next = |ledger: &mut Ledger, next_frame: &mut usize, target: &mut u64| {
        let i = *next_frame % cap.len();
        let wraps = (*next_frame / cap.len()) as u64;
        *next_frame += 1;
        if ledger.call("push_frame", ingress.push_frame(cap.frame(i, wraps * span))).is_some()
            && replay.fate[i] == Fate::Tenant(0)
        {
            *target += 1;
        }
    };
    let start = Instant::now();
    let mut next_control = start + pacing.control_every;
    let mut burst = 0u32;
    while start.elapsed() < duration {
        let due = start + interval * burst;
        burst += 1;
        samples.lag_us.push(wait_until(due).as_secs_f64() * 1e6);
        for _ in 0..pacing.burst {
            push_next(ledger, &mut next_frame, &mut target);
        }
        let t0 = Instant::now();
        ledger.call("flush", ingress.flush());
        samples.flush_us.push(t0.elapsed().as_secs_f64() * 1e6);
        loop {
            let t0 = Instant::now();
            let Some(s) = ledger.call("tenant_stats", control.tenant_stats(tenant)) else {
                break;
            };
            if s.failed {
                ledger.fail(format!("paced: tenant {} marked failed", s.name));
                break;
            }
            if s.report.packets >= target {
                samples.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
                break;
            }
            if due.elapsed() > BURST_TIMEOUT {
                ledger.fail(format!("burst {burst} not processed within {BURST_TIMEOUT:?}"));
                break;
            }
            // Back off between polls: a `stats` call takes the shard's
            // stats-board lock once per tenant, and polling back to back
            // starves the worker's publication of that same board.
            let until = Instant::now() + t0.elapsed().max(POLL_GAP);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        if Instant::now() >= next_control {
            // A fixed cadence; calls missed while the generator was late
            // are skipped, not bunched.
            next_control = (next_control + pacing.control_every).max(Instant::now());
            control_ops += 1;
            let t0 = Instant::now();
            if control_ops.is_multiple_of(SWAP_EVERY) {
                let to = swap_nets[(swaps as usize + 1) % 2];
                let artifact = served.nets[to].engine_artifact()?;
                let t0 = Instant::now();
                if let Some(r) = ledger.call("swap", control.swap(engine.tokens[swapped], artifact))
                {
                    swaps += 1;
                    samples.apply_us.push(r.apply_micros as f64);
                    ledger.check_eq("swap epoch counts the swaps", r.epoch, swaps);
                }
                samples.swap_us.push(t0.elapsed().as_secs_f64() * 1e6);
            } else if let Some(s) = ledger.call("stats", control.stats()) {
                samples.rebuild_us.push(s.routing.last_rebuild_micros as f64);
                samples.stats_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            samples.control_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    samples.achieved_pps = next_frame as f64 / start.elapsed().as_secs_f64();

    // Quiesce: one more frame after the last control call (a shard adopts
    // a swap at its next packet boundary, and then every pending swap once
    // its queue runs dry), then wait until the shard has applied them all.
    push_next(ledger, &mut next_frame, &mut target);
    ledger.call("flush", ingress.flush());
    let deadline = Instant::now() + BURST_TIMEOUT;
    while let Some(s) = ledger.call("stats", control.stats()) {
        let pending =
            s.tenant(engine.tokens[swapped]).is_none_or(|ts| ts.report.swap.applied_epoch != swaps)
                || s.tenant(tenant).is_none_or(|ts| ts.report.packets < target);
        if !pending {
            break;
        }
        if Instant::now() > deadline {
            ledger.fail("swaps not applied by the shard within the timeout".to_string());
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = engine.server.shutdown()?;
    for (t, tr) in report.tenants.iter().enumerate() {
        let want = if t == swapped { swaps } else { 0 };
        ledger.check_eq(&format!("paced: {} epoch equals its swaps", tr.name), tr.epoch, want);
        if let Some(r) = ledger.call(&format!("paced: tenant {}", tr.name), tr.result.as_ref()) {
            ledger.check_eq(
                &format!("paced: {} applied_epoch equals its swaps", tr.name),
                r.swap.applied_epoch,
                want,
            );
            samples.adopted_slots += r.swap.adopted_slots;
            let lost = tr.routed_packets.saturating_sub(r.packets);
            for _ in 0..lost {
                ledger.fail(format!("paced: {}: routed frame without a verdict", tr.name));
            }
        }
    }
    let p = report.parse_errors;
    let routed: u64 = report.tenants.iter().map(|t| t.routed_packets).sum();
    ledger.check_eq(
        "paced: routed + unrouted + rejected = offered",
        routed + report.unrouted + p.total(),
        next_frame as u64,
    );
    Ok(report)
}

/// Pushes the capture through a recording engine and drains it: the
/// untimed pass behind `flow_accuracy` and the census check.
pub fn census_pass(engine: Engine, cap: &mut Capture) -> Result<EngineReport, PegasusError> {
    let ingress = engine.server.ingress();
    cap.rewind();
    ingress.push_frame_source(cap)?;
    engine.server.shutdown()
}
