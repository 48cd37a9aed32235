//! The Pegasus serving-path benchmark.
//!
//! ```text
//! perfbench --workload <stat-mlp|flow-cnn-churn|daemon-ops>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up three times (the median is `setup_s`), replays its
//! seeded capture through each layer's public functions (the traced run
//! and the correctness reference), then measures the untraced serving
//! path: saturated passes for `pps`, an open-loop paced phase for latency
//! and control calls, and a recording pass for `flow_accuracy` and the
//! verdict census. Every metric is printed by name and unit; the last
//! line is the JSON result. Any failed check, or an error that ends the
//! run early, counts in `failed` and makes the run exit with code 1.
//! `perfbench/METRICS.md` is the metric dictionary.

mod capture;
mod daemon_ops;
mod engine_ops;
mod host;
mod models;
mod replay;
mod report;
mod workloads;

use engine_ops::Samples;
use report::{median, quantile, Ledger, Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Setup, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Shares of `--seconds` given to the saturated and the paced phase.
/// `pps` is the only bounded metric the time buys steadiness for, so it
/// gets most of it.
const PPS_SHARE: f64 = 0.7;
const PACED_SHARE: f64 = 0.15;
/// Engine restarts measured for `recovery_s`: at least this many, more
/// while they stay cheap.
const MIN_RESTARTS: usize = 3;
const MAX_RESTARTS: usize = 25;
const RESTART_TIME: Duration = Duration::from_secs(1);
/// Where runs keep their files (daemon state, captures), in the checkout.
const RUN_ROOT: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ! {
    eprintln!(
        "{why}\nusage: perfbench --workload <stat-mlp|flow-cnn-churn|daemon-ops> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("missing or unknown --workload")),
        seed: seed.unwrap_or_else(|| usage("missing or invalid --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing or invalid --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing or invalid --trace")),
    }
}

fn main() {
    let args = parse_args();
    let ticks = host::ticks();
    let mut metrics = Metrics::default();
    let mut ledger = Ledger::default();
    let run_dir = PathBuf::from(RUN_ROOT).join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &run_dir, &mut metrics, &mut ledger));
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(RUN_ROOT);
    let achieved_pps = match result {
        Ok(pps) => Some(pps),
        Err(e) => {
            ledger.abort(format!("run ended early: {e}"));
            None
        }
    };
    let fp = host::fingerprint(ticks, args.workload.pacing().rate_pps, achieved_pps);
    metrics.set("host.steal_frac", fp.steal_frac);
    metrics.set("host.iowait_frac", fp.iowait_frac);
    metrics.set("host.unrepresentative", if fp.reasons.is_empty() { 0.0 } else { 1.0 });
    if achieved_pps.is_some() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            let present = metrics.0.get(name).is_some_and(|v| v.is_finite());
            ledger.check(&format!("metric {name} measured"), present, String::new);
        }
    }
    for f in &ledger.failures {
        eprintln!("perfbench: {f}");
    }
    metrics.print(args.trace, &ledger);
    if ledger.failed > 0 {
        std::process::exit(1);
    }
}

/// Runs the workload into `m` and `ledger`; returns the frame rate the
/// paced phase achieved. An `Err` is an error that ended the run early.
fn run(
    args: &Args,
    run_dir: &std::path::Path,
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<f64, String> {
    let pacing = args.workload.pacing();
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let err = |e: pegasus_core::PegasusError| e.to_string();
    if args.workload != Workload::DaemonOps {
        return in_process(args, m, ledger, budget(PPS_SHARE), budget(PACED_SHARE));
    }
    let mut times = daemon_ops::CtlTimes::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        let setup = workloads::setup(args.workload, args.seed).map_err(err)?;
        let paths = daemon_ops::Paths::new(&run_dir.join(format!("setup{rep}")));
        daemon_ops::write_files(&paths, &setup.capture, pacing)
            .map_err(|e| format!("writing captures: {e}"))?;
        let (mut live, _) = daemon_ops::start(&paths)?;
        daemon_ops::provision(&mut live, &setup, &mut times, ledger);
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            live.stop(&mut times, ledger);
        } else {
            kept = Some((setup, paths, live));
        }
    }
    let (setup, paths, live) = kept.expect("at least one set-up");
    let replay = replay::run(&setup.served, &setup.capture).map_err(err)?;
    let r = daemon_ops::run(
        live,
        &paths,
        &setup,
        &replay,
        budget(PPS_SHARE),
        budget(PACED_SHARE),
        &mut times,
        ledger,
    );
    let pps = throughput(setup.capture.len(), &r.pass_s);
    set_common(m, &setup, &replay, &setup_s, pps);
    m.set("pps", pps);
    m.set("peak_rss_mb", r.peak_rss_mb);
    m.set("latency_p50_us", quantile(&r.latency_us, 0.5));
    m.set("latency_p99_us", quantile(&r.latency_us, 0.99));
    m.set("control_p50_us", quantile(&times.all_us, 0.5));
    m.set("control_p99_us", quantile(&times.all_us, 0.99));
    m.set("flow_accuracy", r.accuracy);
    m.set("recovery_s", median(&r.recovery_s));
    for (name, verb) in [
        ("ctl.load_us", "load"),
        ("ctl.attach_us", "attach"),
        ("ctl.swap_us", "swap"),
        ("ctl.stats_us", "stats"),
        ("ctl.list_us", "list"),
        ("ctl.detach_us", "detach"),
    ] {
        m.set(name, times.median_us(verb));
    }
    m.set("ctl.ingest_ms", median(&times.ingest_ms));
    m.set("ctl.registry_bytes", r.registry_bytes as f64);
    m.set("load.lag_p99_us", quantile(&r.lag_us, 0.99));
    m.set("load.lag_max_us", quantile(&r.lag_us, 1.0));
    m.set("control.apply_us", median(&r.apply_us));
    m.set("control.router_rebuild_us", median(&times.rebuild_us));
    m.set("server.busy_ns_per_pkt", r.busy_ns_per_pkt);
    m.set("server.push_ns", median(&times.push_ns));
    m.set("server.drain_ms", median(&times.drain_ms));
    // The engine's own control calls run inside the daemon; this
    // workload measures them as `ctl.*` round trips.
    m.zero(&[
        "control.attach_us",
        "control.swap_us",
        "control.stats_us",
        "control.detach_us",
        "control.adopted_slots",
        "server.flush_us",
        "server.worker_busy_frac",
    ]);
    flow_counters(m, &replay.tables, replay.routed());
    Ok(r.achieved_pps)
}

/// Metrics every workload derives the same way from its set-up and
/// replay.
fn set_common(m: &mut Metrics, setup: &Setup, replay: &replay::Replay, setup_s: &[f64], pps: f64) {
    let t = &replay.times;
    let frames = setup.capture.len() as f64;
    m.set("setup_s", median(setup_s));
    m.set("setup.train_s", setup.stages.train_s);
    m.set("setup.compile_s", setup.stages.compile_s);
    m.set("setup.verify_ms", setup.stages.verify_ms);
    m.set("setup.deploy_ms", setup.stages.deploy_ms);
    m.set("setup.capture_s", setup.capture_s);
    m.set("wire.parse_ns", t.parse_ns);
    m.set("wire.reject_frac", replay.rejected.iter().sum::<u64>() as f64 / frames);
    m.set("router.route_ns", t.route_ns);
    m.set("router.build_us", t.router_build_us);
    m.set("router.residual_scans_per_pkt", t.residual_scans_per_pkt);
    m.set("flow.admit_ns", t.admit_ns);
    m.set("features.extract_ns", t.features_ns);
    m.set("flat.classify_ns", t.classify_ns);
    m.set("flat.classify_batch_ns", t.classify_batch_ns);
    m.set("flowpipe.on_packet_ns", t.on_packet_ns);
    let served = &setup.served;
    let flat = served.nets[served.tenants[0].net].flat();
    m.set("flat.scan_tables", flat.map_or(0.0, |f| f.scan_tables() as f64));
    m.set("flat.dense_tables", flat.map_or(0.0, |f| f.dense_tables() as f64));
    let untraced_ns = 1e9 / pps.max(1e-9);
    m.set("trace.overhead_frac", t.traced_total_ns / frames / untraced_ns - 1.0);
    m.set("trace.unaccounted_frac", (untraced_ns - t.layer_sum_ns / frames) / untraced_ns);
}

/// Flow-table churn per thousand routed packets, and occupancy.
fn flow_counters(m: &mut Metrics, tables: &[replay::TableCounts], routed: u64) {
    let kpkt = routed.max(1) as f64 / 1e3;
    let sum = |f: fn(&replay::TableCounts) -> u64| tables.iter().map(f).sum::<u64>() as f64;
    m.set("flow.evictions_per_kpkt", sum(|t| t.evictions) / kpkt);
    m.set("flow.alias_collisions_per_kpkt", sum(|t| t.alias_collisions) / kpkt);
    m.set("flow.occupancy_frac", sum(|t| t.occupancy) / sum(|t| t.capacity).max(1.0));
}

fn in_process(
    args: &Args,
    m: &mut Metrics,
    ledger: &mut Ledger,
    pps_budget: Duration,
    paced_budget: Duration,
) -> Result<f64, String> {
    let err = |e: pegasus_core::PegasusError| e.to_string();
    let mut samples = Samples::default();
    // Only `daemon-ops` goes through the daemon.
    m.zero(&[
        "ctl.load_us",
        "ctl.attach_us",
        "ctl.swap_us",
        "ctl.stats_us",
        "ctl.list_us",
        "ctl.detach_us",
        "ctl.ingest_ms",
        "ctl.registry_bytes",
    ]);
    // Three set-ups, each timed until every tenant is attached. Their
    // engines are shut down at once, so no later phase runs beside them.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let setup = workloads::setup(args.workload, args.seed).map_err(err)?;
        let engine = engine_ops::start(&setup.served, false, &mut samples).map_err(err)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        ledger.call("shutdown", engine.server.shutdown());
        kept = Some(setup);
    }
    let mut setup = kept.expect("at least one set-up");

    let replay = replay::run(&setup.served, &setup.capture).map_err(err)?;
    let frames = setup.capture.len() as u64;

    // Recording pass: census against the replay, and flow accuracy.
    ledger.ok(frames);
    let engine = engine_ops::start(&setup.served, true, &mut samples).map_err(err)?;
    let report = engine_ops::census_pass(engine, &mut setup.capture).map_err(err)?;
    engine_ops::check_report("census", &report, &replay, &setup.capture, frames, ledger);
    let censuses: Vec<_> = report
        .tenants
        .iter()
        .filter_map(|t| t.result.as_ref().ok().map(engine_ops::engine_census))
        .collect();
    m.set("flow_accuracy", engine_ops::accuracy(&censuses, &setup.capture));
    let tables: Vec<_> = report
        .tenants
        .iter()
        .filter_map(|t| t.result.as_ref().ok().map(engine_ops::engine_table))
        .collect();
    flow_counters(m, &tables, replay.routed());
    drop((report, censuses));

    // The peak resident set from here on is the serving phases'.
    ledger.check("peak RSS reset", host::reset_peak_rss(), String::new);

    // Saturated passes, each on a freshly started engine: every start is
    // a cold restart (build + attach every tenant), timed for
    // `recovery_s`.
    let mut restarts = Vec::new();
    let mut pass_s = Vec::new();
    let mut drain_ms = Vec::new();
    let mut busy_ns = Vec::new();
    let mut busy_frac = Vec::new();
    let started = Instant::now();
    while another_pass(started, &pass_s, pps_budget) {
        let e = restart(&setup.served, &mut samples, &mut restarts)?;
        ledger.ok(frames);
        let pass = engine_ops::saturate(e, &mut setup.capture, false).map_err(err)?;
        engine_ops::check_report("pps", &pass.report, &replay, &setup.capture, frames, ledger);
        let (busy, packets) = busy_of(&pass.report);
        pass_s.push(pass.elapsed_s);
        drain_ms.push(pass.drain_ms);
        busy_ns.push(busy / packets.max(1) as f64);
        busy_frac.push(busy / (pass.elapsed_s * 1e9));
    }
    // Restart-only cycles for `recovery_s`; each also times one detach.
    let started = Instant::now();
    while restarts.len() < MIN_RESTARTS
        || (restarts.len() < MAX_RESTARTS && started.elapsed() < RESTART_TIME)
    {
        let e = restart(&setup.served, &mut samples, &mut restarts)?;
        let control = e.server.control();
        let t0 = Instant::now();
        ledger.call("detach", control.detach(e.tokens[0]));
        samples.detach_us.push(t0.elapsed().as_secs_f64() * 1e6);
        ledger.call("shutdown", e.server.shutdown());
    }
    if args.trace {
        let e = restart(&setup.served, &mut samples, &mut restarts)?;
        ledger.ok(frames);
        let pass = engine_ops::saturate(e, &mut setup.capture, true).map_err(err)?;
        engine_ops::check_report(
            "timed push",
            &pass.report,
            &replay,
            &setup.capture,
            frames,
            ledger,
        );
        m.set("server.push_ns", pass.push_ns.unwrap_or(0.0));
    } else {
        m.set("server.push_ns", 0.0);
    }
    let paced_engine = restart(&setup.served, &mut samples, &mut restarts)?;

    // Open-loop latency phase with control calls beside it.
    let pacing = args.workload.pacing();
    engine_ops::paced(
        paced_engine,
        &setup.served,
        &setup.capture,
        &replay,
        pacing,
        paced_budget,
        &mut samples,
        ledger,
    )
    .map_err(err)?;
    m.set("peak_rss_mb", host::peak_rss_mb());

    let pps = throughput(setup.capture.len(), &pass_s);
    set_common(m, &setup, &replay, &setup_s, pps);
    m.set("pps", pps);
    m.set("latency_p50_us", quantile(&samples.latency_us, 0.5));
    m.set("latency_p99_us", quantile(&samples.latency_us, 0.99));
    m.set("control_p50_us", quantile(&samples.control_us, 0.5));
    m.set("control_p99_us", quantile(&samples.control_us, 0.99));
    m.set("recovery_s", median(&restarts));
    m.set("server.flush_us", median(&samples.flush_us));
    m.set("server.busy_ns_per_pkt", median(&busy_ns));
    m.set("server.worker_busy_frac", median(&busy_frac));
    m.set("server.drain_ms", median(&drain_ms));
    m.set("control.attach_us", median(&samples.attach_us));
    m.set("control.swap_us", median(&samples.swap_us));
    m.set("control.stats_us", median(&samples.stats_us));
    m.set("control.detach_us", median(&samples.detach_us));
    m.set("control.apply_us", median(&samples.apply_us));
    m.set("control.router_rebuild_us", median(&samples.rebuild_us));
    m.set("control.adopted_slots", samples.adopted_slots as f64);
    m.set("load.lag_p99_us", quantile(&samples.lag_us, 0.99));
    m.set("load.lag_max_us", quantile(&samples.lag_us, 1.0));
    println!(
        "samples: {} pps passes, {} bursts, {} control calls, {} restarts",
        pass_s.len(),
        samples.latency_us.len(),
        samples.control_us.len(),
        restarts.len()
    );
    let q = |v: &[f64]| {
        [0.5, 0.9, 0.95, 0.99, 0.999, 1.0].map(|p| format!("{:.0}", quantile(v, p))).join("/")
    };
    let passes: Vec<String> = pass_s.iter().map(|s| format!("{:.0}", frames as f64 / s)).collect();
    println!("pps passes: {}", passes.join(" "));
    println!("latency p50/90/95/99/99.9/max us: {}", q(&samples.latency_us));
    println!("lag p50/90/95/99/99.9/max us: {}", q(&samples.lag_us));
    println!("control p50/90/95/99/99.9/max us: {}", q(&samples.control_us));
    Ok(samples.achieved_pps)
}

/// Saturated throughput of a run: the rate of its fastest pass of the
/// whole capture. The host alternates between a slow and a fast phase
/// lasting seconds (even with both threads on one CPU, `stat-mlp` passes
/// cluster near 170k and 290k frames/s), and how much of a run falls in
/// the slow one varies from run to run. Interference only ever slows a
/// pass, so the fastest pass tracks the program: over six `stat-mlp` runs
/// on a 2-vCPU Xeon VM its IQR/median was 0.059, against 0.116 for all
/// frames over all pass time and 0.167 for the median pass.
fn throughput(frames: usize, pass_s: &[f64]) -> f64 {
    frames as f64 / pass_s.iter().copied().fold(f64::INFINITY, f64::min).max(1e-9)
}

/// Whether the saturated phase that began at `started` runs one more
/// pass: always a first one, then while the next is expected to end
/// nearer the budget than the last did. A `flow-cnn-churn` pass lasts
/// seconds, so stopping only once the budget is spent would overshoot it
/// by most of a pass.
fn another_pass(started: Instant, pass_s: &[f64], budget: Duration) -> bool {
    if pass_s.is_empty() {
        return true;
    }
    let mean = pass_s.iter().sum::<f64>() / pass_s.len() as f64;
    started.elapsed().as_secs_f64() + mean / 2.0 < budget.as_secs_f64()
}

/// Starts an engine for a serving phase and times the start.
fn restart(
    served: &workloads::Served,
    samples: &mut Samples,
    restarts: &mut Vec<f64>,
) -> Result<engine_ops::Engine, String> {
    let t0 = Instant::now();
    let e = engine_ops::start(served, false, samples).map_err(|e| e.to_string())?;
    restarts.push(t0.elapsed().as_secs_f64());
    Ok(e)
}

/// Worker busy nanoseconds and packets over every tenant of a report.
fn busy_of(report: &pegasus_core::EngineReport) -> (f64, u64) {
    let mut busy = 0u64;
    let mut packets = 0u64;
    for t in &report.tenants {
        if let Ok(r) = &t.result {
            busy += r.shards.iter().map(|s| s.busy_nanos).sum::<u64>();
            packets += r.packets;
        }
    }
    (busy as f64, packets)
}
