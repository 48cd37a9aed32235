//! `daemon-ops`: an in-process `pegasusd` (one shard, its own state
//! directory under the run directory) driven by one `CtlClient`
//! connection, serving a small routed fleet, then shut down and restarted
//! on the same state directory.

use crate::capture::Capture;
use crate::engine_ops::{engine_census, engine_table};
use crate::models::Net;
use crate::replay::{Census, Fate, Replay, TableCounts};
use crate::report::{median, Ledger};
use crate::workloads::{Pacing, Served, Setup};
use pegasus_core::{DataplaneNet, Deployment};
use pegasus_ctl::artifact::{ArtifactFile, ArtifactPayload};
use pegasus_ctl::client::CtlClient;
use pegasus_ctl::daemon::{Daemon, DaemonConfig, DaemonError};
use pegasus_ctl::protocol::{Request, Response, TenantState, WireEngineStats, WireTenantConfig};
use pegasus_switch::SwitchConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The loaded artifacts, by net index.
const ARTIFACTS: [&str; 3] = ["mlp-a", "mlp-b", "rnn-b"];
/// Daemon restarts per run; `recovery_s` is their median.
const RESTARTS: usize = 9;
/// Burst files written for the latency phase (cycled).
const BURST_FILES: usize = 64;
const WAIT_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause between two `stats` polls of a tenant's progress.
const POLL_PAUSE: Duration = Duration::from_micros(200);

/// A running daemon and the client connected to it.
pub struct Live {
    thread: JoinHandle<Result<(), DaemonError>>,
    client: CtlClient,
}

/// Round-trip times of every client call, by verb.
#[derive(Default)]
pub struct CtlTimes {
    pub by_verb: BTreeMap<&'static str, Vec<f64>>,
    pub all_us: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    /// Saturated ingests: the daemon's push time per frame, and the drain
    /// from the `ingest-pcap` reply until `stats` shows every frame done.
    pub push_ns: Vec<f64>,
    pub drain_ms: Vec<f64>,
    /// `RoutingCounters::last_rebuild_micros` from each `stats` reply.
    pub rebuild_us: Vec<f64>,
}

impl CtlTimes {
    pub fn median_us(&self, verb: &str) -> f64 {
        self.by_verb.get(verb).map_or(0.0, |v| median(v))
    }
}

fn verb(req: &Request) -> &'static str {
    match req {
        Request::Ping => "ping",
        Request::Load { .. } => "load",
        Request::Attach { .. } => "attach",
        Request::Swap { .. } => "swap",
        Request::Detach { .. } => "detach",
        Request::List => "list",
        Request::Stats => "stats",
        Request::IngestPcap { .. } => "ingest",
        Request::Shutdown => "shutdown",
    }
}

/// The files and config one daemon run uses.
pub struct Paths {
    pub state_dir: PathBuf,
    pub socket: PathBuf,
    pub capture: PathBuf,
    pub bursts: Vec<PathBuf>,
}

impl Paths {
    pub fn new(dir: &Path) -> Paths {
        Paths {
            state_dir: dir.join("state"),
            socket: dir.join("d.sock"),
            capture: dir.join("capture.pcap"),
            bursts: (0..BURST_FILES).map(|i| dir.join(format!("burst{i:02}.pcap"))).collect(),
        }
    }

    fn config(&self) -> DaemonConfig {
        DaemonConfig {
            state_dir: self.state_dir.clone(),
            socket: self.socket.clone(),
            shards: 1,
            batch: DaemonConfig::default().batch,
        }
    }
}

/// The artifact file of a deployed stateless program.
pub fn artifact_bytes(setup: &Setup, net: usize) -> Vec<u8> {
    fn stateless<M: DataplaneNet>(d: &Deployment<M>) -> ArtifactPayload {
        let pipeline = d.dataplane().expect("stateless deployment").pipeline().clone();
        ArtifactPayload::Stateless { features: d.model().stream_features(), pipeline }
    }
    let payload = match &setup.served.nets[net] {
        Net::Mlp(d) => stateless(d),
        Net::Rnn(d) => stateless(d),
        Net::Cnn(_) => unreachable!("daemon-ops serves stateless programs"),
    };
    ArtifactFile { switch: SwitchConfig::tofino2(), payload }.to_bytes()
}

/// Writes the capture and the latency phase's burst files.
pub fn write_files(paths: &Paths, cap: &Capture, pacing: Pacing) -> std::io::Result<()> {
    std::fs::create_dir_all(&paths.state_dir)?;
    cap.write_pcap(&paths.capture, 0..cap.len())?;
    for (i, path) in paths.bursts.iter().enumerate() {
        let start = (i * pacing.burst) % cap.len();
        cap.write_pcap(path, start..(start + pacing.burst).min(cap.len()))?;
    }
    Ok(())
}

/// Starts the daemon on `paths` and connects one client; returns once
/// the socket answers, with the time `Daemon::start` took (on an existing
/// state directory: replaying the registry and re-attaching every tenant).
pub fn start(paths: &Paths) -> Result<(Live, Duration), String> {
    let t0 = Instant::now();
    let (daemon, _) = Daemon::start(&paths.config()).map_err(|e| e.to_string())?;
    let took = t0.elapsed();
    let thread = std::thread::spawn(move || daemon.run());
    let deadline = Instant::now() + WAIT_TIMEOUT;
    loop {
        match CtlClient::connect(&paths.socket) {
            Ok(client) => return Ok((Live { thread, client }, took)),
            Err(e) if Instant::now() > deadline || thread.is_finished() => {
                return Err(format!("daemon did not come up: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

/// What a range of capture frames should do to the daemon's counters,
/// by the replay.
#[derive(Clone, Copy, Default)]
struct Expected {
    frames: u64,
    routed: u64,
    unrouted: u64,
    rejected: [u64; 4],
}

impl Expected {
    fn of(replay: &Replay, range: std::ops::Range<usize>) -> Expected {
        let mut e = Expected { frames: range.len() as u64, ..Expected::default() };
        for fate in &replay.fate[range] {
            match fate {
                Fate::Tenant(_) => e.routed += 1,
                Fate::Unrouted => e.unrouted += 1,
                Fate::Rejected(k) => e.rejected[*k] += 1,
            }
        }
        e
    }

    fn add(&mut self, o: &Expected) {
        self.frames += o.frames;
        self.routed += o.routed;
        self.unrouted += o.unrouted;
        for (a, b) in self.rejected.iter_mut().zip(o.rejected) {
            *a += b;
        }
    }
}

/// The frames offered to the running daemon since it started, and the
/// packets routed to fleets it has already detached.
#[derive(Default)]
struct Offered {
    expected: Expected,
    routed_detached: u64,
}

impl Offered {
    /// Checks a `stats` reply against the frames offered: unrouted and
    /// parse-error buckets equal the replay's, and routed + unrouted +
    /// rejected equals offered.
    fn check(&self, phase: &str, s: &WireEngineStats, ledger: &mut Ledger) {
        let e = &self.expected;
        let p = s.parse_errors;
        ledger.check_eq(&format!("{phase}: unrouted frames"), s.unrouted, e.unrouted);
        ledger.check_eq(
            &format!("{phase}: parse-error buckets equal the injected frames"),
            [p.truncated, p.checksum, p.malformed, p.unsupported],
            e.rejected,
        );
        let routed: u64 = s.tenants.iter().map(|t| t.routed_packets).sum();
        ledger.check_eq(
            &format!("{phase}: routed + unrouted + rejected = offered"),
            self.routed_detached + routed + s.unrouted + p.total(),
            e.frames,
        );
    }
}

impl Live {
    /// One timed round trip. `Response::Error` and client errors count
    /// as failures.
    fn call(
        &mut self,
        req: Request,
        times: &mut CtlTimes,
        ledger: &mut Ledger,
    ) -> Option<Response> {
        let name = verb(&req);
        let t0 = Instant::now();
        let r = self.client.call(&req);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        times.by_verb.entry(name).or_default().push(us);
        times.all_us.push(us);
        match ledger.call(name, r)? {
            Response::Error(e) => {
                ledger.fail(format!("{name}: {e}"));
                None
            }
            ok => Some(ok),
        }
    }

    fn stats(&mut self, times: &mut CtlTimes, ledger: &mut Ledger) -> Option<WireEngineStats> {
        match self.call(Request::Stats, times, ledger)? {
            Response::Stats(s) => {
                times.rebuild_us.push(s.routing.last_rebuild_micros as f64);
                Some(s)
            }
            other => {
                ledger.fail(format!("stats: unexpected reply {other:?}"));
                None
            }
        }
    }

    /// Polls `stats` until the fleet has processed `packets` in total
    /// (and `swapped` has applied its epoch, when given); returns the last
    /// reply. A tenant marked failed, or a timeout, fails the run.
    fn wait_processed(
        &mut self,
        packets: u64,
        swapped: Option<(&str, u64)>,
        times: &mut CtlTimes,
        ledger: &mut Ledger,
    ) -> Option<WireEngineStats> {
        let deadline = Instant::now() + WAIT_TIMEOUT;
        loop {
            let s = self.stats(times, ledger)?;
            if let Some(t) = s.tenants.iter().find(|t| t.failed) {
                ledger.fail(format!("tenant {} marked failed", t.name));
                return None;
            }
            let done: u64 = s.tenants.iter().map(|t| t.report.packets).sum();
            let applied = swapped.is_none_or(|(name, epoch)| {
                s.tenants.iter().any(|t| t.name == name && t.report.swap.applied_epoch == epoch)
            });
            if done >= packets && applied {
                return Some(s);
            }
            if Instant::now() > deadline {
                ledger.fail(format!("{packets} packets not processed in time ({done} done)"));
                return None;
            }
            // The daemon thread serving these polls would otherwise take
            // the CPU the shard worker needs (three threads, two vCPUs).
            std::thread::sleep(POLL_PAUSE);
        }
    }

    /// Sends `shutdown` and joins the daemon thread.
    pub fn stop(mut self, times: &mut CtlTimes, ledger: &mut Ledger) {
        self.call(Request::Shutdown, times, ledger);
        match self.thread.join() {
            Ok(r) => {
                ledger.call("daemon exit", r);
            }
            Err(_) => ledger.fail("daemon thread panicked".to_string()),
        }
    }
}

/// Attaches every tenant of the workload's fleet, in order.
fn attach_fleet(
    live: &mut Live,
    served: &Served,
    record: bool,
    times: &mut CtlTimes,
    ledger: &mut Ledger,
) {
    for t in &served.tenants {
        let req = Request::Attach {
            tenant: t.name.clone(),
            artifact: ARTIFACTS[t.net].to_string(),
            config: WireTenantConfig {
                route: t.route.clone(),
                record_predictions: record,
                ..Default::default()
            },
        };
        live.call(req, times, ledger);
    }
}

/// Brings a set-up daemon to the ready-to-serve state: loads every
/// artifact and attaches the fleet, recording predictions.
pub fn provision(live: &mut Live, setup: &Setup, times: &mut CtlTimes, ledger: &mut Ledger) {
    for (net, name) in ARTIFACTS.iter().enumerate() {
        let req = Request::Load { name: name.to_string(), artifact: artifact_bytes(setup, net) };
        live.call(req, times, ledger);
    }
    attach_fleet(live, &setup.served, true, times, ledger);
}

/// Ingests the whole capture, waits until the fleet has processed
/// `target` packets since it was attached, checks the daemon's counters,
/// and returns the seconds from the request until then.
fn ingest_all(
    live: &mut Live,
    paths: &Paths,
    replay: &Replay,
    offered: &mut Offered,
    target: u64,
    times: &mut CtlTimes,
    ledger: &mut Ledger,
) -> Option<f64> {
    let frames = replay.fate.len() as u64;
    let t0 = Instant::now();
    let req = Request::IngestPcap { path: paths.capture.display().to_string() };
    let r = live.call(req, times, ledger)?;
    let pushed = Instant::now();
    times.ingest_ms.push((pushed - t0).as_secs_f64() * 1e3);
    times.push_ns.push((pushed - t0).as_secs_f64() * 1e9 / frames as f64);
    ledger.ok(frames);
    offered.expected.add(&Expected::of(replay, 0..replay.fate.len()));
    if !matches!(r, Response::Ingested { frames: f } if f == frames) {
        ledger.fail(format!("ingest-pcap: unexpected reply {r:?}"));
    }
    let s = live.wait_processed(target, None, times, ledger)?;
    let elapsed = t0.elapsed();
    times.drain_ms.push(pushed.elapsed().as_secs_f64() * 1e3);
    offered.check("ingest", &s, ledger);
    Some(elapsed.as_secs_f64())
}

/// One detached tenant's terminal report, reduced.
struct Detached {
    census: Census,
    table: TableCounts,
    epoch: u64,
    busy_nanos: u64,
}

/// Detaches every tenant of the fleet; returns their reports in attach
/// order (`None` if any detach failed).
fn detach_fleet(
    live: &mut Live,
    served: &Served,
    offered: &mut Offered,
    times: &mut CtlTimes,
    ledger: &mut Ledger,
) -> Option<Vec<Detached>> {
    let mut out = Vec::with_capacity(served.tenants.len());
    for t in &served.tenants {
        let req = Request::Detach { tenant: t.name.clone() };
        let rep = match live.call(req, times, ledger)? {
            Response::Detached(rep) => rep,
            other => {
                ledger.fail(format!("detach: unexpected reply {other:?}"));
                return None;
            }
        };
        offered.routed_detached += rep.routed_packets;
        if let Some(e) = &rep.error {
            ledger.fail(format!("{}: tenant failed: {e}", t.name));
        }
        let r = ledger.call("detach report", rep.report.ok_or("no report"))?;
        let lost = rep.routed_packets.saturating_sub(r.packets);
        for _ in 0..lost {
            ledger.fail(format!("{}: routed frame without a verdict", t.name));
        }
        out.push(Detached {
            census: engine_census(&r),
            table: engine_table(&r),
            epoch: rep.epoch,
            busy_nanos: r.shards.iter().map(|s| s.busy_nanos).sum(),
        });
    }
    Some(out)
}

/// What the daemon phases measured.
#[derive(Default)]
pub struct DaemonResult {
    /// Seconds of each saturated ingest of the whole capture.
    pub pass_s: Vec<f64>,
    pub latency_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub apply_us: Vec<f64>,
    pub registry_bytes: u64,
    pub accuracy: f64,
    /// Capture frames the paced phase ingested per second of its run.
    pub achieved_pps: f64,
    /// Worker busy time per packet of the non-recording fleet.
    pub busy_ns_per_pkt: f64,
    /// `VmHWM` over the saturated and paced phases.
    pub peak_rss_mb: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Every phase after set-up. `live` is the provisioned daemon.
#[allow(clippy::too_many_arguments)]
pub fn run(
    mut live: Live,
    paths: &Paths,
    setup: &Setup,
    replay: &Replay,
    pps_budget: Duration,
    paced_budget: Duration,
    times: &mut CtlTimes,
    ledger: &mut Ledger,
) -> DaemonResult {
    let mut out = DaemonResult::default();
    let served = &setup.served;
    let cap = &setup.capture;
    let routed = replay.routed();
    let mut offered = Offered::default();
    // The daemon's parse-error buckets are checked against the replay's,
    // and the replay's against the frames injected.
    ledger.check_eq(
        "daemon: replay rejects exactly the injected frames",
        replay.rejected,
        [cap.truncated, cap.bad_checksum, 0, 0],
    );

    // 1. Census before the restart, through the recording fleet.
    ingest_all(&mut live, paths, replay, &mut offered, routed, times, ledger);
    let before = detach_fleet(&mut live, served, &mut offered, times, ledger);
    if let Some(before) = &before {
        for ((t, d), want) in served.tenants.iter().zip(before).zip(&replay.census) {
            ledger.check(&format!("daemon: {} verdict census", t.name), d.census == *want, || {
                format!("{} vs {} packets", d.census.packets, want.packets)
            });
        }
        ledger.check_eq(
            "daemon: flow-table counters",
            before.iter().map(|d| d.table).collect::<Vec<_>>(),
            replay.tables.clone(),
        );
        out.accuracy = crate::engine_ops::accuracy(before.iter().map(|d| &d.census), cap);
    }

    // The peak resident set from here on is the serving phases'.
    ledger.check("peak RSS reset", crate::host::reset_peak_rss(), String::new);

    // 2. Saturated ingest into a non-recording fleet.
    attach_fleet(&mut live, served, false, times, ledger);
    let mut processed = 0u64;
    let t0 = Instant::now();
    while crate::another_pass(t0, &out.pass_s, pps_budget) {
        processed += routed;
        match ingest_all(&mut live, paths, replay, &mut offered, processed, times, ledger) {
            Some(s) => out.pass_s.push(s),
            None => break,
        }
    }

    // 3. Paced bursts with swap/stats/list calls between them.
    let pacing = crate::workloads::Workload::DaemonOps.pacing();
    let interval = pacing.interval();
    let bursts: Vec<Expected> = (0..BURST_FILES)
        .map(|i| {
            let start = (i * pacing.burst) % cap.len();
            Expected::of(replay, start..(start + pacing.burst).min(cap.len()))
        })
        .collect();
    let (swapped, swap_nets) = served.swap;
    let swapped = served.tenants[swapped].name.as_str();
    let mut swaps = 0u64;
    let mut ops = 0usize;
    // Ingests burst file `b`; true if the daemon took it.
    let mut ingest_burst = |live: &mut Live,
                            b: usize,
                            processed: &mut u64,
                            times: &mut CtlTimes,
                            ledger: &mut Ledger| {
        let req = Request::IngestPcap { path: paths.bursts[b].display().to_string() };
        let ok = live.call(req, times, ledger).is_some();
        if ok {
            ledger.ok(bursts[b].frames);
            offered.expected.add(&bursts[b]);
            *processed += bursts[b].routed;
        }
        ok
    };
    let start = Instant::now();
    let mut next_control = start + pacing.control_every;
    let mut burst = 0u32;
    while start.elapsed() < paced_budget {
        let due = start + interval * burst;
        let b = burst as usize % BURST_FILES;
        burst += 1;
        out.lag_us.push(crate::engine_ops::wait_until(due).as_secs_f64() * 1e6);
        if ingest_burst(&mut live, b, &mut processed, times, ledger)
            && live.wait_processed(processed, None, times, ledger).is_some()
        {
            out.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
        }
        // Control calls cycle swap, stats, list, stats.
        if Instant::now() >= next_control {
            next_control = (next_control + pacing.control_every).max(Instant::now());
            ops += 1;
            match ops % 4 {
                0 => {
                    let to = swap_nets[(swaps as usize + 1) % 2];
                    let req = Request::Swap {
                        tenant: swapped.to_string(),
                        artifact: ARTIFACTS[to].to_string(),
                    };
                    if let Some(Response::Swapped { epoch, apply_micros, .. }) =
                        live.call(req, times, ledger)
                    {
                        swaps += 1;
                        out.apply_us.push(apply_micros as f64);
                        ledger.check_eq("daemon: swap epoch counts the swaps", epoch, swaps);
                    }
                }
                2 => {
                    live.call(Request::List, times, ledger);
                }
                _ => {
                    live.stats(times, ledger);
                }
            }
        }
    }
    out.achieved_pps = f64::from(burst) * pacing.burst as f64 / start.elapsed().as_secs_f64();
    // One more burst after the last control call: the shard adopts a swap
    // at its next packet boundary, then every pending one once idle.
    ingest_burst(&mut live, burst as usize % BURST_FILES, &mut processed, times, ledger);
    if let Some(s) = live.wait_processed(processed, Some((swapped, swaps)), times, ledger) {
        offered.check("paced", &s, ledger);
    }
    out.peak_rss_mb = crate::host::peak_rss_mb();
    if let Some(bulk) = detach_fleet(&mut live, served, &mut offered, times, ledger) {
        for (t, d) in served.tenants.iter().zip(&bulk) {
            let want = if t.name == swapped { swaps } else { 0 };
            ledger.check_eq(&format!("daemon: {} epoch equals its swaps", t.name), d.epoch, want);
        }
        let busy: u64 = bulk.iter().map(|d| d.busy_nanos).sum();
        let packets: u64 = bulk.iter().map(|d| d.census.packets).sum();
        out.busy_ns_per_pkt = busy as f64 / packets.max(1) as f64;
    }

    // 4. Re-register the recording fleet, then restart on the same state.
    attach_fleet(&mut live, served, true, times, ledger);
    for _ in 0..RESTARTS {
        live.stop(times, ledger);
        let Some((next, took)) = start_recovered(paths, served, times, ledger) else { return out };
        out.recovery_s.push(took.as_secs_f64());
        live = next;
    }

    // 5. The recovered fleet must give the same verdicts as before.
    let mut offered = Offered::default();
    ingest_all(&mut live, paths, replay, &mut offered, routed, times, ledger);
    let after = detach_fleet(&mut live, served, &mut offered, times, ledger);
    if let (Some(b), Some(a)) = (&before, &after) {
        for ((t, b), a) in served.tenants.iter().zip(b).zip(a) {
            ledger.check(
                &format!("daemon: recovered {} gives the same verdicts", t.name),
                a.census == b.census,
                || format!("{} vs {} flows", a.census.verdicts.len(), b.census.verdicts.len()),
            );
        }
    } else {
        ledger.fail("daemon: no census to compare across the restart".to_string());
    }
    live.stop(times, ledger);
    out.registry_bytes = dir_bytes(&paths.state_dir);
    out
}

/// Restarts the daemon on the existing state directory and checks with
/// `list` that every registered tenant is serving; returns the daemon and
/// how long its recovery took.
fn start_recovered(
    paths: &Paths,
    served: &Served,
    times: &mut CtlTimes,
    ledger: &mut Ledger,
) -> Option<(Live, Duration)> {
    let (mut live, took) = ledger.call("restart", start(paths))?;
    let Some(Response::Listing(list)) = live.call(Request::List, times, ledger) else {
        ledger.fail("restart: list failed".to_string());
        return Some((live, took));
    };
    let serving = list.tenants.iter().all(|t| matches!(t.state, TenantState::Serving { .. }));
    ledger.check("daemon: every tenant serving after restart", serving, || {
        format!("{} tenants listed", list.tenants.len())
    });
    ledger.check_eq("daemon: tenants recovered", list.tenants.len(), served.tenants.len());
    Some((live, took))
}
