//! The host fingerprint recorded with every run: processor count, CPU
//! model, and steal / iowait ticks from `/proc/stat` over the run.

/// Cumulative CPU ticks of the `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct Ticks {
    pub total: u64,
    pub iowait: u64,
    pub steal: u64,
}

pub fn ticks() -> Ticks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return Ticks::default();
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    let at = |i: usize| v.get(i).copied().unwrap_or(0);
    Ticks { total: v.iter().take(8).sum(), iowait: at(4), steal: at(7) }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory to the kernel, then resets this
/// process's `VmHWM` to its current resident set (writes 5 to
/// `/proc/self/clear_refs`), so a later [`peak_rss_mb`] covers what is
/// live now plus what runs after. Without the trim, memory the earlier
/// phases freed but the allocator kept would count, and how much it
/// keeps varies from run to run by tens of MB. False if the kernel
/// refused the reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: malloc_trim takes no pointers and only releases pages the
    // allocator holds free; it is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Share of the run's CPU ticks stolen by the hypervisor above which the
/// run is marked unrepresentative.
const STEAL_LIMIT: f64 = 0.05;
/// Share of the stated paced rate the generator must achieve.
const RATE_FLOOR: f64 = 0.9;

/// What the fingerprint concluded about a run.
pub struct Fingerprint {
    pub steal_frac: f64,
    pub iowait_frac: f64,
    pub reasons: Vec<String>,
}

/// Compares the ticks at both ends of the run, and the rate the
/// generator achieved against the rate it was asked for (`None` when the
/// run ended before its paced phase); prints the fingerprint as one JSON
/// line.
pub fn fingerprint(start: Ticks, offered_pps: f64, achieved_pps: Option<f64>) -> Fingerprint {
    let end = ticks();
    let total = end.total.saturating_sub(start.total).max(1) as f64;
    let steal = end.steal.saturating_sub(start.steal);
    let iowait = end.iowait.saturating_sub(start.iowait);
    let steal_frac = steal as f64 / total;
    let iowait_frac = iowait as f64 / total;
    let mut reasons = Vec::new();
    if steal_frac > STEAL_LIMIT {
        reasons.push(format!("steal {:.1}% of CPU ticks", steal_frac * 100.0));
    }
    if let Some(achieved_pps) = achieved_pps.filter(|a| *a < RATE_FLOOR * offered_pps) {
        reasons.push(format!(
            "generator fell behind: {achieved_pps:.0} of {offered_pps:.0} frames/s offered"
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reason_list: Vec<String> = reasons.iter().map(|r| format!("\"{r}\"")).collect();
    println!(
        "host {{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"steal_ticks\": {steal}, \
         \"iowait_ticks\": {iowait}, \"total_ticks\": {total}, \"unrepresentative\": {}, \
         \"reasons\": [{}]}}",
        cpu_model().replace('"', "'"),
        !reasons.is_empty(),
        reason_list.join(", ")
    );
    Fingerprint { steal_frac, iowait_frac, reasons }
}
