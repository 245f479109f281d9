//! The dual-source exposition fetch both gauge-consuming subcommands
//! share (`doctor`, `heat`): `--snapshot PATH` reads exposition
//! text from a file, otherwise `--addr` (default [`DEFAULT_ADDR`]) is
//! scraped with bounded connect/read timeouts and exactly one retry
//! ([`crate::http::scrape`]) — a dead address is a prompt, explicit
//! failure, never a hang.
//!
//! Defined once so the consumers cannot drift: a snapshot written by
//! the DES and a live `/metrics` scrape arrive through the same code
//! path and the same error wording.

use crate::http;
use lbmf_bench::Args;

/// The default scrape address: `work_stealing --serve`'s default bind.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9478";

/// Fetch exposition text from the source the flags select. `healthz`
/// additionally collects the live process's own `/healthz` verdict
/// (left empty for snapshots — a file has no opinion about itself).
pub fn fetch_exposition(args: &Args, healthz: Option<&mut Vec<String>>) -> Result<String, String> {
    if let Some(path) = args.value("--snapshot") {
        return std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    }
    let addr_text = args.value("--addr").unwrap_or(DEFAULT_ADDR);
    let addr = std::net::ToSocketAddrs::to_socket_addrs(addr_text)
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| format!("cannot resolve --addr {addr_text}"))?;
    let metrics = match http::scrape(addr, "/metrics") {
        Ok((status, body)) if status.contains("200") => body,
        Ok((status, _)) => return Err(format!("GET /metrics: {status}")),
        Err(e) => return Err(format!("GET http://{addr}/metrics: {e}")),
    };
    if let Some(reasons) = healthz {
        // The live process's own verdict rides along: a doctor and a
        // watchdog disagreeing is itself a diagnosis.
        *reasons = match http::scrape(addr, "/healthz") {
            Ok((status, body)) if !status.contains("200") => body
                .lines()
                .skip(1) // the "unhealthy" marker line
                .map(str::to_string)
                .collect(),
            Ok(_) => Vec::new(),
            Err(e) => vec![format!("GET /healthz failed: {e}")],
        };
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_wins_over_addr_and_reads_the_file_verbatim() {
        let path = std::env::temp_dir().join(format!("lbmf_obs_source_{}", std::process::id()));
        std::fs::write(&path, "lbmf_bench_ops{bench=\"x\"} 1\n").unwrap();
        let path_text = path.to_str().unwrap();
        // --addr present but unused: the snapshot short-circuits before
        // any network touch (the addr here would never resolve anyway).
        let argv = ["--snapshot", path_text, "--addr", "no.such.host.invalid:1"];
        let args = Args::from(&argv);
        let mut hz = vec!["stale".to_string()];
        let text = fetch_exposition(&args, Some(&mut hz)).unwrap();
        assert_eq!(text, "lbmf_bench_ops{bench=\"x\"} 1\n");
        assert_eq!(hz, vec!["stale".to_string()], "snapshots never touch healthz");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_and_unresolvable_addr_are_prompt_errors() {
        let argv = ["--snapshot", "/nonexistent/lbmf-obs-source-test"];
        assert!(fetch_exposition(&Args::from(&argv), None)
            .unwrap_err()
            .starts_with("read /nonexistent"));
        let argv = ["--addr", "no.such.host.invalid:1"];
        assert!(fetch_exposition(&Args::from(&argv), None)
            .unwrap_err()
            .contains("cannot resolve"));
    }
}
