//! The server under test: building `star-rings`, starting a fresh
//! `star-rings serve` process, reading its counters over the wire and its
//! CPU and memory from `/proc`, and stopping it.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use star_bench::jsonv::Json;
use star_serve::proto::{read_frame, write_frame, FrameRead};

use crate::workload::{Kind, SERVER_THREADS};

/// Builds the `star-rings` binary from the checkout at `root` and returns
/// its path. Cargo's progress goes to stderr; stdout carries the
/// artifact messages this parses.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "star-rings",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building star-rings failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("star-rings")
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no star-rings executable".to_string())
}

/// A running `star-rings serve` process. Dropping it kills the process.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

/// Counters from one `stats` response.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub served: u64,
    pub literal_hits: u64,
    pub canonical_hits: u64,
    pub misses: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_corrupt: u64,
}

impl Stats {
    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Stats) -> Stats {
        Stats {
            served: self.served - before.served,
            literal_hits: self.literal_hits - before.literal_hits,
            canonical_hits: self.canonical_hits - before.canonical_hits,
            misses: self.misses - before.misses,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            store_hits: self.store_hits - before.store_hits,
            store_misses: self.store_misses - before.store_misses,
            store_corrupt: self.store_corrupt - before.store_corrupt,
        }
    }
}

fn num(doc: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

impl Server {
    /// Starts `serve` on a free loopback port with the workload's flags
    /// and the oracle store at `store`, and waits for it to listen.
    pub fn start(bin: &Path, kind: Kind, store: &Path, log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut command = Command::new(bin);
        // SAFETY: the closure runs in the forked child before exec and
        // makes only the async-signal-safe prctl(2) system call.
        unsafe {
            command.pre_exec(|| {
                // The server dies with the benchmark even if the benchmark
                // is killed before it can stop the server itself.
                const PR_SET_PDEATHSIG: i32 = 1;
                const SIGKILL: u64 = 9;
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = command
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--threads", &SERVER_THREADS.to_string()])
            .arg("--oracle-path")
            .arg(store)
            .args(kind.server_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("star-serve listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "server did not report its address (got `{}`)",
                    line.trim()
                ));
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One `stats` round trip on its own connection (answered inline by
    /// the server, never queued behind embeds).
    pub fn stats(&self) -> Result<Stats, String> {
        let mut conn = TcpStream::connect(&self.addr).map_err(|e| format!("stats connect: {e}"))?;
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        write_frame(&mut conn, br#"{"kind":"stats","id":"bench-stats"}"#)
            .map_err(|e| format!("stats send: {e}"))?;
        let body = match read_frame(&mut conn).map_err(|e| format!("stats recv: {e}"))? {
            FrameRead::Frame(body) => body,
            _ => return Err("no stats response".to_string()),
        };
        let doc = Json::parse(&String::from_utf8_lossy(&body))?;
        Ok(Stats {
            served: num(&doc, &["served"]),
            literal_hits: num(&doc, &["oracle", "literal_hits"]),
            canonical_hits: num(&doc, &["oracle", "canonical_hits"]),
            misses: num(&doc, &["oracle", "misses"]),
            cache_hits: num(&doc, &["cache", "hits"]),
            cache_misses: num(&doc, &["cache", "misses"]),
            store_hits: num(&doc, &["oracle", "store", "hits"]),
            store_misses: num(&doc, &["oracle", "store", "misses"]),
            store_corrupt: num(&doc, &["oracle", "store", "corrupt"]),
        })
    }

    /// User plus system CPU the whole process has used, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) * 1000.0 / clock_ticks_per_s())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Graceful stop: SIGTERM drains the queue and flushes the store's
    /// write-behind before the process exits.
    pub fn stop(mut self) -> Result<(), String> {
        terminate(self.pid());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("server did not drain within 30 s".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn terminate(pid: u32) {
    const SIGTERM: i32 = 15;
    // SAFETY: kill(2) only sends a signal; `pid` is our own child, which
    // has not been reaped yet (its `Child` is alive), so the id cannot
    // have been reused by another process.
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

fn clock_ticks_per_s() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf(3) reads a system constant and has no preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// CPU time the host took from this machine (`steal`) and the total
/// CPU time, both in ticks since boot, from `/proc/stat`.
pub fn host_steal_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    let steal = *ticks.get(7).ok_or("no steal time in /proc/stat")?;
    Ok((steal, ticks.iter().sum()))
}

/// Bytes of every file under `dir` (the store's segments and index).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
