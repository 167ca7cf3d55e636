//! The served run: the real `comsig serve` binary as a child process,
//! driven over one loopback TCP connection in a closed loop.
//!
//! One client thread sends a request, waits for its reply, and only then
//! sends the next, so the load is what one synchronous feeder can
//! offer: the WAL acknowledges an ingest only after fsync, and a feeder
//! cannot know a batch is durable any earlier.
//!
//! The timed traffic is cut into blocks, each ended by a SIGKILL and a
//! recovery, so the set-up and recovery samples interleave with the
//! traffic samples over the whole run instead of bunching at one end.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::gen::{Request, Shape, Stream, SNAPSHOT_EVERY, TAIL_WINDOWS, WARMUP_WINDOWS};
use crate::stats::Samples;

/// Start-ups before the first block (one more follows every block).
pub const SETUPS: usize = 2;
/// Fewest timed blocks per run, however long they take.
pub const MIN_BLOCKS: usize = 3;
/// Longest wait for a server to become ready or to exit.
const PATIENCE: Duration = Duration::from_secs(120);

/// How to launch one server over a data directory.
pub struct Launch {
    /// The `comsig` binary.
    pub comsig: PathBuf,
    /// Workload flags ([`Shape::serve_flags`]).
    pub flags: Vec<String>,
    /// The seed-events file.
    pub seed_file: PathBuf,
    /// Where the server's stdout/stderr go.
    pub log: PathBuf,
}

/// A running server plus the benchmark's one connection to it. Dropping
/// it SIGKILLs and reaps the child, so no error path leaves a process
/// behind.
pub struct Server {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Server {
    /// Spawns a server on `data_dir` and waits until `status` answers
    /// `ready`. Returns the server and the seconds from spawn to ready.
    ///
    /// # Errors
    /// When the server exits, never listens, or never becomes ready.
    pub fn start(launch: &Launch, data_dir: &Path) -> Result<(Server, f64), String> {
        let addr_file = data_dir.with_extension("addr");
        let _ = fs::remove_file(&addr_file);
        let log = File::options()
            .create(true)
            .append(true)
            .open(&launch.log)
            .map_err(|e| format!("server log {}: {e}", launch.log.display()))?;
        let log_err = log.try_clone().map_err(|e| format!("server log: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(&launch.comsig)
            .arg("serve")
            .args(&launch.flags)
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--seed-events")
            .arg(&launch.seed_file)
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", launch.comsig.display()))?;
        let addr = loop {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "server exited during start-up ({status}); see {}",
                    launch.log.display()
                ));
            }
            if let Ok(text) = fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    break text.trim().to_owned();
                }
            }
            if started.elapsed() > PATIENCE {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server never wrote its address".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let connected = TcpStream::connect(&addr).and_then(|s| {
            s.set_nodelay(true)?;
            Ok((s.try_clone()?, s))
        });
        let (read_half, writer) = match connected {
            Ok(pair) => pair,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connect {addr}: {e}"));
            }
        };
        let mut server = Server {
            child,
            reader: BufReader::new(read_half),
            writer,
        };
        loop {
            let status = server.send(r#"{"op":"status"}"#)?;
            match status.get("phase").and_then(Value::as_str) {
                Some("ready") => break,
                Some("recovering") if started.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => return Err(format!("server status phase {other:?} while starting")),
            }
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// Sends one request line and returns the parsed reply, whatever its
    /// `ok` flag.
    ///
    /// # Errors
    /// On transport failure or a reply that is not JSON.
    pub fn send(&mut self, line: &str) -> Result<Value, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => return Err("server closed the connection".to_owned()),
            Ok(_) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        serde_json::from_str(reply.trim_end()).map_err(|e| format!("reply is not JSON: {e}"))
    }

    /// [`send`](Self::send), failing unless the reply says `ok:true`.
    ///
    /// # Errors
    /// As `send`, or when the server answered `ok:false`.
    pub fn call(&mut self, line: &str) -> Result<Value, String> {
        let reply = self.send(line)?;
        if reply.get("ok").and_then(Value::as_bool) == Some(true) {
            Ok(reply)
        } else {
            let head: String = line.chars().take(60).collect();
            Err(format!("request `{head}` answered {reply}"))
        }
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    /// When `/proc` has no such field for the child.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server /proc status".to_owned())
    }

    /// The state digest the server reports now.
    ///
    /// # Errors
    /// When the `digest` op fails.
    pub fn digest(&mut self) -> Result<String, String> {
        let reply = self.call(r#"{"op":"digest"}"#)?;
        reply
            .get("digest")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "digest reply without a digest".to_owned())
    }

    /// SIGKILLs the server and waits for it to end.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks the server to stop and waits for it to end.
    ///
    /// # Errors
    /// When the server refuses or does not exit in time (it is killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        self.call(r#"{"op":"shutdown"}"#)?;
        let deadline = Instant::now() + PATIENCE;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server did not exit after shutdown".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The replies of one window, in send order.
pub struct WindowLog {
    /// Whether the window was timed (warm-up windows are not).
    pub timed: bool,
    /// The digest the server reported before it was SIGKILLed right
    /// after this window (and that its recovery reproduced).
    pub killed_at: Option<String>,
    /// Parsed replies.
    pub replies: Vec<Value>,
}

/// The samples of one block: the windows one server process serves from
/// its start (or recovery) through its next snapshot plus
/// [`TAIL_WINDOWS`] more, after which it is killed and recovered. Every
/// block therefore carries exactly one periodic snapshot.
#[derive(Default)]
pub struct Block {
    /// `ingest` latency, ms.
    pub ingest_ms: Samples,
    /// `advance` latency, ms.
    pub advance_ms: Samples,
    /// `rank` latency, µs.
    pub rank_us: Samples,
    /// Requests sent.
    pub requests: u64,
    /// Windows served.
    pub windows: u64,
    /// Wall time of the block's traffic, seconds.
    pub wall_s: f64,
    /// Events accepted in the windows without the periodic snapshot.
    pub steady_events: u64,
    /// Wall time of the windows without the periodic snapshot, seconds.
    pub steady_wall_s: f64,
    /// The serving process's `VmHWM` at the end of the block, MiB.
    pub rss_mib: f64,
}

/// Everything a served run measured.
#[derive(Default)]
pub struct ServedRun {
    /// Spawn → ready on a fresh data dir, seconds.
    pub setup_s: Samples,
    /// SIGKILL restart → ready (snapshot + WAL tail replay), seconds.
    pub recovery_s: Samples,
    /// The timed blocks, in order.
    pub blocks: Vec<Block>,
    /// Replies per window, for the correctness gate.
    pub windows: Vec<WindowLog>,
}

impl ServedRun {
    /// Timed windows over all blocks.
    #[must_use]
    pub fn timed_windows(&self) -> u64 {
        self.blocks.iter().map(|b| b.windows).sum()
    }

    /// Timed wall time over all blocks, seconds.
    #[must_use]
    pub fn timed_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.wall_s).sum()
    }

    /// Timed requests over all blocks.
    #[must_use]
    pub fn timed_requests(&self) -> u64 {
        self.blocks.iter().map(|b| b.requests).sum()
    }
}

/// Runs one served workload: start-ups, warm-up, then timed blocks until
/// `seconds` of traffic and at least [`MIN_BLOCKS`] blocks are measured.
/// After every block the server is SIGKILLed, a fresh server is started
/// and stopped on an empty data dir (a set-up sample), and the killed one
/// is restarted on its data dir (a recovery sample) and must report the
/// pre-kill digest.
///
/// # Errors
/// On any failed request or server misbehaviour (the error names it).
pub fn run(
    launch: &Launch,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<ServedRun, String> {
    let mut out = ServedRun::default();
    let data = work.join("data");
    for _ in 1..SETUPS {
        set_up(launch, &work.join("data-probe"), &mut out)?;
    }
    let (mut server, t) = Server::start(launch, &data)?;
    out.setup_s.push(t);
    let mut stream = Stream::new(shape, seed);
    for _ in 0..WARMUP_WINDOWS {
        let window = stream.next_window();
        let replies = drive(&mut server, &window.requests, None)?;
        out.windows.push(WindowLog {
            timed: false,
            killed_at: None,
            replies,
        });
    }
    // Snapshot, kill and recover once before timing, so every timed
    // block is served by a process recovered from a snapshot, over
    // SNAPSHOT_EVERY + TAIL_WINDOWS windows: the first process alone ran
    // genesis and the cold build.
    server.call(r#"{"op":"snapshot"}"#)?;
    server = restart(launch, server, &data, &mut out, false)?;
    loop {
        let mut block = Block::default();
        let mut after_snapshot = None;
        while after_snapshot != Some(TAIL_WINDOWS) {
            if block.windows > 4 * SNAPSHOT_EVERY {
                return Err("no periodic snapshot within a block".to_owned());
            }
            let window = stream.next_window();
            let t0 = Instant::now();
            let replies = drive(&mut server, &window.requests, Some(&mut block))?;
            let wall_s = t0.elapsed().as_secs_f64();
            block.wall_s += wall_s;
            block.windows += 1;
            let snapshotted = replies
                .iter()
                .any(|r| r.get("snapshotted").and_then(Value::as_bool) == Some(true));
            if !snapshotted {
                block.steady_wall_s += wall_s;
                block.steady_events += replies
                    .iter()
                    .filter_map(|r| r.get("accepted").and_then(Value::as_u64))
                    .sum::<u64>();
            }
            after_snapshot = match after_snapshot {
                _ if snapshotted => Some(0),
                Some(n) => Some(n + 1),
                None => None,
            };
            out.windows.push(WindowLog {
                timed: true,
                killed_at: None,
                replies,
            });
        }
        block.rss_mib = server.peak_rss_mib()?;
        out.blocks.push(block);
        server = restart(launch, server, &data, &mut out, true)?;
        if out.timed_s() >= seconds && out.blocks.len() >= MIN_BLOCKS {
            break;
        }
    }
    server.shutdown()?;
    Ok(out)
}

/// SIGKILLs `server` and restarts it on `data`, checking that recovery
/// reproduces the pre-kill digest. When `timed`, the recovery is a
/// sample and a set-up sample is taken while the service is down.
fn restart(
    launch: &Launch,
    mut server: Server,
    data: &Path,
    out: &mut ServedRun,
    timed: bool,
) -> Result<Server, String> {
    let digest = server.digest()?;
    server.kill();
    if timed {
        set_up(launch, &data.with_file_name("data-probe"), out)?;
    }
    let (mut recovered, t) = Server::start(launch, data)?;
    let after = recovered.digest()?;
    if after != digest {
        return Err(format!(
            "recovery lands on digest {after}, the pre-kill digest is {digest}"
        ));
    }
    if timed {
        out.recovery_s.push(t);
    }
    if let Some(log) = out.windows.last_mut() {
        log.killed_at = Some(digest);
    }
    Ok(recovered)
}

/// Starts and stops a server on a fresh data dir: one set-up sample.
fn set_up(launch: &Launch, probe: &Path, out: &mut ServedRun) -> Result<(), String> {
    let (s, t) = Server::start(launch, probe)?;
    out.setup_s.push(t);
    s.shutdown()?;
    fs::remove_dir_all(probe).map_err(|e| format!("{}: {e}", probe.display()))
}

/// Sends one window's requests in order, timing each into `block`.
fn drive(
    server: &mut Server,
    requests: &[Request],
    mut block: Option<&mut Block>,
) -> Result<Vec<Value>, String> {
    let mut replies = Vec::with_capacity(requests.len());
    for request in requests {
        let line = request.to_line();
        let t0 = Instant::now();
        let reply = server.call(&line)?;
        let dt = t0.elapsed().as_secs_f64();
        if let Some(b) = block.as_deref_mut() {
            b.requests += 1;
            match request {
                Request::Ingest { .. } => b.ingest_ms.push(dt * 1e3),
                Request::Advance => b.advance_ms.push(dt * 1e3),
                Request::Rank(_) => b.rank_us.push(dt * 1e6),
                Request::Signature(_) => {}
            }
        }
        replies.push(reply);
    }
    Ok(replies)
}
