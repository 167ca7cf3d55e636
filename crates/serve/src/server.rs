//! The TCP accept loop.
//!
//! Deliberately minimal: one loopback listener, one connection served
//! at a time (an ops console, not a public endpoint), blocking reads
//! with a short timeout so the stop flag is honoured promptly. The
//! listener starts **before** recovery runs — early clients get the
//! typed `unavailable` response through [`Gate::Recovering`] instead of
//! a connection refusal, so an operator can poll `status` while a large
//! WAL replays.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use comsig_core::distance::BatchDistance;
use comsig_core::pipeline::DeltaScheme;

use crate::config::{ServeConfig, ServeError};
use crate::durable::DurableState;
use crate::protocol::{handle_line, Action, Gate};
use crate::state::GenesisSpace;

/// Socket-level options of one server run.
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Bind address; keep it loopback (`127.0.0.1:0` picks a free
    /// port).
    pub listen: String,
    /// If set, the bound address is written here once listening — how
    /// scripted clients discover an ephemeral port.
    pub addr_file: Option<PathBuf>,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            listen: "127.0.0.1:0".to_owned(),
            addr_file: None,
        }
    }
}

/// Locks a mutex, shrugging off poisoning: a handler that panicked
/// while holding the lock must not wedge the whole service.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the service until a `shutdown` op: binds, recovers, serves.
///
/// Startup lines (bound address, recovery summary) go to `out`.
///
/// # Errors
/// Binding and recovery failures propagate; per-connection I/O errors
/// only drop that connection.
pub fn run_server(
    scheme: &dyn DeltaScheme,
    dist: &dyn BatchDistance,
    config: ServeConfig,
    dir: &std::path::Path,
    genesis: GenesisSpace,
    opts: &ServerOpts,
    out: &mut dyn Write,
) -> Result<(), ServeError> {
    let listener = TcpListener::bind(&opts.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    writeln!(out, "comsig serve listening on {addr}").map_err(ServeError::from)?;
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, format!("{addr}\n"))?;
    }

    let gate = Mutex::new(Gate::Recovering);
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let acceptor = scope.spawn(|| accept_loop(&listener, &gate, &stop));
        let opened = DurableState::open(
            scheme,
            dist,
            config,
            dir,
            genesis.interner,
            genesis.subjects,
        );
        let result = match opened {
            Ok((state, recovery)) => {
                let line = writeln!(out, "{}", recovery.summary());
                *lock(&gate) = Gate::Ready(Box::new(state));
                line.map_err(ServeError::from)
            }
            Err(e) => {
                stop.store(true, Ordering::SeqCst);
                Err(e)
            }
        };
        // The acceptor owns no state; it exits once `stop` is set (by a
        // shutdown op or by the recovery failure above).
        let _ = acceptor.join();
        result
    })?;
    writeln!(out, "comsig serve stopped").map_err(ServeError::from)?;
    Ok(())
}

fn accept_loop(listener: &TcpListener, gate: &Mutex<Gate<'_>>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_connection(stream, gate, stop),
            // Nonblocking accept idles here; any transient accept error
            // is retried on the next tick rather than killing the loop.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn serve_connection(stream: TcpStream, gate: &Mutex<Gate<'_>>, stop: &AtomicBool) {
    // The accepted socket may inherit the listener's nonblocking mode;
    // switch to blocking reads with a short timeout so the loop can
    // observe the stop flag without busy-waiting.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_half);
    let mut writer = stream;
    let mut line = String::new();
    // The reply body and its newline, rendered together so each reply
    // leaves in one `write` on the unbuffered, no-delay socket.
    let mut reply = String::new();
    while !stop.load(Ordering::SeqCst) {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let (response, action) = handle_line(&mut lock(gate), trimmed);
                reply.clear();
                // Formatting into a `String` cannot fail.
                let _ = writeln!(reply, "{response}");
                if writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
                if action == Action::Shutdown {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::scheme::TopTalkers;
    use comsig_graph::{Interner, NodeId};

    use crate::client::call;

    #[test]
    fn server_round_trip_over_tcp() {
        let dir = std::env::temp_dir()
            .join("comsig-serve-server-tests")
            .join(format!("tcp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let addr_file = dir.join("addr");
        std::fs::create_dir_all(&dir).unwrap();

        let mut interner = Interner::new();
        for i in 0..4 {
            interner.intern(&format!("h{i}"));
        }
        let subjects: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let config = ServeConfig {
            width: 10,
            slide: 10,
            k: 3,
            ..ServeConfig::default()
        };
        let opts = ServerOpts {
            listen: "127.0.0.1:0".to_owned(),
            addr_file: Some(addr_file.clone()),
        };

        thread::scope(|scope| {
            let dir_ref = &dir;
            let opts_ref = &opts;
            let server = scope.spawn(move || {
                let scheme = TopTalkers;
                let mut log = Vec::new();
                let genesis = GenesisSpace { interner, subjects };
                run_server(&scheme, &SHel, config, dir_ref, genesis, opts_ref, &mut log)
            });
            // Wait for the ephemeral port to land in the addr file.
            let addr = loop {
                if let Ok(text) = std::fs::read_to_string(&addr_file) {
                    let trimmed = text.trim().to_owned();
                    if !trimmed.is_empty() {
                        break trimmed;
                    }
                }
                thread::sleep(Duration::from_millis(10));
            };
            let responses = call(
                &addr,
                &[
                    r#"{"op":"ingest","lines":"1 h0 h1 2.0\n2 h1 h2 1.0"}"#.to_owned(),
                    r#"{"op":"advance"}"#.to_owned(),
                    r#"{"op":"digest"}"#.to_owned(),
                    r#"{"op":"shutdown"}"#.to_owned(),
                ],
            )
            .unwrap();
            assert_eq!(responses.len(), 4);
            for r in &responses {
                assert!(r.contains(r#""ok":true"#), "{r}");
            }
            server.join().unwrap().unwrap();
        });
    }
}
