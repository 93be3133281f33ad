//! The server under test as a separate process, and the outside-in
//! counters the benchmark reads from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rsk_serve::protocol::{read_frame, Request, Response};
use rsk_serve::StatsReply;

use crate::traffic::{frame, TENANT};

/// Linux reports `/proc/<pid>/stat` CPU times in these ticks per second
/// (`USER_HZ`, fixed at 100 by the kernel ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system, all threads) a process has used.
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_SEC
}

/// CPU seconds the hypervisor has stolen from this machine, all cores.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    // "cpu user nice system idle iowait irq softirq steal ..."
    cpu.split_whitespace()
        .nth(8)
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |t| t / TICKS_PER_SEC)
}

/// A `kB` field of `/proc/<pid>/status`, in MiB.
pub fn status_mib(pid: &str, field: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| {
            v.trim_start_matches(':')
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running `rsk-serve` child, killed and reaped on drop.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    // Held open: the server prints a few more lines, which the pipe
    // buffers, and a closed pipe would fail its prints.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `bin` on an ephemeral loopback port.
    pub fn spawn(bin: &Path, memory_kb: usize) -> Self {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--memory-kb",
                &memory_kb.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        out.read_line(&mut line).expect("read the server banner");
        let addr = line
            .trim()
            .strip_prefix("rsk-serve listening on ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| {
                let _ = child.kill();
                let _ = child.wait();
                panic!("unexpected server banner {line:?}")
            });
        Self {
            child,
            addr,
            _stdout: out,
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's pid as a `/proc` path component.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Ask the server to stop over the wire and wait for it to exit.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Conn::connect(self.addr) {
            let _ = c.call(&frame(&Request::Shutdown));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills it.
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

/// A raw connection that writes pre-encoded frames and reads replies.
pub struct Conn {
    /// Write half.
    pub stream: TcpStream,
    /// Buffered read half.
    pub reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with Nagle off.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            stream,
        })
    }

    /// Send one pre-encoded frame.
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Read and decode one reply.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        Response::decode(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// One request, one reply.
    pub fn call(&mut self, frame: &[u8]) -> std::io::Result<Response> {
        self.send(frame)?;
        self.recv()
    }

    /// The server's `Stats` counters.
    pub fn stats(&mut self) -> std::io::Result<StatsReply> {
        match self.call(&frame(&Request::Stats))? {
            Response::Stats(s) => Ok(s),
            other => Err(std::io::Error::other(format!("stats reply: {other:?}"))),
        }
    }
}

/// Spawn the server `reps` times; each time measure spawn → first ack
/// of an empty ingest (which materialises the tenant window). Returns
/// the last server, still running, and every set-up time in seconds.
pub fn set_up(bin: &Path, memory_kb: usize, reps: usize) -> (Server, Vec<f64>) {
    let probe = frame(&Request::Ingest {
        tenant: TENANT,
        items: Vec::new(),
    });
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let started = Instant::now();
        let server = Server::spawn(bin, memory_kb);
        let mut conn = Conn::connect(server.addr()).expect("connect to the fresh server");
        match conn.call(&probe).expect("first ack") {
            Response::IngestAck { accepted: 0 } => {}
            other => panic!("unexpected first reply {other:?}"),
        }
        times.push(started.elapsed().as_secs_f64());
        drop(conn);
        if i + 1 == reps {
            last = Some(server);
        } else {
            server.shutdown();
        }
    }
    (last.expect("at least one set-up"), times)
}
