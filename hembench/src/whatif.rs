//! `whatif_tcp`: closed-loop clients over loopback TCP against an
//! in-process `hem-server` (`ServerCore` + `WorkQueue` + `net::serve`)
//! in its shipped configuration: fsync before ack, the 64 KiB
//! checkpoint threshold, real storage under `.hembench/`.
//!
//! Each client owns a few sessions of generated systems and cycles
//! through them, sending each session's seeded mix of `mutate` and
//! `analyze`. A session retires after a fixed number of steps (its
//! final step is an `analyze`, checked against a cold analysis) and a
//! fresh one opens, so WAL and checkpoint sizes stay in a steady state
//! however long the run is.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hem_obs::json::{self, JsonValue};
use hem_obs::MemoryRecorder;
use hem_server::net::{serve, NetConfig};
use hem_server::{CoreOptions, ServerCore, SessionEvent, WorkQueue};
use hem_system::{analyze_incremental, dsl, WarmStart};

use crate::calib::{self, HostSpeed};
use crate::gen::{self, GenSystem, SessionOp};
use crate::oracle;
use crate::stats::{Samples, Tally};
use crate::trace::{Spans, TimedStorage};
use crate::{pct, Args, Metrics, Outcome, OUT_DIR};

/// Closed-loop clients, one connection each (the box has 2 cores).
const CLIENTS: u64 = 2;
/// Sessions each client cycles through.
const SESSIONS_PER_CLIENT: usize = 4;
/// Steps a session takes before it retires. About half are mutations
/// of about 120 WAL bytes each, so a session's WAL crosses the 64 KiB
/// checkpoint threshold once in its life.
const SESSION_STEPS: usize = 1600;
/// `hem-server`'s shipped `--queue-depth` and `--workers`.
const QUEUE_DEPTH: usize = 64;
const WORKERS: usize = 4;
/// In the traced run, the clients switch between the untraced and the
/// traced server every slice.
const SLICE: Duration = Duration::from_millis(500);

/// Set-ups `setup_s` is the median of. A set-up takes about 25 ms, so
/// one sees a single host state; five of them spread 0.29 over ten runs.
const SET_UPS: u64 = 25;

/// The tail percentile reported for this workload: when it was chosen,
/// p99 tails spread 0.13–0.23 over ten runs, p95 tails 0.08–0.22.
pub const TAIL: f64 = 95.0;

/// An in-process server on a loopback port.
struct Server {
    queue: Arc<WorkQueue>,
    addr: SocketAddr,
    listener: TcpListener,
    thread: JoinHandle<io::Result<()>>,
    dir: PathBuf,
}

impl Server {
    fn start(dir: PathBuf, storage: Option<Arc<TimedStorage>>) -> io::Result<Server> {
        let _ = std::fs::remove_dir_all(&dir);
        let mut options = CoreOptions::new(&dir);
        if let Some(storage) = storage {
            options = options.storage(storage);
        }
        let core = Arc::new(ServerCore::with_options(options)?);
        let queue = Arc::new(WorkQueue::new(core, QUEUE_DEPTH, WORKERS));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let serving = listener.try_clone()?;
        let q = queue.clone();
        let thread = std::thread::Builder::new()
            .name("hembench-accept".into())
            .spawn(move || serve(serving, q, NetConfig::default()))?;
        Ok(Server {
            queue,
            addr,
            listener,
            thread,
            dir,
        })
    }

    /// Stops accepting, waits for every connection and worker thread,
    /// and removes the data directory. Clients must have hung up.
    fn stop(self) -> io::Result<()> {
        // `serve` returns at its first failed accept: make the shared
        // listening socket non-blocking, then wake the blocked accept.
        self.listener.set_nonblocking(true)?;
        drop(TcpStream::connect(self.addr)?);
        match self.thread.join() {
            Ok(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => {}
            Ok(other) => return Err(io::Error::other(format!("serve ended with {other:?}"))),
            Err(_) => return Err(io::Error::other("the accept thread panicked")),
        }
        // Connection threads hold the queue until their peer's EOF.
        let deadline = Instant::now() + Duration::from_secs(20);
        while Arc::strong_count(&self.queue) > 1 {
            if Instant::now() > deadline {
                return Err(io::Error::other("connection threads did not finish"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The last handle: dropping it joins the workers.
        drop(self.queue);
        std::fs::remove_dir_all(&self.dir)
    }
}

/// Host-speed calibration for a workload whose clients share the
/// processor with the server. A sampler thread takes each kernel sample
/// while holding `gate` exclusively; clients hold it shared for each
/// request. So a sample is taken only while no request is in flight and
/// the server is idle (it does all of a request's work, checkpoints
/// included, before it answers), and the kernel measures the host
/// alone, never the CPU the program uses.
struct QuietHost {
    gate: RwLock<()>,
    /// The current [`HostSpeed::factor`], as `f64` bits.
    factor: AtomicU64,
    stop: AtomicBool,
}

impl QuietHost {
    fn new(host: &HostSpeed) -> QuietHost {
        QuietHost {
            gate: RwLock::new(()),
            factor: AtomicU64::new(host.factor().to_bits()),
            stop: AtomicBool::new(false),
        }
    }

    fn factor(&self) -> f64 {
        f64::from_bits(self.factor.load(Ordering::Relaxed))
    }

    /// Marks a request in flight until the guard drops.
    fn busy(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Samples the kernel about every 10 ms until [`QuietHost::stop`]
    /// is set. `std`'s `RwLock` makes new readers wait behind a waiting
    /// writer, so the sampler gets in between two requests.
    fn sample_until_stopped(&self, host: &mut HostSpeed) {
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(calib::EVERY);
            let _quiet = self.gate.write().unwrap_or_else(|e| e.into_inner());
            calib::warm_up();
            host.tick();
            self.factor
                .store(host.factor().to_bits(), Ordering::Relaxed);
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    response: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            response: String::new(),
        })
    }

    /// Sends one newline-terminated request and reads its response.
    fn call(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up",
            ));
        }
        Ok(self.response.trim_end())
    }
}

fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// The `"replayed"` count of an `analyze` response.
fn replayed(response: &str) -> Option<u64> {
    let rest = response.split(",\"replayed\":").nth(1)?;
    rest.split(',').next()?.parse().ok()
}

/// A session as its client sees it.
struct Session {
    name: String,
    seed: u64,
    client: u64,
    n: u64,
    system: GenSystem,
    /// Request lines of the steps, newline-terminated; dropped once the
    /// session is finished, so memory does not grow with throughput.
    lines: Vec<(SessionOp, String)>,
    /// Steps served.
    next: usize,
    /// Analyses served outside the steps: a warm-up before them, and a
    /// final answer after them when the deadline cut the session.
    before: usize,
    after: usize,
    /// `replayed` of every served analysis, in order.
    replayed: Vec<u64>,
    /// Body of the last analysis, once the session is finished.
    final_body: Option<String>,
}

impl Session {
    fn steps(seed: u64, client: u64, n: u64, system: &GenSystem) -> Vec<SessionOp> {
        let mut ops = gen::session_ops(seed, client, n, &system.knobs, SESSION_STEPS);
        *ops.last_mut().expect("sessions have steps") = SessionOp::Analyze;
        ops
    }

    fn new(seed: u64, client: u64, n: u64) -> Session {
        let system = gen::session_system(seed, client, n);
        let name = format!("c{client}s{n}");
        let lines = Self::steps(seed, client, n, &system)
            .into_iter()
            .map(|op| {
                let line = gen::op_line(&name, &op) + "\n";
                (op, line)
            })
            .collect();
        Session {
            name,
            seed,
            client,
            n,
            system,
            lines,
            next: 0,
            before: 0,
            after: 0,
            replayed: Vec::new(),
            final_body: None,
        }
    }

    /// Every request the session served after its `open`, in order.
    fn history(&self) -> Vec<SessionOp> {
        let steps = Self::steps(self.seed, self.client, self.n, &self.system);
        let mut history = vec![SessionOp::Analyze; self.before];
        history.extend(steps.into_iter().take(self.next));
        history.extend(std::iter::repeat_n(SessionOp::Analyze, self.after));
        history
    }

    fn events(&self) -> Vec<String> {
        self.history()
            .into_iter()
            .filter_map(|op| match op {
                SessionOp::Mutate(e) => Some(e),
                SessionOp::Analyze => None,
            })
            .collect()
    }
}

/// One client's connection to one server, with its sessions and
/// measurements.
struct Target {
    conn: Conn,
    live: Vec<Session>,
    turn: usize,
    finished: Vec<Session>,
    /// Round trips in reference milliseconds.
    mutate: Samples,
    analyze: Samples,
    /// Round trips as measured, for comparison with the server's own
    /// timings.
    raw_mutate: Samples,
    raw_analyze: Samples,
    tally: Tally,
}

impl Target {
    fn open(&mut self, session: Session) -> io::Result<()> {
        let line = gen::open_line(&session.name, &session.system.text) + "\n";
        let ok = is_ok(self.conn.call(&line)?);
        self.tally.record(ok);
        self.live.push(session);
        Ok(())
    }

    /// One `analyze` outside the measured steps (warm-up and the final
    /// answer of a session cut by the deadline).
    fn extra_analyze(&mut self, i: usize) -> io::Result<()> {
        let s = &mut self.live[i];
        let line = gen::op_line(&s.name, &SessionOp::Analyze) + "\n";
        let response = self.conn.call(&line)?;
        let ok = is_ok(response);
        if s.next == 0 {
            s.before += 1;
        } else {
            s.after += 1;
        }
        s.replayed.push(replayed(response).unwrap_or(u64::MAX));
        s.final_body = oracle::analyze_body(response).map(str::to_string);
        self.tally.record(ok);
        Ok(())
    }

    /// Sends the next step of the next session, timing it in reference
    /// milliseconds. Returns whether that session took its last step and
    /// was closed.
    fn step(&mut self, quiet: &QuietHost) -> io::Result<bool> {
        let i = self.turn % self.live.len();
        self.turn += 1;
        let s = &mut self.live[i];
        let (op, line) = &s.lines[s.next];
        let busy = quiet.busy();
        let factor = quiet.factor();
        let started = Instant::now();
        let response = self.conn.call(line)?;
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        drop(busy);
        let ok = is_ok(response);
        match op {
            SessionOp::Mutate(_) => {
                self.mutate.push(factor * elapsed);
                self.raw_mutate.push(elapsed);
            }
            SessionOp::Analyze => {
                self.analyze.push(factor * elapsed);
                self.raw_analyze.push(elapsed);
                s.replayed.push(replayed(response).unwrap_or(u64::MAX));
            }
        }
        s.next += 1;
        self.tally.record(ok);
        if s.next < s.lines.len() {
            return Ok(false);
        }
        s.final_body = oracle::analyze_body(response).map(str::to_string);
        let mut done = self.live.swap_remove(i);
        done.lines = Vec::new();
        let line = format!("{{\"op\":\"close\",\"session\":\"{}\"}}\n", done.name);
        let _busy = quiet.busy();
        let ok = is_ok(self.conn.call(&line)?);
        self.tally.record(ok);
        self.finished.push(done);
        Ok(true)
    }

    /// Ends every live session with a checked final analysis.
    fn finish(&mut self) -> io::Result<()> {
        for i in 0..self.live.len() {
            self.extra_analyze(i)?;
            self.live[i].lines = Vec::new();
        }
        self.finished.append(&mut self.live);
        Ok(())
    }
}

/// One client thread's state: a target per server.
struct Client {
    id: u64,
    seed: u64,
    next_n: u64,
    targets: Vec<Target>,
}

impl Client {
    fn session(&mut self) -> Session {
        let s = Session::new(self.seed, self.id, self.next_n);
        self.next_n += 1;
        s
    }

    fn connect(&mut self, addr: SocketAddr) -> io::Result<()> {
        let mut target = Target {
            conn: Conn::connect(addr)?,
            live: Vec::new(),
            turn: 0,
            finished: Vec::new(),
            mutate: Samples::default(),
            analyze: Samples::default(),
            raw_mutate: Samples::default(),
            raw_analyze: Samples::default(),
            tally: Tally::default(),
        };
        for _ in 0..SESSIONS_PER_CLIENT {
            target.open(self.session())?;
        }
        for i in 0..SESSIONS_PER_CLIENT {
            target.extra_analyze(i)?;
        }
        self.targets.push(target);
        Ok(())
    }

    /// The closed loop: one request at a time until the deadline. With
    /// two targets, the target alternates every [`SLICE`].
    fn run(&mut self, start: Instant, deadline: Instant, quiet: &QuietHost) -> io::Result<()> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let t = if self.targets.len() == 2 {
                ((now - start).as_nanos() / SLICE.as_nanos()) as usize % 2
            } else {
                0
            };
            if self.targets[t].step(quiet)? {
                let fresh = self.session();
                let _busy = quiet.busy();
                self.targets[t].open(fresh)?;
            }
        }
        for target in &mut self.targets {
            target.finish()?;
        }
        Ok(())
    }
}

fn data_dir(name: &str) -> PathBuf {
    Path::new(OUT_DIR)
        .join(format!("data-{}", std::process::id()))
        .join(name)
}

/// Starts a server and connects every client to it (opening and
/// warming up their sessions).
fn set_up(
    server_dir: &str,
    storage: Option<Arc<TimedStorage>>,
    clients: &mut [Client],
) -> io::Result<Server> {
    let server = Server::start(data_dir(server_dir), storage)?;
    for client in clients.iter_mut() {
        client.connect(server.addr)?;
    }
    Ok(server)
}

fn new_clients(seed: u64) -> Vec<Client> {
    (0..CLIENTS)
        .map(|id| Client {
            id,
            seed,
            next_n: 0,
            targets: Vec::new(),
        })
        .collect()
}

/// Runs every client's closed loop on its own thread, beside a thread
/// sampling the host's speed between requests. Returns the run's wall
/// time and the host's kernel samples.
fn drive(clients: &mut [Client], seconds: u64) -> io::Result<(f64, HostSpeed)> {
    let mut host = HostSpeed::new();
    let quiet = QuietHost::new(&host);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let run = std::thread::scope(|scope| {
        let quiet = &quiet;
        let sampler = scope.spawn(|| quiet.sample_until_stopped(&mut host));
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(move || c.run(start, deadline, quiet)))
            .collect();
        let mut run = Ok(());
        for h in handles {
            let joined = h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("a client panicked")));
            run = run.and(joined);
        }
        quiet.stop.store(true, Ordering::Relaxed);
        sampler
            .join()
            .map_err(|_| io::Error::other("the host sampler panicked"))?;
        run
    });
    let wall = start.elapsed().as_secs_f64();
    run.map(|()| (wall, host))
}

pub fn run(args: &Args) -> io::Result<Outcome> {
    if args.trace {
        return run_traced(args);
    }
    let mut host = HostSpeed::new();
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SET_UPS {
        let mut clients = new_clients(args.seed);
        let (server, secs) = host.time_s(|| set_up(&format!("setup{rep}"), None, &mut clients));
        let server = server?;
        setups.push(secs);
        if rep + 1 < SET_UPS {
            drop(clients);
            server.stop()?;
        } else {
            kept = Some((server, clients));
        }
    }
    let (server, mut clients) = kept.expect("at least one set-up");
    let (wall, run_host) = drive(&mut clients, args.seconds)?;
    // Throughput in reference time: the wall clock scaled by the
    // kernel's median speed over the run.
    let reference_wall = wall * calib::REFERENCE_MS / run_host.samples().p50();
    eprintln!(
        "reference kernel between requests: median {:.4} ms over {} samples",
        run_host.samples().p50(),
        run_host.samples().len()
    );
    let targets: Vec<Target> = clients.into_iter().flat_map(|c| c.targets).collect();
    let (mutate, analyze, mut tally) = merged(&targets);
    // Dropping the targets hangs up their connections, which `stop`
    // waits for.
    let finished: Vec<Session> = targets.into_iter().flat_map(|t| t.finished).collect();
    server.stop()?;
    let _ = std::fs::remove_dir(data_dir(""));
    check_finals(&finished, &mut tally);
    let mut all = mutate.clone();
    all.extend(&analyze);
    let mut m = Metrics::default();
    m.end_to_end(
        &host,
        &setups,
        all.len() as f64 / reference_wall,
        &all,
        TAIL,
    );
    m.op_split(&mutate, &analyze, TAIL);
    Ok(Outcome { tally, metrics: m })
}

fn merged(targets: &[Target]) -> (Samples, Samples, Tally) {
    let (mut mutate, mut analyze, mut tally) =
        (Samples::default(), Samples::default(), Tally::default());
    for t in targets {
        mutate.extend(&t.mutate);
        analyze.extend(&t.analyze);
        tally.merge(t.tally);
    }
    (mutate, analyze, tally)
}

/// Every finished session's final served analysis must equal a cold
/// analysis of its mutated spec.
fn check_finals(finished: &[Session], tally: &mut Tally) {
    for s in finished {
        let verdict = match &s.final_body {
            Some(body) => oracle::session_final_ok(&s.system.text, &s.events(), body),
            None => Err("no final analysis was served".into()),
        };
        if let Err(e) = verdict {
            eprintln!("whatif_tcp: session {} answered wrongly: {e}", s.name);
            tally.fail_checked();
        }
    }
}

/// Time spent in traced slices of a `seconds`-long run.
fn traced_seconds(seconds: u64) -> f64 {
    let slice = SLICE.as_secs_f64();
    let total = seconds as f64;
    let mut t = slice;
    let mut traced = 0.0;
    while t < total {
        traced += (total - t).min(slice);
        t += 2.0 * slice;
    }
    traced
}

fn run_traced(args: &Args) -> io::Result<Outcome> {
    let spans = Arc::new(Spans::default());
    let storage = Arc::new(TimedStorage::new(spans.clone()));
    let mut clients = new_clients(args.seed);
    let plain_server = set_up("plain", None, &mut clients)?;
    let traced_server = set_up("traced", Some(storage.clone()), &mut clients)?;
    drive(&mut clients, args.seconds)?;
    let scrape = {
        let mut conn = Conn::connect(traced_server.addr)?;
        conn.call("{\"op\":\"metrics\"}\n")?.to_string()
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for c in clients {
        let mut targets = c.targets.into_iter();
        plain.extend(targets.next());
        traced.extend(targets.next());
    }
    let (plain_mutate, plain_analyze, mut tally) = merged(&plain);
    let (mutate, analyze, traced_tally) = merged(&traced);
    tally.merge(traced_tally);
    let (mut raw_mutate, mut raw_analyze) = (Samples::default(), Samples::default());
    for t in &traced {
        raw_mutate.extend(&t.raw_mutate);
        raw_analyze.extend(&t.raw_analyze);
    }
    let finished: Vec<Session> = plain
        .into_iter()
        .chain(traced)
        .flat_map(|t| t.finished)
        .collect();
    plain_server.stop()?;
    traced_server.stop()?;
    let _ = std::fs::remove_dir(data_dir(""));
    check_finals(&finished, &mut tally);

    let mut m = Metrics::default();
    let snapshot =
        json::parse(&scrape).map_err(|e| io::Error::other(format!("metrics op: {e}")))?;
    let hist = |name: &str, field: &str| {
        snapshot
            .get("snapshot")
            .and_then(|s| s.get("histograms"))
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(JsonValue::as_f64)
            .map_or(0.0, |us| us / 1e3)
    };
    // The server exports exact sums but only power-of-two quantiles, so
    // the network share is taken from means.
    let per_op: [(&str, &Samples, [&'static str; 6]); 2] = [
        (
            "mutate",
            &raw_mutate,
            [
                "net.overhead_mean_ms.mutate",
                "queue.wait_p50_ms.mutate",
                "queue.wait_tail_ms.mutate",
                "queue.wait_mean_ms.mutate",
                "session.service_p50_ms.mutate",
                "session.service_mean_ms.mutate",
            ],
        ),
        (
            "analyze",
            &raw_analyze,
            [
                "net.overhead_mean_ms.analyze",
                "queue.wait_p50_ms.analyze",
                "queue.wait_tail_ms.analyze",
                "queue.wait_mean_ms.analyze",
                "session.service_p50_ms.analyze",
                "session.service_mean_ms.analyze",
            ],
        ),
    ];
    for (op, rtt, [net, wait_p50, wait_tail, wait_mean, service_p50, service_mean]) in per_op {
        let (wait, service) = (format!("queue_wait_us/{op}"), format!("service_us/{op}"));
        m.set(
            net,
            rtt.mean() - hist(&wait, "mean") - hist(&service, "mean"),
        );
        m.set(wait_p50, hist(&wait, "p50"));
        m.set(wait_tail, hist(&wait, "p99"));
        m.set(wait_mean, hist(&wait, "mean"));
        m.set(service_p50, hist(&service, "p50"));
        m.set(service_mean, hist(&service, "mean"));
    }

    let io = storage.stats();
    let mutates = mutate.len() as f64;
    let syncs = io.wal_sync_ms.len() as f64;
    let mut sync_ms = Samples::default();
    for &v in &io.wal_sync_ms {
        sync_ms.push(v);
    }
    m.set("wal.syncs", syncs);
    m.set("wal.mutates", mutates);
    m.set("wal.syncs_per_mutate", syncs / mutates);
    m.set("wal.sync_p50_ms", sync_ms.p50());
    m.set(
        "wal.sync_busy_pct",
        pct(sync_ms.sum(), traced_seconds(args.seconds) * 1e3),
    );
    m.set("wal.bytes_per_mutate", io.wal_bytes as f64 / mutates);
    m.set("checkpoint.count", io.checkpoints as f64);
    m.set("checkpoint.busy_ms", io.checkpoint_ms);
    m.set(
        "checkpoint.bytes_per_mutate",
        io.checkpoint_bytes as f64 / mutates,
    );

    shadow(&finished, &spans, &mut m, &mut tally);

    let mut plain_all = plain_mutate;
    plain_all.extend(&plain_analyze);
    let mut traced_all = mutate;
    traced_all.extend(&analyze);
    m.trace_overhead(&plain_all, &traced_all, spans.len());
    args.write_spans(&spans);
    Ok(Outcome { tally, metrics: m })
}

/// Replays every finished session's steps in-process through the
/// engine's warm-start chain, exactly as the server's session does,
/// to read the engine counters and warm-start reuse the server does
/// not expose. The replayed counts must match what the server served.
fn shadow(finished: &[Session], spans: &Spans, m: &mut Metrics, tally: &mut Tally) {
    let (recorder, handle) = MemoryRecorder::metrics_only_handle();
    let config = oracle::shipped_config().with_recorder(handle);
    let (mut parse, mut analyze) = (Samples::default(), Samples::default());
    let (mut hits, mut analyses, mut cone_sum) = (0u64, 0u64, 0.0);
    for (request, s) in finished.iter().enumerate() {
        let t0 = Instant::now();
        let Ok(mut spec) = dsl::parse(&s.system.text) else {
            tally.fail_checked();
            continue;
        };
        let t1 = Instant::now();
        spans.record("shadow.dsl.parse", 0, request as u64, t0, t1);
        parse.push((t1 - t0).as_secs_f64() * 1e3);
        let mut warm: Option<WarmStart> = None;
        let mut served = s.replayed.iter();
        let mut agrees = true;
        for op in &s.history() {
            match op {
                SessionOp::Mutate(event) => {
                    let applied = json::parse(event)
                        .ok()
                        .and_then(|j| SessionEvent::from_json(&j).ok())
                        .is_some_and(|e| e.apply(&mut spec).is_ok());
                    agrees &= applied;
                }
                SessionOp::Analyze => {
                    let t0 = Instant::now();
                    let outcome = analyze_incremental(&spec, &config, warm.as_ref());
                    let t1 = Instant::now();
                    spans.record(
                        "shadow.engine.analyze_incremental",
                        0,
                        request as u64,
                        t0,
                        t1,
                    );
                    analyze.push((t1 - t0).as_secs_f64() * 1e3);
                    let Ok(outcome) = outcome else {
                        agrees = false;
                        continue;
                    };
                    analyses += 1;
                    hits += u64::from(outcome.reuse.warm);
                    cone_sum += outcome.reuse.cone_fraction();
                    agrees &= served.next() == Some(&outcome.reuse.replayed_results);
                    if outcome.analysis.results.is_complete() {
                        warm = outcome.snapshot;
                    }
                }
            }
        }
        if !agrees {
            eprintln!(
                "whatif_tcp: session {} diverged from its in-process replay",
                s.name
            );
            tally.fail_checked();
        }
    }
    let counts = recorder.snapshot();
    m.set("dsl.parse_ms", parse.p50());
    m.set(
        "dsl.share_pct",
        pct(parse.sum(), parse.sum() + analyze.sum()),
    );
    m.set("engine.analyze_ms", analyze.p50());
    m.engine_counters(&counts, analyses as f64);
    m.set("warm.hits", hits as f64);
    m.set("warm.analyzes", analyses as f64);
    m.set("warm.hit_pct", pct(hits as f64, analyses as f64));
    m.set("warm.cone_fraction", cone_sum / analyses as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_slices_cover_half_the_run() {
        assert_eq!(traced_seconds(1), 0.5);
        assert_eq!(traced_seconds(2), 1.0);
        assert_eq!(traced_seconds(20), 10.0);
    }

    #[test]
    fn replayed_counts_are_read_from_responses() {
        assert_eq!(replayed("{\"ok\":true,\"op\":\"analyze\",\"seq\":4,\"stale\":false,\"replayed\":17,\"result\":{}}"), Some(17));
        assert_eq!(replayed("{\"ok\":true,\"op\":\"mutate\"}"), None);
    }
}
