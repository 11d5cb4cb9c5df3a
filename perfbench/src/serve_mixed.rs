//! `serve-mixed`: one in-process `serve::Server` running the
//! `DualHandler` (artifacts plus IPAM) as `dynamips serve` sets it up by
//! default, except that its analyses use one engine worker. Two
//! closed-loop keep-alive connections drive it at once:
//!
//! * reads: passes of `GET /artifacts/<name>` over the 11 paper
//!   artifacts, each pass in a seeded order, each body re-rendered from
//!   the warm session;
//! * writes: `POST /leases` → `PUT /leases/<id>/renew` → `DELETE` lease
//!   cycles over the default pools, a few leases kept live at a time.
//!
//! The same reactor and workers serve both, so a gain for one class that
//! costs the other shows in the other's numbers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamips_experiments::ipam_service::{self, DualHandler, IpamService};
use dynamips_experiments::service::ArtifactService;
use dynamips_experiments::{engine, ExperimentConfig};
use dynamips_ipam::{Ipam, IpamConfig};
use dynamips_serve::http::{serialize_response, Disposition};
use dynamips_serve::metrics::TRACKED_STATUS;
use dynamips_serve::{scan_request, Handler, Metrics, Request, Response, ServeConfig, Server};

use crate::report::{Ledger, Outcome};
use crate::stats::{self, Rng};
use crate::trace::Tracer;

/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 3;
/// Leases the write connection keeps live while it cycles.
const LIVE_WINDOW: usize = 16;
/// Lease lifetime in ticks: far longer than any lease stays live here.
const LIFETIME: u64 = 1_000;
/// Threads the warm session's analyses use. `dynamips serve` uses every
/// core; with two, the set-up's memory high-water mark lands anywhere
/// between 470 and 620 MB from run to run, with one it is 125 MB each
/// time. The measured window is the same either way: warm renders run on
/// the serving worker.
const ENGINE_WORKERS: usize = 1;
/// Client socket timeout.
const TIMEOUT: Duration = Duration::from_secs(30);

/// The paper's artifacts, the read mix.
pub fn paper_artifacts() -> Vec<&'static str> {
    engine::ATLAS_ARTIFACTS
        .iter()
        .chain(engine::CDN_ARTIFACTS.iter())
        .copied()
        .collect()
}

/// `dynamips serve`'s default configuration.
fn serve_config() -> (ExperimentConfig, ServeConfig) {
    let cfg = ExperimentConfig {
        seed: 2020,
        atlas_scale: 0.2,
        cdn_scale: 0.15,
    };
    let serve = ServeConfig {
        workers: 4,
        queue_cap: 64,
        max_conns: 256,
        read_timeout_ms: 5_000,
        write_timeout_ms: 5_000,
        ..ServeConfig::default()
    };
    (cfg, serve)
}

/// A read body must be byte-identical to the batch render.
pub fn check_read(name: &str, status: u16, body: &[u8], reference: &[u8]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("GET /artifacts/{name}: status {status}"));
    }
    if body != reference {
        let at = body
            .iter()
            .zip(reference)
            .position(|(a, b)| a != b)
            .unwrap_or(body.len().min(reference.len()));
        return Err(format!(
            "GET /artifacts/{name}: body differs from the batch render at byte {at} ({} vs {} bytes)",
            body.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// One client-side keep-alive connection, framing responses by
/// `Content-Length`.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send one request and read its response: `(status, body)`.
    fn exchange(&mut self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or("response without content-length")?;
        while self.buf.len() < head_end + length {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() != head_end + length {
            return Err("bytes past the declared body".into());
        }
        Ok((status, self.buf[head_end..].to_vec()))
    }
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

fn with_body(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `key=value` lines of an IPAM response body.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
}

/// Times handler calls by route when switched on; otherwise passes
/// straight through. Reads and writes arrive in order on their own
/// connections, so the n-th handler call of a class is the n-th request
/// its client sent: spans of one request share that number.
struct TimedHandler {
    inner: DualHandler,
    tracer: Arc<Tracer>,
    on: AtomicBool,
    reads: AtomicU64,
    writes: AtomicU64,
}

/// The `DualHandler` routes these paths to the IPAM service.
fn is_ipam_path(path: &str) -> bool {
    path == "/leases" || path.starts_with("/leases/") || path == "/pools" || path == "/ipam-metrics"
}

impl Handler for TimedHandler {
    fn respond(&self, req: &Request) -> Response {
        if !self.on.load(Ordering::SeqCst) {
            return self.inner.respond(req);
        }
        let start = self.tracer.now_ns();
        let resp = self.inner.respond(req);
        let end = self.tracer.now_ns();
        let (name, seq) = if is_ipam_path(&req.path) {
            ("experiments.ipam_service", &self.writes)
        } else {
            ("experiments.artifact_service", &self.reads)
        };
        let group = seq.fetch_add(1, Ordering::SeqCst);
        self.tracer.record(name, None, group, start, end);
        resp
    }
}

/// A running server and what the benchmark holds on to.
struct Running {
    server: Server,
    addr: String,
    ipam: Arc<Ipam>,
    metrics: Arc<Metrics>,
    timed: Option<Arc<TimedHandler>>,
}

/// Start the server and warm its session by reading every artifact once.
fn start(
    reference: &BTreeMap<&'static str, Vec<u8>>,
    tracer: Option<&Arc<Tracer>>,
    ledger: &mut Ledger,
) -> Result<Running, String> {
    let (cfg, serve_cfg) = serve_config();
    let metrics = Arc::new(Metrics::new());
    let artifacts = ArtifactService::over_engine(cfg, ENGINE_WORKERS, 4, Arc::clone(&metrics));
    let pools = ipam_service::default_pools().map_err(|e| format!("default_pools: {e}"))?;
    let ipam = Arc::new(
        Ipam::build(IpamConfig::default(), pools).map_err(|e| format!("Ipam::build: {e}"))?,
    );
    let dual = DualHandler::new(IpamService::new(Arc::clone(&ipam)), artifacts);
    let (handler, timed): (Arc<dyn Handler>, _) = match tracer {
        Some(t) => {
            let timed = Arc::new(TimedHandler {
                inner: dual,
                tracer: Arc::clone(t),
                on: AtomicBool::new(false),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            });
            (Arc::clone(&timed) as Arc<dyn Handler>, Some(timed))
        }
        None => (Arc::new(dual), None),
    };
    let server = Server::start("127.0.0.1:0", serve_cfg, handler, Arc::clone(&metrics))
        .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    let addr = server.local_addr().to_string();
    let running = Running {
        server,
        addr,
        ipam,
        metrics,
        timed,
    };
    let warmed = Conn::connect(&running.addr).and_then(|mut conn| {
        for (name, want) in reference {
            let (status, body) = conn.exchange(&get(&format!("/artifacts/{name}")))?;
            ledger.check(check_read(name, status, &body, want));
        }
        Ok(())
    });
    if let Err(e) = warmed {
        stop(running, ledger);
        return Err(format!("warm-up: {e}"));
    }
    Ok(running)
}

/// Drain the server: the pools must conserve with no lease left, and the
/// reactor and workers must end.
fn stop(running: Running, ledger: &mut Ledger) {
    let pools = Conn::connect(&running.addr).and_then(|mut c| c.exchange(&get("/pools")));
    ledger.check(match pools {
        Ok((200, body)) if String::from_utf8_lossy(&body).contains("conservation=ok") => Ok(()),
        Ok((status, body)) => Err(format!(
            "GET /pools: {status} {}",
            String::from_utf8_lossy(&body)
        )),
        Err(e) => Err(format!("GET /pools: {e}")),
    });
    let live = running.ipam.live_leases();
    ledger.check(if live == 0 {
        Ok(())
    } else {
        Err(format!("{live} leases still active after the run"))
    });
    running.server.shutdown_handle().begin_shutdown();
    let summary = running.server.join();
    ledger.check(if summary.worker_panics == 0 {
        Ok(())
    } else {
        Err(format!("{} worker panics", summary.worker_panics))
    });
}

/// One class's client-side record of a phase.
#[derive(Debug, Default)]
struct ClassLoad {
    /// Latencies of the requests sent inside the measured window, ms.
    latency_ms: Vec<f64>,
    /// Span of the measured window, from first send to last reply.
    window_s: f64,
    /// Requests sent in all, the drain included.
    sent: u64,
    queue_depth_max: u64,
    /// One request of each kind sent, for the HTTP-layer timings.
    samples: Vec<Vec<u8>>,
}

impl ClassLoad {
    /// Keep the first request of each method.
    fn keep_sample(&mut self, request: &[u8]) {
        let method = |r: &[u8]| r.split(|b| *b == b' ').next().map(<[u8]>::to_vec);
        if !self.samples.iter().any(|s| method(s) == method(request)) {
            self.samples.push(request.to_vec());
        }
    }

    fn per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / self.window_s.max(1e-9)
    }
}

/// Record one request's client span when tracing.
fn client_span(tracer: Option<&Tracer>, name: &'static str, seq: u64, start_ns: u64) {
    if let Some(t) = tracer {
        t.record(name, None, seq, start_ns, t.now_ns());
    }
}

fn read_load(
    addr: &str,
    seed: u64,
    seconds: f64,
    reference: &BTreeMap<&'static str, Vec<u8>>,
    metrics: &Metrics,
    tracer: Option<&Tracer>,
    ledger: &mut Ledger,
) -> Result<ClassLoad, String> {
    let mut names: Vec<&'static str> = reference.keys().copied().collect();
    let mut rng = Rng::new(seed ^ 0x4EAD_0000_0000_0001);
    let mut conn = Conn::connect(addr)?;
    let mut load = ClassLoad::default();
    let started = Instant::now();
    // Whole passes over the paper, each in a fresh seeded order.
    while started.elapsed().as_secs_f64() < seconds {
        for i in (1..names.len()).rev() {
            names.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &name in &names {
            let request = get(&format!("/artifacts/{name}"));
            load.queue_depth_max = load.queue_depth_max.max(metrics.queue_depth());
            let span_start = tracer.map_or(0, Tracer::now_ns);
            let t = Instant::now();
            let (status, body) = conn.exchange(&request)?;
            load.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            client_span(tracer, "serve.client.read", load.sent, span_start);
            load.sent += 1;
            ledger.check(check_read(name, status, &body, &reference[name]));
            load.keep_sample(&request);
        }
    }
    load.window_s = started.elapsed().as_secs_f64();
    Ok(load)
}

/// The write connection's state across phases: the simulated clock only
/// moves forward.
struct Writer {
    rng: Rng,
    tick: u64,
}

fn write_load(
    addr: &str,
    writer: &mut Writer,
    seconds: f64,
    metrics: &Metrics,
    tracer: Option<&Tracer>,
    ledger: &mut Ledger,
) -> Result<ClassLoad, String> {
    const POOLS: [&str; 4] = ["res", "cgnat", "grace0", "pd"];
    let mut conn = Conn::connect(addr)?;
    let mut load = ClassLoad::default();
    let mut live: VecDeque<(u64, String)> = VecDeque::new();
    let mut live_addrs: BTreeSet<String> = BTreeSet::new();
    let started = Instant::now();
    // Send one request; inside the window its latency counts.
    let send = |conn: &mut Conn,
                load: &mut ClassLoad,
                request: Vec<u8>,
                want: u16,
                in_window: bool,
                ledger: &mut Ledger|
     -> Result<Option<String>, String> {
        load.queue_depth_max = load.queue_depth_max.max(metrics.queue_depth());
        let span_start = tracer.map_or(0, Tracer::now_ns);
        let t = Instant::now();
        let (status, body) = conn.exchange(&request)?;
        if in_window {
            load.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        client_span(tracer, "serve.client.write", load.sent, span_start);
        load.sent += 1;
        load.keep_sample(&request);
        let body = String::from_utf8_lossy(&body).to_string();
        if status == want {
            ledger.ok(1);
            Ok(Some(body))
        } else {
            let line = String::from_utf8_lossy(&request)
                .lines()
                .next()
                .unwrap_or("")
                .to_string();
            ledger.fail(format!(
                "{line}: status {status}, expected {want}: {}",
                body.trim()
            ));
            Ok(None)
        }
    };
    while started.elapsed().as_secs_f64() < seconds {
        writer.tick += 1;
        let tick = writer.tick;
        let pool = POOLS[writer.rng.below(POOLS.len() as u64) as usize];
        let form = format!("pool={pool}&client={tick}&lifetime={LIFETIME}&now={tick}");
        let Some(granted) = send(
            &mut conn,
            &mut load,
            with_body("POST", "/leases", &form),
            201,
            true,
            ledger,
        )?
        else {
            continue;
        };
        let (Some(id), Some(address)) = (
            field(&granted, "id").and_then(|v| v.parse::<u64>().ok()),
            field(&granted, "address"),
        ) else {
            ledger.fail(format!("POST /leases: unparseable grant {granted:?}"));
            continue;
        };
        if !live_addrs.insert(address.to_string()) {
            ledger.fail(format!(
                "POST /leases granted {address}, already held by a live lease"
            ));
        }
        live.push_back((id, address.to_string()));
        let renew = format!("lifetime={LIFETIME}&now={tick}");
        send(
            &mut conn,
            &mut load,
            with_body("PUT", &format!("/leases/{id}/renew"), &renew),
            200,
            true,
            ledger,
        )?;
        if live.len() > LIVE_WINDOW {
            if let Some((old, address)) = live.pop_front() {
                send(
                    &mut conn,
                    &mut load,
                    with_body("DELETE", &format!("/leases/{old}"), &format!("now={tick}")),
                    200,
                    true,
                    ledger,
                )?;
                live_addrs.remove(&address);
            }
        }
    }
    load.window_s = started.elapsed().as_secs_f64();
    // Drain: every lease this phase granted goes back.
    while let Some((old, address)) = live.pop_front() {
        writer.tick += 1;
        let body = format!("now={}", writer.tick);
        send(
            &mut conn,
            &mut load,
            with_body("DELETE", &format!("/leases/{old}"), &body),
            200,
            false,
            ledger,
        )?;
        live_addrs.remove(&address);
    }
    Ok(load)
}

/// Both connections at once for `seconds`.
fn mixed_phase(
    running: &Running,
    seed: u64,
    writer: &mut Writer,
    seconds: f64,
    reference: &BTreeMap<&'static str, Vec<u8>>,
    tracer: Option<&Tracer>,
    ledger: &mut Ledger,
) -> Result<(ClassLoad, ClassLoad), String> {
    let (mut read_ledger, mut write_ledger) = (Ledger::default(), Ledger::default());
    let (reads, writes) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            read_load(
                &running.addr,
                seed,
                seconds,
                reference,
                &running.metrics,
                tracer,
                &mut read_ledger,
            )
        });
        let writes = write_load(
            &running.addr,
            writer,
            seconds,
            &running.metrics,
            tracer,
            &mut write_ledger,
        );
        let reads = reader
            .join()
            .unwrap_or_else(|_| Err("read client panicked".to_string()));
        (reads, writes)
    });
    for part in [read_ledger, write_ledger] {
        ledger.attempted += part.attempted;
        ledger.failed += part.failed;
        ledger.errors.extend(part.errors);
    }
    Ok((reads?, writes?))
}

/// The class's throughput and latency figures; the p99 only when at
/// least 1,000 samples are behind it.
fn class_figures(
    load: &ClassLoad,
    names: [&'static str; 3],
    figures: &mut Vec<(&'static str, f64, &'static str)>,
) {
    figures.push((names[0], load.per_s(), "1/s"));
    figures.push((
        names[1],
        stats::median(&load.latency_ms).unwrap_or(0.0),
        "ms",
    ));
    if stats::tail_reportable(load.latency_ms.len(), 99.0) {
        figures.push((
            names[2],
            stats::percentile(&load.latency_ms, 99.0).unwrap_or(0.0),
            "ms",
        ));
    }
}

/// Counters the traced run reports as deltas over its phase.
#[derive(Debug, Clone, Copy)]
struct Counters {
    keepalive_reuses: u64,
    admission_rejects: u64,
    status_other: u64,
}

fn counters(m: &Metrics) -> Counters {
    let tracked: u64 = TRACKED_STATUS
        .iter()
        .map(|s| m.responses_with_status(*s))
        .sum();
    Counters {
        keepalive_reuses: m.keepalive_reuses(),
        admission_rejects: m.admission_rejects(),
        status_other: m.responses_total() - tracked,
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    match run_inner(seed, seconds as f64, traced, &mut outcome) {
        Ok(()) => {}
        Err(e) => outcome.ledger.fail(e),
    }
    outcome
}

fn run_inner(seed: u64, seconds: f64, traced: bool, outcome: &mut Outcome) -> Result<(), String> {
    let (cfg, _) = serve_config();
    let ledger = &mut outcome.ledger;

    // The independent reference: a batch render of the read mix.
    let names: Vec<String> = paper_artifacts().iter().map(|s| s.to_string()).collect();
    let batch = engine::run(&cfg, &names, 1);
    let mut reference: BTreeMap<&'static str, Vec<u8>> = BTreeMap::new();
    for (name, art) in paper_artifacts().into_iter().zip(&batch.artifacts) {
        if !art.ok || art.name != name {
            return Err(format!("batch render of {name} failed"));
        }
        reference.insert(name, art.text.clone().into_bytes());
    }

    // The measured server's set-up comes first and the other set-ups
    // after its phase, so the memory high-water mark read at the end of
    // the phase covers one set-up, as a user's server would.
    let tracer = traced.then(|| Arc::new(Tracer::new()));
    let t = Instant::now();
    let running = start(&reference, tracer.as_ref(), ledger)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let mut writer = Writer {
        rng: Rng::new(seed ^ 0x3417_0000_0000_0001),
        tick: 0,
    };
    let phase = mixed_phase(
        &running,
        seed,
        &mut writer,
        seconds,
        &reference,
        None,
        ledger,
    );
    let (reads, writes) = match phase {
        Ok(loads) => loads,
        Err(e) => {
            stop(running, ledger);
            return Err(e);
        }
    };
    outcome.summary.push(format!(
        "serve-mixed: {} reads and {} writes in the measured window",
        reads.latency_ms.len(),
        writes.latency_ms.len()
    ));
    if !traced {
        class_figures(
            &reads,
            ["read_per_s", "read_p50_ms", "read_p99_ms"],
            &mut outcome.figures,
        );
        class_figures(
            &writes,
            ["write_per_s", "write_p50_ms", "write_p99_ms"],
            &mut outcome.figures,
        );
    }

    let ops_per_s = reads.per_s() + writes.per_s();
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);

    if let (Some(tracer), Some(timed)) = (tracer, running.timed.clone()) {
        let before = counters(&running.metrics);
        let cpu0 = stats::cpu_seconds().unwrap_or(0.0);
        timed.on.store(true, Ordering::SeqCst);
        let traced_phase = mixed_phase(
            &running,
            seed,
            &mut writer,
            seconds,
            &reference,
            Some(&tracer),
            ledger,
        );
        timed.on.store(false, Ordering::SeqCst);
        let cpu = stats::cpu_seconds().unwrap_or(0.0) - cpu0;
        let after = counters(&running.metrics);
        let (t_reads, t_writes) = match traced_phase {
            Ok(loads) => loads,
            Err(e) => {
                stop(running, ledger);
                return Err(e);
            }
        };
        drop(timed);
        let m = &mut outcome.metrics;
        let data = {
            // The handler holds the other reference until the server ends.
            stop(running, ledger);
            Arc::try_unwrap(tracer)
                .map_err(|_| "tracer still shared after the drain".to_string())?
                .finish()
        };
        for (service, calls, busy, p50) in [
            (
                "experiments.artifact_service",
                "experiments.artifact_service.calls",
                "experiments.artifact_service.busy_s",
                "experiments.artifact_service.p50_us",
            ),
            (
                "experiments.ipam_service",
                "experiments.ipam_service.calls",
                "experiments.ipam_service.busy_s",
                "experiments.ipam_service.p50_us",
            ),
        ] {
            let us: Vec<f64> = data
                .by_group(service)
                .values()
                .map(|ns| *ns as f64 / 1e3)
                .collect();
            m.insert(calls, data.calls(service) as f64);
            m.insert(busy, data.busy_s(service));
            m.insert(p50, stats::median(&us).unwrap_or(0.0));
        }
        for (client, service, metric) in [
            (
                "serve.client.read",
                "experiments.artifact_service",
                "serve.read_outside_handler_p50_us",
            ),
            (
                "serve.client.write",
                "experiments.ipam_service",
                "serve.write_outside_handler_p50_us",
            ),
        ] {
            let handler = data.by_group(service);
            let outside: Vec<f64> = data
                .by_group(client)
                .iter()
                .filter_map(|(seq, ns)| Some(ns.saturating_sub(*handler.get(seq)?) as f64 / 1e3))
                .collect();
            m.insert(metric, stats::median(&outside).unwrap_or(0.0));
        }
        let (scan_ns, serialize_ns) = http_layer_ns(&t_reads, &t_writes, &reference);
        m.insert("serve.http.scan_request_ns", scan_ns);
        m.insert("serve.http.serialize_response_ns", serialize_ns);
        m.insert(
            "serve.queue_depth_max",
            t_reads.queue_depth_max.max(t_writes.queue_depth_max) as f64,
        );
        m.insert(
            "serve.keepalive_reuses",
            (after.keepalive_reuses - before.keepalive_reuses) as f64,
        );
        m.insert(
            "serve.admission_rejects",
            (after.admission_rejects - before.admission_rejects) as f64,
        );
        m.insert(
            "serve.status_other",
            (after.status_other - before.status_other) as f64,
        );
        m.insert("process.cpu_s", cpu);
        // Two connections: each spends the phase in its own request spans.
        let clients = data.busy_s("serve.client.read") + data.busy_s("serve.client.write");
        m.insert("trace.coverage", clients / (2.0 * seconds));
        let traced_rate = t_reads.per_s() + t_writes.per_s();
        m.insert("trace.overhead_ratio", ops_per_s / traced_rate.max(1e-9));
        outcome.write_trace(&data, "serve-mixed");
    } else {
        stop(running, ledger);
        for _ in 1..SETUP_REPEATS {
            let t = Instant::now();
            let again = start(&reference, None, ledger)?;
            setups.push(t.elapsed().as_secs_f64());
            stop(again, ledger);
        }
        let m = &mut outcome.metrics;
        m.insert("setup_s", stats::median(&setups).unwrap_or(0.0));
        // Writes only: a pooled median would follow whichever class the
        // closed loop happens to complete more of.
        m.insert("p50_ms", stats::median(&writes.latency_ms).unwrap_or(0.0));
        m.insert("peak_rss_mb", peak_rss_mb);
    }
    Ok(())
}

/// Mean time per call of the request scanner on the requests the
/// workload sent, and of the response serializer on the responses it
/// received (one artifact body each, and a lease grant).
fn http_layer_ns(
    reads: &ClassLoad,
    writes: &ClassLoad,
    reference: &BTreeMap<&'static str, Vec<u8>>,
) -> (f64, f64) {
    const ROUNDS: u32 = 2_000;
    let cfg = ServeConfig::default();
    let requests: Vec<&Vec<u8>> = reads.samples.iter().chain(&writes.samples).collect();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for r in &requests {
            std::hint::black_box(scan_request(
                std::hint::black_box(r),
                cfg.max_head_bytes,
                cfg.max_body_bytes,
            ));
        }
    }
    let scan = t.elapsed().as_nanos() as f64 / f64::from(ROUNDS) / requests.len().max(1) as f64;
    let responses: Vec<Response> = reference
        .values()
        .map(|body| Response::text(200, body.clone()))
        .chain(std::iter::once(Response::text(
            201,
            "id=8\npool=res\naddress=10.0.0.1\nexpires_at=1001\n",
        )))
        .collect();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for r in &responses {
            std::hint::black_box(serialize_response(
                std::hint::black_box(r),
                Disposition::KeepAlive,
            ));
        }
    }
    let serialize = t.elapsed().as_nanos() as f64 / f64::from(ROUNDS) / responses.len() as f64;
    (scan, serialize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_body_with_one_byte_changed_fails() {
        let reference = b"Table 1: probes per AS\n".to_vec();
        assert!(check_read("table1", 200, &reference, &reference).is_ok());
        let mut body = reference.clone();
        body[6] ^= 1;
        let err = check_read("table1", 200, &body, &reference).unwrap_err();
        assert!(err.contains("byte 6"), "{err}");
        assert!(check_read("table1", 200, &reference[..5], &reference).is_err());
        assert!(check_read("table1", 500, &reference, &reference).is_err());
    }

    #[test]
    fn the_read_mix_is_the_eleven_paper_artifacts() {
        let names = paper_artifacts();
        assert_eq!(names.len(), 11);
        assert!(names.contains(&"table1") && names.contains(&"fig9") && names.contains(&"table2"));
    }

    #[test]
    fn ipam_fields_parse() {
        let body = "id=17\npool=res\naddress=10.0.0.9\nexpires_at=1001\n";
        assert_eq!(field(body, "id"), Some("17"));
        assert_eq!(field(body, "address"), Some("10.0.0.9"));
        assert_eq!(field(body, "addr"), None);
        assert!(is_ipam_path("/leases/3/renew") && !is_ipam_path("/artifacts/fig1"));
    }
}
