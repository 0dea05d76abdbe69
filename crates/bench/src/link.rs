//! The paced link: a std-only TCP relay in front of an unmodified
//! [`serve`], shaped as the paper shaped its links with Linux `tc` (§5.2).
//!
//! Each direction has one token bucket at the link rate that every worker
//! connection shares (the server's NIC is the bottleneck, as in the
//! paper's topology), kept as the instant the link next falls idle, plus a
//! fixed one-way latency. Whole frames are relayed — a BSP step is one
//! frame each way — since none is read before its CRC arrives: each is
//! read and checked by the runtime's frame reader and written again by
//! its writer, byte for byte, and its `n` bytes leave `n·8 / rate`
//! seconds after the frames queued before them and arrive `latency`
//! later.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::thread::{self, Scope};
use std::time::{Duration, Instant};
use threelc_distsim::{ExperimentConfig, NetworkModel};
use threelc_net::frame::{read_frame_with, whole, write_frame_parts};
use threelc_net::{run_worker, serve, MsgType, NetReport, ServeOptions, WorkerOptions};

/// Steps in a relayed window. Its 10 step intervals are an even count, so
/// for a design that alternates full and empty steps (`2 local steps`)
/// the median is the mean of one of each.
pub const WINDOW: u64 = 11;

/// One shaped link and what crossed it.
pub struct Link {
    net: NetworkModel,
    /// When each direction (to the server, from it) next falls idle.
    idle: [Mutex<Instant>; 2],
    /// Per relayed connection, in accept order: its address as the server
    /// sees its peer ([`ConnReport::peer`](threelc_net::ConnReport::peer))
    /// and the bytes delivered to the server and from it.
    pub conns: Mutex<Vec<(String, [u64; 2])>>,
    /// `(step, delivered)` per `PullDone` frame handed to a worker.
    pub pull_done: Mutex<Vec<(u64, Instant)>>,
}

impl Link {
    /// An idle link shaped to `net`.
    pub fn new(net: NetworkModel) -> Link {
        let now = Instant::now();
        Link {
            net,
            idle: [Mutex::new(now), Mutex::new(now)],
            conns: Mutex::default(),
            pull_done: Mutex::default(),
        }
    }

    /// Relays the next `n` connections accepted `at` to `server`, on
    /// threads of `scope` that end when both ends of their connection
    /// have closed it. An accept or connect error stops the relay.
    pub fn relay<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        at: TcpListener,
        server: SocketAddr,
        n: usize,
    ) {
        scope.spawn(move || -> io::Result<()> {
            for (conn, worker) in at.incoming().take(n).enumerate() {
                let (worker, server) = (worker?, TcpStream::connect(server)?);
                worker.set_nodelay(true)?;
                server.set_nodelay(true)?;
                let peer = server.local_addr()?.to_string();
                self.conns.lock().expect("link lock").push((peer, [0, 0]));
                let pumps = [(worker.try_clone()?, server.try_clone()?), (server, worker)];
                for (dir, (mut from, mut to)) in pumps.into_iter().enumerate() {
                    // A reader queues each frame on the direction's bucket,
                    // and a writer delivers it at its arrival time.
                    let (tx, rx) = channel();
                    scope.spawn(move || {
                        while let Ok(frame) = read_frame_with(&mut from, whole) {
                            let secs = frame.0.wire_len as f64 * 8.0 / self.net.bandwidth_bps;
                            let mut idle = self.idle[dir].lock().expect("link lock");
                            *idle = (*idle).max(Instant::now()) + Duration::from_secs_f64(secs);
                            let arrival = *idle + Duration::from_secs_f64(self.net.latency_s);
                            drop(idle);
                            if tx.send((arrival, frame)).is_err() {
                                break;
                            }
                        }
                    });
                    scope.spawn(move || {
                        for (arrival, (head, payload)) in rx {
                            thread::sleep(arrival.saturating_duration_since(Instant::now()));
                            let (msg, step) = (head.msg, head.step);
                            let parts = [&payload[..]];
                            let sent = write_frame_parts(
                                &mut to,
                                msg,
                                head.tensor,
                                step,
                                head.trace,
                                &parts,
                            );
                            if sent.is_err() {
                                break;
                            }
                            self.conns.lock().expect("link lock")[conn].1[dir] +=
                                head.wire_len as u64;
                            if dir == 1 && msg == MsgType::PullDone {
                                let delivered = (step, Instant::now());
                                self.pull_done.lock().expect("link lock").push(delivered);
                            }
                        }
                        let _ = to.shutdown(Shutdown::Write);
                    });
                }
            }
            Ok(())
        });
    }
}

/// What one [`relayed_run`] measured.
pub struct RelayedRun {
    pub report: NetReport,
    /// [`Link::conns`] at the end of the run.
    pub conns: Vec<(String, [u64; 2])>,
    pub step: LinkStep,
}

/// A design's step over one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkStep {
    /// The median step: seconds between the instants the last worker got
    /// consecutive steps' `PullDone`.
    pub step_s: f64,
    /// The median seconds a worker spent computing and encoding a step.
    pub compute_s: f64,
}

/// Runs `config` through [`serve`] and one in-process [`run_worker`]
/// thread per worker, every worker dialling a [`Link`] shaped to `net`.
///
/// # Errors
///
/// A `NetError` on either side, a disconnect, or fewer than two steps.
///
/// # Panics
///
/// Panics if a thread of the run panicked.
pub fn relayed_run(config: &ExperimentConfig, net: NetworkModel) -> Result<RelayedRun, String> {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
    let (listener, relay) = (bind()?, bind()?);
    let [server_addr, relay_addr] = [&listener, &relay].map(|l| l.local_addr().expect("bound"));
    let link = Link::new(net);
    // The scope also joins the relay's threads, which end once both ends
    // of every connection have closed it.
    let (report, outcomes) = thread::scope(|scope| {
        link.relay(scope, relay, server_addr, config.workers);
        let server = scope.spawn(|| serve(&listener, config, &ServeOptions::default()));
        let dial = move |w| move || run_worker(&WorkerOptions::new(relay_addr.to_string(), w));
        let workers: Vec<_> = (0..config.workers as u16)
            .map(|w| scope.spawn(dial(w)))
            .collect();
        let outcomes: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        (server.join().expect("server thread"), outcomes)
    });
    let report = report.map_err(|e| format!("serve: {e}"))?;
    for (w, outcome) in outcomes.into_iter().enumerate() {
        outcome
            .expect("worker thread")
            .map_err(|e| format!("worker {w}: {e}"))?;
    }
    if report.faults.disconnects > 0 {
        return Err(format!("{} disconnects", report.faults.disconnects));
    }
    // Every worker's `PullDone` of a step lands before any of the next
    // step's, so the last of each step in time order ends it.
    let mut done = link.pull_done.into_inner().expect("link lock");
    done.sort_by_key(|&(_, at)| at);
    let ends: Vec<Instant> = BTreeMap::from_iter(done).into_values().collect();
    if ends.len() < 2 {
        return Err("fewer than two steps to time".into());
    }
    let gaps = ends.windows(2).map(|w| (w[1] - w[0]).as_secs_f64());
    let rows = report.recent.rows.iter();
    let compute: Vec<f64> = rows
        .flat_map(|r| r.deltas.iter().map(|d| d.step_seconds))
        .collect();
    Ok(RelayedRun {
        conns: link.conns.into_inner().expect("link lock"),
        step: LinkStep {
            step_s: median(gaps.collect()),
            compute_s: median(compute),
        },
        report,
    })
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}
