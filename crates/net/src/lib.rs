//! `threelc-net`: a real TCP parameter-server runtime carrying the 3LC
//! wire format.
//!
//! The in-process simulator (`threelc-distsim`) models traffic; this crate
//! moves it. It is std-only — `std::net` sockets, `std::thread` handlers,
//! `std::sync::mpsc` barriers — and reuses the simulator's step engine
//! ([`threelc_distsim::engine`]) so a networked run produces bit-identical
//! models to a simulated run of the same configuration.
//!
//! Every message is one length-prefixed, checksummed frame ([`frame`]
//! has the layout), and a BSP step is one frame each way: a worker's
//! `PushDone` carries its done fields and every tensor's payload, the
//! server's `PullDone` every tensor of the shared pull
//! ([`protocol::StepPayload`]).
//!
//! See [`frame`] for the codec, [`server::serve`] and
//! [`worker::run_worker`] for the two runtime roles.

pub mod counters;
pub mod crc32;
pub mod faults;
pub mod frame;
pub mod protocol;
pub mod report;
pub mod scrape;
pub mod server;
pub mod worker;

pub use counters::ConnCounters;
pub use faults::{FaultPlan, KILL_EXIT_CODE};
pub use frame::{FrameError, MsgType, HEADER_LEN};
pub use protocol::{model_crc32, NetError, ScrapeKind};
pub use report::{ConnReport, FaultEvent, FaultsReport, NetReport};
pub use scrape::{scrape_series, scrape_trace};
pub use server::{serve, ServeOptions};
pub use worker::{run_worker, WorkerOptions, WorkerOutcome};
