//! `threelc-net`: a real TCP parameter-server runtime carrying the 3LC
//! wire format.
//!
//! The in-process simulator (`threelc-distsim`) models traffic; this crate
//! moves it. It is std-only — `std::net` sockets, `std::thread` handlers,
//! `std::sync::mpsc` barriers — and reuses the simulator's step engine
//! ([`threelc_distsim::engine`]) so a networked run produces bit-identical
//! models to a simulated run of the same configuration.
//!
//! # Frame format
//!
//! Every message is one length-prefixed frame (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "3LCN"
//!      4     1  protocol version (1 = no trace context, 2 = 16-byte ext)
//!      5     1  message type
//!      6     2  tensor id
//!      8     8  step number
//!     16     4  payload length
//!     20     4  CRC-32 (IEEE) over header bytes 0..20 + ext + payload
//!     24    16  [version 2 only] trace context: trace id + span id
//!   24/40     n  payload (the 3LC wire format, raw f32s, or control data)
//! ```
//!
//! Frames without a trace context are emitted as version 1, byte-for-byte
//! identical to the pre-trace protocol, so old and new peers interoperate
//! whenever tracing is off (see [`frame`]).
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
pub use faults::{FaultAction, FaultInjector, FaultKind, FaultPlan, FAULT_ENV, KILL_EXIT_CODE};
pub use frame::{Frame, FrameError, MsgType, HEADER_LEN, MAX_PAYLOAD};
pub use protocol::{model_crc32, NetError, ScrapeKind};
pub use report::{ConnReport, FaultEvent, FaultsReport, NetReport};
pub use scrape::{scrape_series, scrape_trace};
pub use server::{serve, ServeOptions};
pub use worker::{run_worker, WorkerOptions, WorkerOutcome};
