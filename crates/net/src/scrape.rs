//! The client side of the live scrape protocol: one `Scrape`/`ScrapeReply`
//! frame pair on a short-lived connection, beside the workers'.

use crate::frame::{read_frame, write_frame, MsgType};
use crate::protocol::{decode_scrape_reply, NetError, ScrapeKind};
use crate::worker::{connect_any, resolve};
use serde::de::DeserializeOwned;
use std::fmt::Debug;
use std::net::ToSocketAddrs;
use std::time::Duration;
use threelc_obs::{NodeTrace, RecentSteps};

/// Scrapes a live (non-draining) snapshot of a serving parameter server's
/// own span buffer.
///
/// Opens a fresh connection to `addr`, sends one `Scrape` frame, and
/// parses the `ScrapeReply`. Works at any point in the server's lifetime
/// — during the connection handshake phase and during training —
/// without disturbing worker connections. Only the server's clock domain
/// is visible live; worker buffers are collected at shutdown into
/// [`NetReport`](crate::NetReport). Empty unless the server runs with
/// `THREELC_TRACE=1`.
///
/// # Errors
///
/// Returns [`NetError::Io`] if the server is unreachable within
/// `timeout`, and [`NetError::Protocol`]/[`NetError::Frame`] if the reply
/// is not a well-formed view.
pub fn scrape_trace(addr: &str, timeout: Duration) -> Result<NodeTrace, NetError> {
    scrape(addr, ScrapeKind::Trace, timeout)
}

/// Scrapes the run's recent steps, like [`scrape_trace`]: the ring of
/// per-worker deltas fed at every barrier — what `threelc top` renders
/// and `threelc top --json` prints.
///
/// # Errors
///
/// As [`scrape_trace`].
pub fn scrape_series(addr: &str, timeout: Duration) -> Result<RecentSteps, NetError> {
    scrape(addr, ScrapeKind::Series, timeout)
}

/// One `Scrape`/`ScrapeReply` exchange on a short-lived connection.
pub(crate) fn scrape<T: DeserializeOwned>(
    addr: impl ToSocketAddrs + Debug,
    kind: ScrapeKind,
    timeout: Duration,
) -> Result<T, NetError> {
    let stream = connect_any(&resolve(addr)?, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_frame(&mut &stream, MsgType::Scrape, 0, 0, &[kind as u8])?;
    let reply = read_frame(&mut &stream)?;
    if reply.msg != MsgType::ScrapeReply {
        return Err(NetError::Protocol(format!(
            "expected ScrapeReply, got {:?}",
            reply.msg
        )));
    }
    decode_scrape_reply(&reply.payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_rejects_unresolvable_addresses() {
        assert!(matches!(
            scrape_trace("not an address", Duration::from_millis(100)),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            scrape_series("not an address", Duration::from_millis(100)),
            Err(NetError::Protocol(_))
        ));
    }
}
