//! Readiness waiting: a safe shim over `poll(2)` plus the reactor's
//! cross-thread waker.
//!
//! std can block on one socket at a time but has no call that waits on
//! several, so this is the crate's single exception to its no-`unsafe`
//! rule: one `extern "C"` declaration and one call. Everything else —
//! building the descriptor set, the waker, draining it — is safe code.
//!
//! The [`Waker`] is a nonblocking `UnixStream` pair. [`Waker::wake`]
//! writes one byte to one end; the reactor polls the other end and
//! [`drain`](Waker::drain)s it right after each wait, before the next
//! tick looks for completions, so a wake sent after the drain always
//! leaves a byte for the next wait to see. A full socket buffer means a wake is already
//! pending, so `WouldBlock` is ignored and `wake` never blocks.

#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

/// Readable (or peer hung up / errored: a read will say which).
pub(crate) const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x4;

/// One `struct pollfd`: the descriptor, the events asked for, and the
/// events the kernel reported.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Asks for `events` on `fd`.
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Events the last [`wait`] reported for this descriptor.
    #[cfg(test)]
    fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits indefinitely); returns how many descriptors reported
/// events. A signal interrupting the wait returns `Ok(0)`, like a
/// timeout. Timeouts round *up* to whole milliseconds so a deadline is
/// never woken for just before it is due.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = timeout.map_or(-1, |t| {
        let ms = t.as_nanos().div_ceil(1_000_000);
        c_int::try_from(ms).unwrap_or(c_int::MAX)
    });
    let nfds = NfdsT::try_from(fds.len()).map_err(|_| io::Error::other("too many descriptors"))?;
    // SAFETY: `fds` is an exclusively borrowed, initialised slice of
    // `#[repr(C)]` `PollFd`s whose layout matches `struct pollfd`, and
    // `nfds` is its exact length, so the kernel reads and writes only
    // memory this call owns for its duration. Descriptor validity is not
    // a memory-safety concern: a stale fd reports `POLLNVAL`.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if ready >= 0 {
        return Ok(ready as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// Cross-thread wake-up for a thread blocked in [`wait`]. Clones share
/// one socket pair, so the read end outlives every writer and a late
/// wake can never hit a closed peer.
#[derive(Debug, Clone)]
pub(crate) struct Waker(Arc<(UnixStream, UnixStream)>);

impl Waker {
    /// A fresh nonblocking pair with nothing pending.
    pub(crate) fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Self(Arc::new((rx, tx))))
    }

    /// Makes the read end readable. Never blocks: a full buffer means a
    /// wake is already pending.
    pub(crate) fn wake(&self) {
        let _ = (&self.0 .1).write(&[1]);
    }

    /// The descriptor to poll for `POLLIN`.
    pub(crate) fn fd(&self) -> RawFd {
        self.0 .0.as_raw_fd()
    }

    /// Consumes every pending wake.
    pub(crate) fn drain(&self) {
        let mut scratch = [0u8; 256];
        loop {
            match (&self.0 .0).read(&mut scratch) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn zero_timeout_with_nothing_ready_returns_zero() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert_eq!(fds[0].revents(), 0);
    }

    #[test]
    fn a_wake_makes_the_fd_readable_until_drained() {
        let waker = Waker::new().unwrap();
        waker.clone().wake();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
        waker.drain();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn a_peer_byte_makes_a_tcp_stream_report_pollin() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        let mut fds = [PollFd::new(served.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        peer.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
    }

    #[test]
    fn many_wakes_before_one_drain_cost_one_event_and_never_block() {
        let waker = Waker::new().unwrap();
        // Far more one-byte writes than the socket buffer holds: the
        // overflow must be dropped, not block the sender.
        for _ in 0..10_000 {
            waker.wake();
        }
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        waker.drain();
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }
}
