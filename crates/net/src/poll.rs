//! Cross-thread wakeups for the reactor: an eventfd-backed [`Waker`].
//! The reactor and the acceptor poll through the vendored [`rawpoll`]
//! epoll shim directly.
//!
//! All `unsafe` lives in `rawpoll` (three `extern "C"` declarations); this
//! module — and the whole crate — stays `#![forbid(unsafe_code)]`.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};

/// Cross-thread wakeup for a blocked `epoll_wait`: an eventfd registered
/// in the poller under a reserved token. Any thread may
/// [`wake`](Self::wake); the owning thread [`drain`](Self::drain)s.
pub(crate) struct Waker {
    file: File,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        Ok(Waker {
            file: File::from(rawpoll::eventfd()?),
        })
    }

    pub(crate) fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Nudges the poller. Errors are ignored: the fd is nonblocking, and
    /// an `EAGAIN` here means the counter is already saturated — the
    /// reactor is waking regardless.
    pub(crate) fn wake(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Resets the counter so the next [`wake`](Self::wake) re-triggers
    /// readiness. Called by the owning thread when its token fires. One
    /// read: an eventfd hands over its whole count and zeroes it, so a
    /// second could only return `EAGAIN`.
    pub(crate) fn drain(&self) {
        let _ = (&self.file).read(&mut [0u8; 8]);
    }
}
